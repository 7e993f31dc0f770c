"""Multi-tenant session state: tokens, quotas, rate limits, fair dequeue.

The network server is shared infrastructure: one chatty tenant must not
starve the others, and per-tenant limits must be enforced *before* a
request occupies queue capacity.  Three pieces:

* :class:`TenantSpec` / :class:`TenantRegistry` — static configuration
  (token-authenticated named tenants) and authentication.  A registry
  with no configured tenants runs *open*: every connection maps onto one
  shared ``public`` tenant, which keeps single-user deployments and
  tests zero-config while exercising the same code paths.
* :class:`TokenBucket` / :class:`TenantState` — per-tenant runtime
  state: a token bucket for sustained request rate (with a computed
  retry-after when empty), an in-flight counter for the concurrency
  quota, and the bounded ``digest -> Plan`` map that lets a warm
  ``estimate`` name its plan by digest instead of shipping it.
* :class:`FairQueue` — per-tenant FIFOs drained round-robin, so a batch
  formed under backlog interleaves tenants instead of serving whoever
  submitted fastest.  The queue also carries the *global* depth bound
  that drives load-based admission (backpressure) in the server.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence

from repro import codec
from repro.errors import ParameterError, ReproError

if TYPE_CHECKING:
    from repro.api.plan import Plan


class AuthError(ReproError):
    """Unknown token, or an operation the tenant is not allowed to run."""


@dataclass(frozen=True)
class TenantSpec:
    """Static configuration of one tenant.

    ``rate`` is the sustained request rate in requests/second (0 =
    unlimited) with ``burst`` extra headroom (defaults to ``2 * rate``,
    minimum 1, when a rate is set); ``max_inflight`` bounds concurrent
    unfinished submissions; ``admin`` gates ``shutdown``.
    """

    name: str
    token: str
    max_inflight: int = 64
    rate: float = 0.0
    burst: int = 0
    admin: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("tenant name must be non-empty")
        if not self.token:
            raise ParameterError(f"tenant {self.name!r} needs a token")
        if self.max_inflight < 1:
            raise ParameterError(
                f"tenant {self.name!r}: max_inflight must be positive"
            )
        if self.rate < 0 or self.burst < 0:
            raise ParameterError(
                f"tenant {self.name!r}: rate and burst must be non-negative"
            )


#: The implicit tenant of an open (no-tenants-configured) registry.  It
#: is admin — a single-user deployment should be able to shut itself
#: down — and effectively unthrottled.
PUBLIC_TENANT = TenantSpec(name="public", token="-", max_inflight=1 << 16,
                           admin=True)


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s refill, ``burst`` capacity.

    ``try_take()`` returns 0.0 when a token was consumed, otherwise the
    seconds until one becomes available (the retry-after the server
    reports).  A zero rate means unlimited.  The clock is injectable for
    deterministic tests.
    """

    def __init__(self, rate: float, burst: int,
                 clock: Callable[[], float] = time.monotonic):
        self.rate = float(rate)
        self.burst = max(1, int(burst)) if rate else 0
        self._clock = clock
        self._tokens = float(self.burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            float(self.burst), self._tokens + (now - self._stamp) * self.rate
        )
        self._stamp = now

    def try_take(self) -> float:
        if not self.rate:
            return 0.0
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate


@dataclass
class TenantState:
    """Runtime state and counters of one authenticated tenant.

    ``plans`` maps the digests of plans this tenant sent in full to the
    :class:`~repro.api.plan.Plan` objects, least recently used first and
    at most ``max_plans`` of them.  Only the tenant's own frames read it,
    so a digest another tenant sent is unknown here.
    """

    spec: TenantSpec
    max_plans: int = 256
    bucket: TokenBucket = field(init=False)
    plans: "OrderedDict[str, Plan]" = field(init=False, repr=False)
    inflight: int = 0
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_rate: int = 0
    rejected_quota: int = 0
    rejected_admission: int = 0
    rejected_backpressure: int = 0

    def __post_init__(self) -> None:
        burst = self.spec.burst or max(1, int(2 * self.spec.rate))
        self.bucket = TokenBucket(self.spec.rate, burst)
        self.plans = OrderedDict()

    @property
    def name(self) -> str:
        return self.spec.name

    def remember(self, plan: "Plan") -> None:
        """Keep ``plan`` under its digest, evicting the least recently
        used past ``max_plans``."""
        self.plans[plan.digest] = plan
        self.plans.move_to_end(plan.digest)
        while len(self.plans) > self.max_plans:
            self.plans.popitem(last=False)

    def recall(self, digest: str) -> "Optional[Plan]":
        """The plan this tenant sent under ``digest``, or ``None``."""
        plan = self.plans.get(digest)
        if plan is not None:
            self.plans.move_to_end(digest)
        return plan

    def as_row(self) -> Dict[str, object]:
        return {
            "tenant": self.name,
            "inflight": self.inflight,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected_rate": self.rejected_rate,
            "rejected_quota": self.rejected_quota,
            "rejected_admission": self.rejected_admission,
            "rejected_backpressure": self.rejected_backpressure,
        }


def load_tenant_specs(path: str) -> List[TenantSpec]:
    """Parse a JSON tenant file: ``[{"name": ..., "token": ...}, ...]``."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise ParameterError(
            f"tenant file {path} must hold a JSON list of tenant objects"
        )
    return [codec.from_dict(TenantSpec, entry) for entry in data]


class TenantRegistry:
    """Token -> tenant authentication plus per-tenant runtime state.

    Connections from the same tenant (same token) share one
    :class:`TenantState` — quotas and rate limits are per *tenant*, not
    per connection.
    """

    def __init__(self, specs: Sequence[TenantSpec] = (), *,
                 max_plans: int = 256):
        self._by_token: Dict[str, TenantState] = {}
        self._states: "OrderedDict[str, TenantState]" = OrderedDict()
        names = set()
        for spec in specs:
            if spec.name in names:
                raise ParameterError(f"duplicate tenant name {spec.name!r}")
            if spec.token in self._by_token:
                raise ParameterError(
                    f"tenant {spec.name!r} reuses another tenant's token"
                )
            names.add(spec.name)
            state = TenantState(spec, max_plans)
            self._by_token[spec.token] = state
            self._states[spec.name] = state
        self.open = not specs
        if self.open:
            state = TenantState(PUBLIC_TENANT, max_plans)
            self._states[state.name] = state
            self._public = state

    def authenticate(self, token: Optional[str]) -> TenantState:
        """Resolve a token to its tenant (open registries accept anything)."""
        if self.open:
            return self._public
        state = self._by_token.get(token or "")
        if state is None:
            raise AuthError("unknown tenant token")
        return state

    def states(self) -> List[TenantState]:
        return list(self._states.values())


class FairQueue:
    """Bounded per-tenant FIFOs with round-robin draining.

    ``push`` refuses items past the *global* ``max_depth`` (the caller
    turns that into a backpressure response); ``pop_round`` takes at
    most one item per tenant per cycle, so a backlog drains fairly
    across tenants regardless of per-tenant arrival rates.
    """

    def __init__(self, max_depth: int):
        if max_depth < 1:
            raise ParameterError("queue max_depth must be positive")
        self.max_depth = max_depth
        self._queues: "OrderedDict[str, Deque[object]]" = OrderedDict()
        self._depth = 0

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def full(self) -> bool:
        return self._depth >= self.max_depth

    def push(self, tenant: str, item: object) -> bool:
        """Append one item; ``False`` when the global bound is hit."""
        if self.full:
            return False
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        queue.append(item)
        self._depth += 1
        return True

    def pop_round(self, max_items: int) -> List[object]:
        """Drain up to ``max_items``, one per tenant per round-robin cycle.

        Tenants are visited in insertion order and the cursor wraps, so
        successive calls continue the rotation rather than restarting at
        the first tenant.
        """
        items: List[object] = []
        while len(items) < max_items and self._depth:
            for tenant in list(self._queues):
                if len(items) >= max_items:
                    break
                queue = self._queues[tenant]
                if queue:
                    items.append(queue.popleft())
                    self._depth -= 1
                if queue:
                    self._queues.move_to_end(tenant)
                else:
                    del self._queues[tenant]
        return items
