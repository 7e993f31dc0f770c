"""Deterministic, process-wide fault injection.

Write-optimized storage systems earn their crash consistency by making
every failure point an explicitly tested state transition; this module
brings the same discipline to the serving stack.  A :class:`FaultPlan`
names *injection points* (stable string labels compiled into the hot
seams — cache read/write, worker dispatch, frame encode/decode, batch
compute) and maps them to actions:

``crash``
    ``os._exit`` the current process, mid-operation — the moral
    equivalent of an OOM kill or segfault at the worst possible moment.
``delay``
    Block for ``delay_s`` seconds — a hung worker, a stalled disk, a
    garbage-collection pause.  This is how stall-reaping is tested.
``error``
    Raise :class:`InjectedFault` — an unexpected exception on a path
    that normally cannot fail.
``corrupt``
    Return ``"corrupt"`` to the call site, which performs the actual
    data damage (truncate the cache file, flip a frame byte) so the
    *real* recovery path is exercised, not a simulation of it.

Determinism is the whole point: rules fire on exact visit counts
(``after``/``max_hits``) or from a per-rule PRNG stream seeded by the
plan's ``seed``, so a chaos run replays bit-identically.  Plans travel
as JSON and activate either programmatically (:func:`install`) or via
the ``REPRO_FAULT_PLAN`` environment variable (inline JSON or a file
path) — the env route is what forked :class:`~repro.serve.pool.ShardPool`
workers inherit, so one plan can crash a worker *child* while the parent
observes the recovery.

With no plan active, :func:`fault_point` is one ``os.environ`` lookup —
cheap enough to leave compiled into production paths.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro import codec
from repro.errors import ReproError

#: Environment variable holding an active plan: inline JSON (starts with
#: ``{``) or a path to a JSON file.  Read lazily in every process, so
#: forked/spawned workers inherit the parent's plan.
ENV_VAR = "REPRO_FAULT_PLAN"

#: Actions a rule may take at its injection point.
ACTIONS = ("crash", "delay", "error", "corrupt")

#: Exit status of a ``crash`` action (BSD ``EX_SOFTWARE``), so a chaos
#: harness can tell an injected crash from a genuine one.
CRASH_EXIT_CODE = 70

logger = logging.getLogger("repro.faults")


class InjectedFault(ReproError):
    """The error raised by a rule whose action is ``"error"``."""

    def __init__(self, point: str, message: str):
        super().__init__(message)
        self.point = point


@dataclass
class FaultRule:
    """One injection-point -> action binding with firing conditions.

    A rule *matches* a visit when the point name equals ``point`` and
    ``match`` (if set) is a substring of the visit's context string.  A
    matching visit *fires* when the first ``after`` matches have passed,
    fewer than ``max_hits`` firings have happened, and the rule's PRNG
    draw lands under ``probability``.  ``visits``/``hits`` are per-process
    runtime state (``compare=False``), not part of the serialized plan.
    """

    point: str
    action: str
    probability: float = 1.0
    #: Matching visits skipped before the rule may fire.
    after: int = 0
    #: Firing budget; ``None`` = unlimited.
    max_hits: Optional[int] = 1
    #: Sleep length of a ``delay`` action (seconds).
    delay_s: float = 0.05
    #: Substring the visit's context must contain ("" matches any).
    match: str = ""
    message: str = ""
    visits: int = field(default=0, compare=False)
    hits: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ReproError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {ACTIONS}"
            )
        if not self.point:
            raise ReproError("a fault rule needs a non-empty point name")
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError(
                f"probability must be in [0, 1], got {self.probability}"
            )


class FaultPlan:
    """An ordered rule set with seeded per-rule randomness.

    The first matching rule that fires wins a visit (rules are checked
    in order).  Each rule draws from its own ``random.Random`` stream
    derived from ``(seed, rule index)``, so adding a rule does not
    perturb the firing pattern of the others — replays stay exact.
    """

    def __init__(self, rules: Sequence[FaultRule], *, seed: int = 0):
        self.rules: List[FaultRule] = list(rules)
        self.seed = int(seed)
        self._rngs = [
            random.Random(self.seed * 1_000_003 + index * 7_919 + 1)
            for index in range(len(self.rules))
        ]
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:  # lint: allow-hand-codec
        return {"seed": self.seed,
                "rules": [codec.to_dict(rule) for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":  # lint: allow-hand-codec
        rules, seed = data.get("rules", []), data.get("seed", 0)
        if set(data) - {"rules", "seed"} or not isinstance(rules, list) \
                or not isinstance(seed, int) or isinstance(seed, bool):
            raise ReproError(
                f"malformed fault plan: needs a 'rules' list and an int "
                f"'seed', got {data!r:.80}"
            )
        return cls([codec.from_dict(FaultRule, r) for r in rules], seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except (TypeError, ValueError) as exc:
            raise ReproError(
                f"fault plan is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ReproError("fault plan must be a JSON object")
        return cls.from_dict(data)

    # -- activation -------------------------------------------------------------

    def install(self) -> "FaultPlan":
        """Make this plan the process's active plan (see :func:`install`)."""
        install(self)
        return self

    def counts(self) -> Dict[str, int]:
        """Faults fired so far in this process, by point name."""
        with self._lock:
            return dict(self._counts)

    # -- the hot path -----------------------------------------------------------

    def visit(self, point: str, context: str = "") -> Optional[str]:
        """Evaluate one injection-point visit; see :func:`fault_point`."""
        fired: Optional[FaultRule] = None
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.point != point:
                    continue
                if rule.match and rule.match not in context:
                    continue
                rule.visits += 1
                if rule.visits <= rule.after:
                    continue
                if rule.max_hits is not None and rule.hits >= rule.max_hits:
                    continue
                if (rule.probability < 1.0
                        and self._rngs[index].random() >= rule.probability):
                    continue
                rule.hits += 1
                self._counts[point] = self._counts.get(point, 0) + 1
                fired = rule
                break
        if fired is None:
            return None
        logger.warning(
            "injecting %s at %r%s (pid=%d)", fired.action, point,
            f" [{context[:120]}]" if context else "", os.getpid(),
        )
        if fired.action == "delay":
            time.sleep(fired.delay_s)
            return "delay"
        if fired.action == "crash":
            os._exit(CRASH_EXIT_CODE)
        if fired.action == "error":
            raise InjectedFault(
                point, fired.message or f"injected fault at {point!r}"
            )
        return "corrupt"

    def __repr__(self) -> str:
        return f"FaultPlan(rules={len(self.rules)}, seed={self.seed})"


# -- process-wide registry -------------------------------------------------------

_installed: Optional[FaultPlan] = None
_env_value: Optional[str] = None
_env_plan: Optional[FaultPlan] = None
_env_lock = threading.Lock()


def install(plan: FaultPlan) -> None:
    """Activate ``plan`` in this process (overrides the env plan)."""
    global _installed
    _installed = plan


def clear() -> None:
    """Deactivate any plan and forget the cached env parse."""
    global _installed, _env_value, _env_plan
    _installed = None
    _env_value = None
    _env_plan = None


def active_plan() -> Optional[FaultPlan]:
    """The plan in force: installed first, else ``REPRO_FAULT_PLAN``.

    The env value is re-checked (one dict lookup) on every call and
    re-parsed only when it changes, so a child process forked after the
    variable was set picks the plan up on its first fault-point visit.
    """
    if _installed is not None:
        return _installed
    env = os.environ.get(ENV_VAR)
    if env != _env_value:
        with _env_lock:
            _set_env_plan(env)
    return _env_plan


def _set_env_plan(env: Optional[str]) -> None:
    global _env_value, _env_plan
    _env_value = env
    _env_plan = None
    if not env:
        return
    text = env
    if not env.lstrip().startswith("{"):
        try:
            text = Path(env).read_text(encoding="utf-8")
        except OSError as exc:
            logger.error("cannot read %s=%r: %s", ENV_VAR, env, exc)
            return
    try:
        _env_plan = FaultPlan.from_json(text)
    except ReproError as exc:
        logger.error("ignoring malformed %s: %s", ENV_VAR, exc)


def fault_point(name: str, context: str = "") -> Optional[str]:
    """Declare an injection point; fire the active plan's matching rule.

    Returns ``None`` (no fault, or after a completed ``delay``) or
    ``"corrupt"`` — the caller then damages its own data so the genuine
    recovery path runs.  ``crash`` exits the process here; ``error``
    raises :class:`InjectedFault` here.  ``context`` is a free-form
    label (cache key, payload head, op name) rules may ``match`` on.
    """
    plan = active_plan()
    if plan is None:
        return None
    return plan.visit(name, context)


def fault_counts() -> Dict[str, int]:
    """Faults fired in this process by point name ({} with no plan)."""
    plan = active_plan()
    return {} if plan is None else plan.counts()
