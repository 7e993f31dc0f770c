"""Closed-loop load harness for the network estimate service.

``run_load`` drives a server the way the acceptance test does: a pool of
concurrent workers, spread over several pipelined connections, each
submit→gather one plan at a time from a weighted request mix until the
deadline.  Retryable refusals (rate, quota, backpressure) are retried
with the server's ``retry_after`` hint — so under deliberate overload
the harness measures *deferral*, and anything that still fails is
counted as dropped.  ``repro serve-load`` is this harness behind a CLI.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.plan import Plan
from repro.faults import DeadlineExceeded
from repro.net.client import EstimateClient, RemoteDeadlineExceeded, RemoteError


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 on no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class LoadResult:
    """What one ``run_load`` measured."""

    duration_s: float = 0.0
    completed: int = 0
    #: Requests that failed even after the retry budget (the "dropped"
    #: count the zero-loss guard checks).
    dropped: int = 0
    #: Retryable refusals honored (each retried, not dropped).
    deferred: int = 0
    #: Requests answered ``deadline_exceeded`` (client- or server-side).
    #: Structured shedding, not loss: counted separately from ``dropped``
    #: so the zero-loss guard still holds under chaos with deadlines.
    deadline_exceeded: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def qps(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies_ms, 50.0)

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies_ms, 99.0)

    def as_dict(self) -> Dict[str, object]:
        lat = self.latencies_ms
        return {
            "duration_s": round(self.duration_s, 3),
            "completed": self.completed,
            "dropped": self.dropped,
            "deferred": self.deferred,
            "deadline_exceeded": self.deadline_exceeded,
            "qps": round(self.qps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "mean_ms": round(sum(lat) / len(lat), 3) if lat else 0.0,
            "max_ms": round(max(lat), 3) if lat else 0.0,
            "errors": dict(self.errors),
        }


async def run_load(host: str, port: int, *, plans: Sequence[Plan],
                   duration_s: float = 5.0, concurrency: int = 16,
                   connections: int = 4, token: Optional[str] = None,
                   retries: int = 32,
                   deadline_s: Optional[float] = None) -> LoadResult:
    """Drive the server with ``concurrency`` closed-loop workers.

    Workers walk the (weighted) plan list round-robin over
    ``connections`` pipelined client connections.  Returns the merged
    :class:`LoadResult`.  With ``deadline_s``, every request carries a
    per-call deadline budget (propagated to the server via
    ``deadline_s`` on the wire); expiries land in
    :attr:`LoadResult.deadline_exceeded`, not ``dropped``.
    """
    if not plans:
        raise ValueError("run_load needs at least one plan")
    connections = max(1, min(connections, concurrency))
    clients = [EstimateClient(host, port, token=token)
               for _ in range(connections)]
    await asyncio.gather(*(c.connect() for c in clients))
    result = LoadResult()
    deadline = time.perf_counter() + duration_s
    started = time.perf_counter()

    async def worker(index: int) -> None:
        client = clients[index % len(clients)]
        cursor = index  # spread workers across the mix
        while time.perf_counter() < deadline:
            plan = plans[cursor % len(plans)]
            cursor += concurrency
            t0 = time.perf_counter()
            try:
                await _estimate_counting_defers(client, plan, retries,
                                                result, deadline_s)
            except (DeadlineExceeded, RemoteDeadlineExceeded):
                result.deadline_exceeded += 1
                result.errors["deadline_exceeded"] = \
                    result.errors.get("deadline_exceeded", 0) + 1
            except RemoteError as exc:
                result.dropped += 1
                result.errors[exc.kind] = result.errors.get(exc.kind, 0) + 1
            except (ConnectionError, asyncio.TimeoutError) as exc:
                result.dropped += 1
                key = type(exc).__name__
                result.errors[key] = result.errors.get(key, 0) + 1
            else:
                result.completed += 1
                result.latencies_ms.append(
                    (time.perf_counter() - t0) * 1e3
                )

    try:
        await asyncio.gather(*(worker(i) for i in range(concurrency)))
    finally:
        result.duration_s = time.perf_counter() - started
        await asyncio.gather(*(c.close() for c in clients),
                             return_exceptions=True)
    return result


async def _estimate_counting_defers(client: EstimateClient, plan: Plan,
                                    retries: int, result: LoadResult,
                                    deadline_s: Optional[float] = None,
                                    ) -> None:
    """client.estimate with per-retry accounting (deferrals measured)."""
    attempt = 0
    while True:
        try:
            await client.estimate(plan, deadline=deadline_s)
            return
        except RemoteError as exc:
            retryable = exc.kind in ("rate", "quota", "backpressure")
            if not retryable or attempt >= retries:
                raise
            attempt += 1
            result.deferred += 1
            await asyncio.sleep(min(exc.retry_after or 0.05, 1.0))


def weighted_plans(entries: Sequence[Tuple[Plan, int]],
                   cap: int = 256) -> List[Plan]:
    """Expand (plan, count) mix entries into a round-robin plan list."""
    out: List[Plan] = []
    for plan, count in entries:
        out.extend([plan] * max(1, count))
        if len(out) >= cap:
            break
    return out[:cap] or [entry[0] for entry in entries[:1]]
