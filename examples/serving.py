"""Serving: plan once, execute everywhere — and let a service dedup it.

Three escalating views of the plan/execute pipeline:

1. a single session splits ``estimate()`` into ``plan()`` + ``run()``
   and shows the plan's stable content digest;
2. many "tenants" submit identical plans to an :class:`EstimateService`
   — the backend runs once, every handle gets the same report;
3. an ``asyncio`` front-end serves concurrent awaiters from one batch,
   and its ``workers=`` shard pool spreads *distinct* plans across
   processes.

Run:  PYTHONPATH=src python examples/serving.py
"""

import asyncio
import time

from repro import FHESession
from repro.api import build_plan
from repro.serve import AsyncEstimateService, EstimateService


def plan_and_execute() -> None:
    session = FHESession.create("n10_fast")
    plan = session.plan("HELR", backend="rpu", schedule="OC")
    print(f"plan: {plan}")
    print(f"  digest (stable across processes): {plan.digest}")

    report = plan.run()
    legacy = session.estimate("HELR", backend="rpu", schedule="OC")
    print(f"  plan().run() == estimate(): {report == legacy}")
    print(f"  latency {report.latency_ms:.1f} ms, "
          f"{report.hks_calls} HKS, {len(report.phases)} phases")


def multi_session_dedup(tenants: int = 50) -> None:
    print(f"\n{tenants} tenants ask for the same HELR estimate:")
    service = EstimateService(disk_cache=False)
    handles = [
        service.submit(build_plan("HELR", backend="rpu", schedule="OC"))
        for _ in range(tenants)
    ]
    start = time.perf_counter()
    answered = service.gather()
    elapsed = time.perf_counter() - start
    reports = {id(h.result()) for h in handles}
    stats = service.stats
    print(f"  answered {answered} handles in {elapsed * 1e3:.1f} ms "
          f"({len(reports)} distinct report object(s))")
    print(f"  computed {stats.computed}x, dedup hit rate "
          f"{stats.dedup_hit_rate:.0%}")


def sharded_async(workers: int = 2) -> None:
    print(f"\nasync front-end, {workers} worker processes for cold plans:")
    mixed = [
        build_plan(name, backend="rpu", schedule="OC")
        for name in ("ARK", "BTS1", "BTS2", "BTS3", "ARK", "BTS1")
    ]

    async def main() -> None:
        async with AsyncEstimateService(
            workers=workers, disk_cache=False
        ) as service:
            reports = await service.estimate_many(mixed)
            for plan, report in zip(mixed, reports):
                print(f"  {report.benchmark:>6}: "
                      f"{report.latency_ms:8.2f} ms  "
                      f"(digest {plan.digest[:10]}...)")
            print(f"  stats: {service.stats.as_row()}")

    asyncio.run(main())


if __name__ == "__main__":
    plan_and_execute()
    multi_session_dedup()
    sharded_async()
