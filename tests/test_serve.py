"""Serving-layer tests: dedup, caching, sharding, async, CLI.

The contracts the ISSUE pins down: identical concurrent submissions
compute exactly once (counter-verified), results fan out to every
waiter, a second service answers from the cross-process disk cache, and
the shard pool returns exactly what sequential execution returns.
"""

import asyncio
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import build_plan, list_backends, register_backend
from repro.api.backends import _REGISTRY, PlanBackendBase, RunReport
from repro.errors import ParameterError
from repro.serve import (
    AsyncEstimateService,
    EstimateService,
    ServeError,
    ShardPool,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def counting_backend():
    """A registered backend whose run_plan() executions are counted."""

    class CountingBackend(PlanBackendBase):
        name = "counting-serve"

        def __init__(self):
            self.calls = 0
            self._lock = threading.Lock()

        def run_plan(self, plan):
            with self._lock:
                self.calls += 1
            return RunReport(
                benchmark=plan.name, backend=self.name,
                schedule=plan.schedule, total_bytes=64, data_bytes=64,
                evk_bytes=0, mod_ops=640, num_tasks=1,
                peak_on_chip_bytes=0, latency_ms=1.0, options=plan.options,
            )

    backend = CountingBackend()
    register_backend(backend)
    try:
        yield backend
    finally:
        del _REGISTRY["counting-serve"]


def _plan(workload="ARK", **kw):
    kw.setdefault("backend", "counting-serve")
    kw.setdefault("schedule", "OC")
    return build_plan(workload, **kw)


class TestDedup:
    def test_identical_concurrent_submissions_compute_once(
            self, counting_backend):
        """The headline contract: N concurrent sessions, one computation."""
        service = EstimateService(disk_cache=False)
        handles = []
        collect = threading.Lock()
        barrier = threading.Barrier(8)

        def tenant():
            barrier.wait()
            handle = service.submit(_plan())  # fresh Plan object per tenant
            with collect:
                handles.append(handle)

        threads = [threading.Thread(target=tenant) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert service.gather() == 8
        reports = [h.result() for h in handles]
        assert counting_backend.calls == 1
        assert all(r is reports[0] for r in reports), \
            "one report object must fan out to every waiter"
        assert service.stats.batch_hits == 7
        assert service.stats.dedup_hit_rate == pytest.approx(7 / 8)

    def test_distinct_plans_all_compute(self, counting_backend):
        service = EstimateService(disk_cache=False)
        reports = service.estimate_many(
            [_plan(), _plan(schedule="MP"), _plan("BTS1")]
        )
        assert counting_backend.calls == 3
        assert [r.schedule for r in reports] == ["OC", "MP", "OC"]

    def test_repeat_batches_hit_the_lru(self, counting_backend):
        service = EstimateService(disk_cache=False)
        first = service.estimate(_plan())
        second = service.estimate(_plan())
        assert counting_backend.calls == 1
        assert second is first
        assert service.stats.memory_hits == 1

    def test_lru_evicts_past_capacity(self, counting_backend):
        service = EstimateService(cache_size=1, disk_cache=False)
        service.estimate(_plan("ARK"))
        service.estimate(_plan("BTS1"))  # evicts ARK
        service.estimate(_plan("ARK"))   # recomputes
        assert counting_backend.calls == 3

    def test_handle_errors(self, counting_backend):
        service = EstimateService(disk_cache=False)
        handle = service.submit(_plan())
        with pytest.raises(ServeError):
            handle.result()
        service.gather()
        assert handle.done and handle.result().backend == "counting-serve"
        with pytest.raises(ParameterError):
            service.submit("ARK")
        with pytest.raises(ParameterError):
            EstimateService(cache_size=0)

    def test_gather_with_nothing_pending(self):
        assert EstimateService(disk_cache=False).gather() == 0

    def test_unique_counts_distinct_digests_across_batches(
            self, counting_backend):
        service = EstimateService(disk_cache=False)
        service.estimate(_plan())
        service.estimate(_plan())          # repeat: not a new digest
        service.estimate(_plan("BTS1"))
        assert service.stats.unique == 2


class TestFailureIsolation:
    @pytest.fixture()
    def flaky_backend(self):
        """Registered backend that raises for one specific benchmark."""

        class FlakyBackend(PlanBackendBase):
            name = "flaky-serve"
            calls = 0

            def run_plan(self, plan):
                FlakyBackend.calls += 1
                if plan.name == "BTS1":
                    raise RuntimeError("model exploded")
                return RunReport(
                    benchmark=plan.name, backend=self.name,
                    schedule=plan.schedule, total_bytes=1, data_bytes=1,
                    evk_bytes=0, mod_ops=1, num_tasks=1,
                    peak_on_chip_bytes=0, options=plan.options,
                )

        register_backend(FlakyBackend())
        try:
            yield FlakyBackend
        finally:
            del _REGISTRY["flaky-serve"]

    def test_failed_plan_does_not_strand_the_batch(self, flaky_backend):
        service = EstimateService(disk_cache=False)
        good = service.submit(build_plan("ARK", backend="flaky-serve"))
        bad = service.submit(build_plan("BTS1", backend="flaky-serve"))
        bad_twin = service.submit(build_plan("BTS1", backend="flaky-serve"))
        assert service.gather() == 3
        assert good.result().benchmark == "ARK"
        assert bad.failed and bad_twin.failed
        with pytest.raises(RuntimeError, match="model exploded"):
            bad.result()
        with pytest.raises(RuntimeError):
            bad_twin.result()
        assert service.stats.failed == 1
        assert service.stats.computed == 1

    def test_failures_are_not_cached(self, flaky_backend):
        service = EstimateService(disk_cache=False)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                service.estimate(build_plan("BTS1", backend="flaky-serve"))
        assert flaky_backend.calls == 2, "failures must be retried"

    def test_async_failure_reaches_only_its_awaiters(self, flaky_backend):
        async def main():
            async with AsyncEstimateService(disk_cache=False) as service:
                ok = asyncio.create_task(
                    service.estimate(build_plan("ARK", backend="flaky-serve"))
                )
                boom = asyncio.create_task(
                    service.estimate(build_plan("BTS1",
                                                backend="flaky-serve"))
                )
                results = await asyncio.gather(ok, boom,
                                               return_exceptions=True)
                return results

        ok_report, error = asyncio.run(main())
        assert ok_report.benchmark == "ARK"
        assert isinstance(error, RuntimeError)


class TestDiskCache:
    def test_second_service_answers_from_disk(self, tmp_path, monkeypatch,
                                              counting_backend):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = EstimateService()
        report = first.estimate(_plan())
        assert counting_backend.calls == 1

        second = EstimateService()  # fresh memory, same disk
        warm = second.estimate(_plan())
        assert counting_backend.calls == 1, "disk hit must not recompute"
        assert second.stats.disk_hits == 1
        assert warm == report  # bit-identical through the JSON codec

    def test_other_model_version_recomputes(self, tmp_path, monkeypatch,
                                            counting_backend):
        """Reports priced by other library code must not be served."""
        from repro import cache
        from repro.serve import service as service_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        plan = _plan()
        EstimateService().estimate(plan)
        assert counting_backend.calls == 1
        payload = cache.load_json(service_mod.REPORT_CACHE_KIND, plan.digest)
        payload["model_version"] = "0.0.0-older"
        cache.store_json(service_mod.REPORT_CACHE_KIND, plan.digest, payload)
        EstimateService().estimate(plan)
        assert counting_backend.calls == 2, "stale model version must miss"

    def test_corrupt_disk_entry_recomputes(self, tmp_path, monkeypatch,
                                           counting_backend):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        plan = _plan()
        EstimateService().estimate(plan)
        for path in tmp_path.glob("report-*.npz"):
            path.write_bytes(b"garbage")
        again = EstimateService().estimate(plan)
        assert counting_backend.calls == 2
        assert again.backend == "counting-serve"

    def test_disk_cache_disabled_by_flag_and_env(self, tmp_path, monkeypatch,
                                                 counting_backend):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        EstimateService(disk_cache=False).estimate(_plan())
        assert list(tmp_path.glob("report-*.npz")) == []
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        EstimateService().estimate(_plan())
        assert counting_backend.calls == 2

    def test_second_process_service_computes_nothing(self, tmp_path):
        """True cross-process warm start on a real (RPU) plan."""
        script = (
            "from repro.api import build_plan\n"
            "from repro.serve import EstimateService\n"
            "service = EstimateService()\n"
            "report = service.estimate(build_plan('BOOT', backend='rpu',"
            " schedule='OC'))\n"
            "print(service.stats.computed, report.latency_ms)\n"
        )
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        cold = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              check=True)
        computed, latency = cold.stdout.split()
        assert computed == "1"
        warm = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              check=True)
        computed_warm, latency_warm = warm.stdout.split()
        assert computed_warm == "0", "second process must answer from disk"
        assert latency_warm == latency, "disk round-trip must be bit-exact"


class TestShardPool:
    def test_pool_matches_sequential_execution(self):
        plans = [build_plan(name, backend="rpu", schedule="OC")
                 for name in ("BTS1", "ARK")]
        with ShardPool(2) as pool:
            sharded = pool.run_plans(plans)
        assert sharded == [plan.run() for plan in plans]

    def test_single_plan_runs_inline(self, counting_backend):
        pool = ShardPool(2)
        try:
            reports = pool.run_plans([_plan()])
            assert counting_backend.calls == 1, "no worker round-trip"
            assert reports[0].backend == "counting-serve"
            assert pool.run_plans([]) == []
            assert not pool.started, "pool must stay lazy"
        finally:
            pool.close()

    def test_service_with_workers(self):
        with EstimateService(workers=2, disk_cache=False) as service:
            plans = [build_plan(n, backend="rpu", schedule="OC")
                     for n in ("BTS1", "ARK", "BTS1")]
            reports = service.estimate_many(plans)
            assert service.stats.computed == 2  # BTS1 deduped
            assert reports[0] == reports[2]
            assert reports[1] == build_plan("ARK", backend="rpu",
                                            schedule="OC").run()

    def test_invalid_configs(self):
        with pytest.raises(ParameterError):
            ShardPool(0)


@pytest.fixture()
def sleeper_backend():
    """A registered backend slow enough to kill a worker mid-request."""

    class SleeperBackend(PlanBackendBase):
        name = "sleeper-serve"

        def run_plan(self, plan):
            time.sleep(0.3)
            return RunReport(
                benchmark=plan.name, backend=self.name,
                schedule=plan.schedule, total_bytes=64, data_bytes=64,
                evk_bytes=0, mod_ops=640, num_tasks=1,
                peak_on_chip_bytes=0, latency_ms=1.0, options=plan.options,
            )

    backend = SleeperBackend()
    register_backend(backend)
    try:
        yield backend
    finally:
        del _REGISTRY["sleeper-serve"]


def _sleepy_plans(n):
    return [build_plan("BTS1", backend="sleeper-serve", schedule="OC",
                       bandwidth_gbs=64.0 + i) for i in range(n)]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
class TestPoolSupervision:
    """A dead worker is never a silent hang: WorkerDied or a requeue."""

    def _kill_one_mid_batch(self, pool, delay_s=0.1):
        pid = pool.worker_pids()[0]
        timer = threading.Timer(
            delay_s, lambda: os.kill(pid, signal.SIGKILL)
        )
        timer.start()
        return pid, timer

    def test_worker_death_raises_workerdied(self, sleeper_backend):
        from repro.serve import WorkerDied

        with ShardPool(2) as pool:
            _pid, timer = self._kill_one_mid_batch(pool)
            try:
                with pytest.raises(WorkerDied) as excinfo:
                    pool.run_plans(_sleepy_plans(4))
            finally:
                timer.cancel()
            assert excinfo.value.lost  # names the abandoned workloads
            assert pool.deaths >= 1
            # the pool reaped the corpse and stays usable
            reports = pool.run_plans(_sleepy_plans(2))
            assert [r.benchmark for r in reports] == ["BTS1", "BTS1"]

    def test_requeue_completes_the_batch_after_a_kill(
            self, sleeper_backend):
        with ShardPool(2) as pool:
            plans = _sleepy_plans(4)
            _pid, timer = self._kill_one_mid_batch(pool)
            try:
                reports = pool.run_plans(plans, requeue=True)
            finally:
                timer.cancel()
            assert len(reports) == 4
            assert all(r.backend == "sleeper-serve" for r in reports)
            assert pool.deaths >= 1

    def test_service_batch_survives_worker_kill(self, sleeper_backend):
        with EstimateService(workers=2, disk_cache=False) as service:
            _pid, timer = self._kill_one_mid_batch(service.pool)
            try:
                reports = service.estimate_many(_sleepy_plans(4))
            finally:
                timer.cancel()
            assert len(reports) == 4
            assert service.stats.failed == 0

    def test_rolling_restart_replaces_pids_and_keeps_working(self):
        with ShardPool(2) as pool:
            before = set(pool.worker_pids())
            assert pool.rolling_restart() == 2
            after = set(pool.worker_pids())
            assert before.isdisjoint(after)
            plans = [build_plan(n, backend="rpu", schedule="OC")
                     for n in ("BTS1", "ARK")]
            assert pool.run_plans(plans) == [p.run() for p in plans]

    def test_sigusr1_dumps_stacks_and_keeps_the_worker(self, capfd):
        plans = [build_plan(n, backend="rpu", schedule="OC")
                 for n in ("BTS1", "ARK")]
        with ShardPool(2) as pool:
            # A first batch puts every worker inside its loop, where the
            # handler is installed.
            expected = pool.run_plans(plans)
            pids = pool.worker_pids()
            for pid in pids:
                os.kill(pid, signal.SIGUSR1)
            err, deadline = "", time.monotonic() + 10
            while err.count("in _worker_main") < len(pids):
                assert time.monotonic() < deadline
                time.sleep(0.05)
                err += capfd.readouterr().err
            assert pool.run_plans(plans) == expected
            assert pool.worker_pids() == pids
            assert pool.deaths == 0

    def test_reap_respawns_idle_dead_workers(self):
        with ShardPool(2) as pool:
            pids = pool.worker_pids()
            os.kill(pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 10
            # SIGKILL lands asynchronously: poll until the reaper both
            # notices the corpse and restores capacity.
            while pool.deaths < 1 or pool.alive_workers() < 2:
                assert time.monotonic() < deadline
                pool.reap(restart=True)
                time.sleep(0.05)
            assert pool.restarts >= 1
            assert pids[0] not in pool.worker_pids()


class TestAsyncService:
    def test_concurrent_awaiters_share_one_computation(
            self, counting_backend):
        async def main():
            async with AsyncEstimateService(disk_cache=False) as service:
                reports = await service.estimate_many(
                    [_plan() for _ in range(16)]
                )
                return reports, service.stats

        reports, stats = asyncio.run(main())
        assert counting_backend.calls == 1
        assert len(reports) == 16
        assert all(r is reports[0] for r in reports)
        assert stats.dedup_hit_rate == pytest.approx(15 / 16)

    def test_wraps_existing_service(self, counting_backend):
        inner = EstimateService(disk_cache=False)

        async def main():
            service = AsyncEstimateService(inner)
            return await service.estimate(_plan())

        report = asyncio.run(main())
        assert report.backend == "counting-serve"
        assert inner.stats.submitted == 1

    def test_late_submissions_get_their_own_flush(self, counting_backend):
        """An awaiter arriving mid-flush still resolves (second gather)."""

        async def main():
            async with AsyncEstimateService(disk_cache=False) as service:
                first = asyncio.create_task(service.estimate(_plan("ARK")))
                await asyncio.sleep(0)  # let the first flush start
                second = asyncio.create_task(service.estimate(_plan("BTS1")))
                return await asyncio.gather(first, second)

        a, b = asyncio.run(main())
        assert {a.benchmark, b.benchmark} == {"ARK", "BTS1"}

    def test_aclose_drains_outstanding_gathers(self, counting_backend):
        """Shutdown resolves every in-flight awaiter before closing."""

        async def main():
            service = AsyncEstimateService(disk_cache=False)
            tasks = [asyncio.create_task(service.estimate(_plan(name)))
                     for name in ("ARK", "BTS1")]
            await asyncio.sleep(0)  # awaiters submit, a flush starts
            await service.aclose()
            return await asyncio.gather(*tasks)

        reports = asyncio.run(main())
        assert {r.benchmark for r in reports} == {"ARK", "BTS1"}

    def test_aclose_gathers_parked_submissions(self, counting_backend):
        """Submissions with no flush in flight still resolve at aclose."""

        async def main():
            service = AsyncEstimateService(disk_cache=False)
            handle = service.service.submit(_plan())
            await service.aclose()
            return handle

        handle = asyncio.run(main())
        assert handle.done and handle.result().backend == "counting-serve"


class TestBackendListing:
    def test_list_backends_sorted_and_stable(self):
        names = list_backends()
        assert names == sorted(names)
        assert {"analytic", "rpu"} <= set(names)
        assert names == list_backends()

    def test_describe_backends_matches_listing(self):
        from repro.api import describe_backends

        described = describe_backends()
        assert list(described) == list_backends()
        assert "Table II" in described["analytic"]

    def test_cli_backends_listing(self, capsys):
        from repro.__main__ import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "analytic" in out and "rpu" in out
