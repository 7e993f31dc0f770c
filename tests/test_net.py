"""Network front-end tests: codec, sessions, admission, supervision.

The contracts the ISSUE pins down: the frame codec survives truncation
and oversized frames, concurrent clients over a real socket dedup into
one computation, tenant quotas turn into structured error frames with
retry hints (backpressure defers, never drops), a worker killed
mid-request is requeued and every submitted request still resolves, and
an admission-strict rejection carries the full diagnostic report to the
remote client.
"""

import asyncio
import dataclasses
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro import codec
from repro.api import build_plan, register_backend
from repro.api.backends import _REGISTRY, PlanBackendBase, RunReport
from repro.analysis import Severity
from repro.errors import ParameterError
from repro.net import (
    DigestStream,
    EstimateClient,
    EstimateServer,
    FairQueue,
    FrameError,
    QuotaExceeded,
    RateLimited,
    Rejection,
    RemoteAdmissionError,
    RemoteError,
    ServerConfig,
    TenantSpec,
    TokenBucket,
    build_mix_payload,
    decode_frames,
    encode_frame,
    load_mix,
    load_tenant_specs,
    parse_mix_payload,
    save_mix,
)
from repro.net.loadgen import percentile, weighted_plans
from repro.net.protocol import PROTOCOL_VERSION
from repro.workloads.ir import Phase, WorkloadProgram

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 120))


def _server_config(**kw):
    kw.setdefault("workers", 0)
    kw.setdefault("disk_cache", False)
    kw.setdefault("warming", False)
    return ServerConfig(**kw)


def _corrupted_plan():
    """A plan whose IR fails static analysis (level monotonicity)."""
    plan = build_plan("HELR")
    phases = list(plan.workload.phases)
    i = next(k for k in range(1, len(phases)) if phases[k].kind != "cts")
    spec = dataclasses.replace(phases[i].spec,
                               kl=phases[i - 1].spec.kl + 1)
    phases[i] = Phase(phases[i].label, spec, phases[i].mix, phases[i].kind)
    workload = WorkloadProgram(plan.workload.name + "*", tuple(phases),
                               plan.workload.description)
    return dataclasses.replace(plan, workload=workload)


@pytest.fixture()
def slow_backend():
    """A registered backend whose runs block for a controllable time."""

    class SlowBackend(PlanBackendBase):
        name = "slow-net"
        delay_s = 0.3

        def run_plan(self, plan):
            time.sleep(self.delay_s)
            return RunReport(
                benchmark=plan.name, backend=self.name,
                schedule=plan.schedule, total_bytes=64, data_bytes=64,
                evk_bytes=0, mod_ops=640, num_tasks=1,
                peak_on_chip_bytes=0, latency_ms=1.0, options=plan.options,
            )

    backend = SlowBackend()
    register_backend(backend)
    try:
        yield backend
    finally:
        del _REGISTRY["slow-net"]


def _slow_plan(i=0):
    return build_plan("BTS1", backend="slow-net", schedule="OC",
                      bandwidth_gbs=64.0 + i)


# -- frame codec ------------------------------------------------------------------

class TestFrameCodec:
    def test_round_trip(self):
        payloads = [{"v": 1, "id": i, "op": "status"} for i in range(5)]
        wire = b"".join(encode_frame(p) for p in payloads)
        frames, tail = decode_frames(wire)
        assert frames == payloads
        assert tail == b""

    def test_truncated_frame_stays_in_tail(self):
        wire = encode_frame({"id": 1}) + encode_frame({"id": 2})
        for cut in (2, len(wire) - 3):
            frames, tail = decode_frames(wire[:cut])
            assert len(frames) < 2
            assert wire[:cut].endswith(tail)
            # the tail completes once the rest arrives
            frames2, tail2 = decode_frames(tail + wire[cut:])
            assert [f["id"] for f in frames] + [f["id"] for f in frames2] \
                == [1, 2]
            assert tail2 == b""

    def test_oversized_frame_rejected(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame({"blob": "x" * 64}, max_frame=16)
        big = encode_frame({"blob": "x" * 64})
        with pytest.raises(FrameError, match="exceeds"):
            decode_frames(big, max_frame=16)

    def test_non_object_body_rejected(self):
        import struct

        body = json.dumps([1, 2, 3]).encode()
        with pytest.raises(FrameError, match="JSON object"):
            decode_frames(struct.pack(">I", len(body)) + body)

    def test_read_frame_eof_and_truncation(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"id": 1}))
            reader.feed_eof()
            from repro.net.protocol import read_frame

            assert (await read_frame(reader))["id"] == 1
            assert await read_frame(reader) is None  # clean EOF

            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"id": 2})[:-3])
            reader.feed_eof()
            with pytest.raises(FrameError, match="mid-frame"):
                await read_frame(reader)

            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00")  # EOF mid-header
            reader.feed_eof()
            with pytest.raises(FrameError, match="mid-header"):
                await read_frame(reader)

        run(main())


# -- tenants: buckets, quotas, fair queue -----------------------------------------

class TestTenantPrimitives:
    def test_token_bucket_rate_and_retry_after(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2, clock=lambda: clock[0])
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        wait = bucket.try_take()
        assert wait == pytest.approx(0.5)
        clock[0] += wait
        assert bucket.try_take() == 0.0

    def test_zero_rate_is_unlimited(self):
        bucket = TokenBucket(rate=0.0, burst=0)
        assert all(bucket.try_take() == 0.0 for _ in range(100))

    def test_fair_queue_round_robin_and_bound(self):
        queue = FairQueue(max_depth=6)
        for i in range(3):
            assert queue.push("a", f"a{i}")
        for i in range(3):
            assert queue.push("b", f"b{i}")
        assert queue.full and not queue.push("a", "overflow")
        assert queue.pop_round(4) == ["a0", "b0", "a1", "b1"]
        # rotation continues instead of restarting at tenant a
        assert queue.pop_round(2) == ["a2", "b2"]
        assert queue.depth == 0

    def test_tenant_spec_validation(self):
        with pytest.raises(ParameterError):
            TenantSpec(name="", token="t")
        with pytest.raises(ParameterError):
            TenantSpec(name="x", token="t", max_inflight=0)
        with pytest.raises(ParameterError):
            codec.from_dict(TenantSpec, {"name": "x", "token": "t", "nope": 1})

    def test_tenant_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps([
            {"name": "a", "token": "ta", "rate": 5.0, "admin": True},
            {"name": "b", "token": "tb", "max_inflight": 2},
        ]))
        assert load_tenant_specs(str(path)) == [
            TenantSpec(name="a", token="ta", rate=5.0, admin=True),
            TenantSpec(name="b", token="tb", max_inflight=2),
        ]
        path.write_text(json.dumps({"name": "a", "token": "ta"}))
        with pytest.raises(ParameterError, match="JSON list"):
            load_tenant_specs(str(path))
        path.write_text(json.dumps([{"name": "a", "token": "ta",
                                     "quota": 3}]))
        with pytest.raises(ParameterError, match="quota"):
            load_tenant_specs(str(path))


class TestDigestStream:
    def test_top_k_orders_by_window_frequency(self):
        stream = DigestStream(window=64)
        hot, warm, cold = (build_plan("HELR", bandwidth_gbs=b)
                           for b in (64.0, 72.0, 80.0))
        for _ in range(5):
            stream.observe(hot)
        for _ in range(2):
            stream.observe(warm)
        stream.observe(cold)
        assert stream.observed == 8 and stream.distinct == 3
        assert [p.digest for p in stream.top(2)] == \
            [hot.digest, warm.digest]

    def test_window_ages_out_stale_digests(self):
        stream = DigestStream(window=4)
        old, new = build_plan("HELR"), build_plan("HELR", bandwidth_gbs=72.0)
        stream.observe(old)
        for _ in range(4):
            stream.observe(new)
        assert [p.digest for p in stream.top(4)] == [new.digest]

    def test_mix_payload_round_trip(self, tmp_path):
        stream = DigestStream()
        plans = [build_plan("HELR", bandwidth_gbs=64.0 + i)
                 for i in range(3)]
        for i, plan in enumerate(plans):
            for _ in range(i + 1):
                stream.observe(plan)
        path = tmp_path / "mix.json"
        save_mix(str(path), stream.entries())
        entries = load_mix(str(path))
        assert [(p.digest, c) for p, c in entries] == \
            [(p.digest, c) for p, c in stream.entries()]
        with pytest.raises(ParameterError, match="version"):
            parse_mix_payload({"version": 99, "mix": []})
        with pytest.raises(ParameterError, match="'plan'"):
            parse_mix_payload({"mix": [{"count": 1}]})


# -- server over a real socket ----------------------------------------------------

class TestServerSocket:
    def test_multi_client_concurrency_dedups(self):
        async def main():
            async with EstimateServer(_server_config()) as server:
                shared = build_plan("HELR")
                distinct = [build_plan("HELR", bandwidth_gbs=96.0 + i)
                            for i in range(3)]

                async def one_client(i):
                    async with EstimateClient("127.0.0.1",
                                              server.port) as cli:
                        reports = await cli.estimate_many(
                            [shared, distinct[i % 3]]
                        )
                        return reports

                results = await asyncio.gather(*(one_client(i)
                                                 for i in range(6)))
                stats = server.service.stats
                return results, stats.as_row(), server.stats

        results, row, sstats = run(main())
        baseline = build_plan("HELR").run()
        assert all(r[0] == baseline for r in results)
        assert row["submitted"] == 12
        assert row["computed"] == 4  # 1 shared + 3 distinct
        assert sstats.completed == 12 and sstats.failed == 0

    def test_pipelined_out_of_order_responses(self):
        async def main():
            async with EstimateServer(_server_config()) as server:
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    # a gather is parked while later requests answer
                    fast = build_plan("HELR")
                    slow_gather = asyncio.ensure_future(
                        cli.gather(["t999"], timeout=0.5)
                    )
                    report = await cli.estimate(fast)
                    status = await cli.status()
                    with pytest.raises(RemoteError, match="unknown"):
                        await slow_gather
                    return report, status

        report, status = run(main())
        assert report == build_plan("HELR").run()
        assert status["server"]["accepted"] == 1

    def test_bad_version_and_unknown_op_frames(self):
        async def main():
            async with EstimateServer(_server_config()) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                from repro.net.protocol import read_frame, write_frame

                await write_frame(writer, {"v": 99, "id": 1, "op": "hello"})
                bad_version = await read_frame(reader)
                await write_frame(writer, {"v": PROTOCOL_VERSION, "id": 2,
                                           "op": "dance"})
                unknown = await read_frame(reader)
                writer.close()
                return bad_version, unknown

        bad_version, unknown = run(main())
        assert not bad_version["ok"]
        assert bad_version["error"]["kind"] == "protocol"
        assert unknown["error"]["kind"] == "protocol"
        assert unknown["id"] == 2

    def test_oversized_frame_answered_then_disconnected(self):
        async def main():
            config = _server_config(max_frame=4096)
            async with EstimateServer(config) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                from repro.net.protocol import read_frame

                writer.write(encode_frame({"id": 1, "junk": "x" * 8192}))
                await writer.drain()
                error = await read_frame(reader)
                assert await read_frame(reader) is None  # server hung up
                writer.close()
                return error

        error = run(main())
        assert error["error"]["kind"] == "protocol"
        assert "exceeds" in error["error"]["message"]

    def test_submit_without_hello_is_auth_error(self):
        async def main():
            config = _server_config(
                tenants=(TenantSpec(name="a", token="s3cret"),)
            )
            async with EstimateServer(config) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                from repro.net.protocol import read_frame, write_frame

                await write_frame(writer, {
                    "v": PROTOCOL_VERSION, "id": 1, "op": "submit",
                    "plan": build_plan("HELR").to_dict(),
                })
                response = await read_frame(reader)
                writer.close()
                return response

        response = run(main())
        assert response["error"]["kind"] == "auth"

    def test_unknown_token_rejected(self):
        async def main():
            config = _server_config(
                tenants=(TenantSpec(name="a", token="s3cret"),)
            )
            async with EstimateServer(config) as server:
                with pytest.raises(RemoteError, match="unknown tenant"):
                    async with EstimateClient("127.0.0.1", server.port,
                                              token="wrong"):
                        pass
                async with EstimateClient("127.0.0.1", server.port,
                                          token="s3cret") as cli:
                    return cli.session

        session = run(main())
        assert session["tenant"] == "a" and not session["admin"]


# -- admission: load half ---------------------------------------------------------

class TestLoadAdmission:
    def test_quota_exhaustion_is_a_structured_error_frame(
            self, slow_backend):
        async def main():
            config = _server_config(
                tenants=(TenantSpec(name="small", token="s",
                                    max_inflight=2),
                         TenantSpec(name="aux", token="x", admin=True)),
            )
            async with EstimateServer(config) as server:
                async with EstimateClient("127.0.0.1", server.port,
                                          token="s") as cli:
                    t1 = await cli.submit(_slow_plan(0))
                    t2 = await cli.submit(_slow_plan(1))
                    with pytest.raises(QuotaExceeded) as excinfo:
                        await cli.submit(_slow_plan(2))
                    assert excinfo.value.retry_after > 0
                    # the quota frees as tickets resolve; gather then
                    # resubmit succeeds
                    await cli.gather([t1, t2])
                    t3 = await cli.submit(_slow_plan(2))
                    await cli.gather([t3])
                    state = server.registry.authenticate("s")
                    return state.as_row(), server.stats.rejected_quota

        row, rejected = run(main())
        assert row["rejected_quota"] == 1 and rejected == 1
        assert row["completed"] == 3

    def test_backpressure_when_queue_is_full(self):
        async def main():
            # No started dispatcher: the queue genuinely fills.
            server = EstimateServer(_server_config(max_queue_depth=2))
            tenant = server.registry.authenticate(None)
            try:
                await server.admit_and_submit(tenant, build_plan("HELR"))
                await server.admit_and_submit(
                    tenant, build_plan("HELR", bandwidth_gbs=72.0)
                )
                with pytest.raises(Rejection) as excinfo:
                    await server.admit_and_submit(
                        tenant, build_plan("HELR", bandwidth_gbs=80.0)
                    )
                return excinfo.value, server.stats
            finally:
                server.service.close()

        rejection, stats = run(main())
        assert rejection.kind == "backpressure"
        assert rejection.retry_after > 0
        assert stats.rejected_backpressure == 1
        assert stats.accepted == 2

    def test_rate_limit_defers_and_client_retries(self):
        async def main():
            config = _server_config(
                tenants=(TenantSpec(name="slowpoke", token="s",
                                    rate=5.0, burst=1),),
            )
            async with EstimateServer(config) as server:
                async with EstimateClient("127.0.0.1", server.port,
                                          token="s") as cli:
                    plan = build_plan("HELR")
                    await cli.estimate(plan)
                    with pytest.raises(RateLimited) as excinfo:
                        await cli.estimate(plan)
                    assert 0 < excinfo.value.retry_after <= 0.25
                    # with a retry budget the refusal becomes deferral
                    report = await cli.estimate(plan, retries=4)
                    return report, server.stats.rejected_rate

        report, rejected = run(main())
        assert report == build_plan("HELR").run()
        assert rejected >= 1

    def test_draining_server_rejects_submits(self):
        async def main():
            async with EstimateServer(_server_config()) as server:
                server._draining = True
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    with pytest.raises(RemoteError) as excinfo:
                        await cli.submit(build_plan("HELR"))
                    return excinfo.value.kind

        assert run(main()) == "shutdown"


# -- admission: validity half (PR 6 over the wire) --------------------------------

class TestStaticAdmission:
    def test_strict_rejection_carries_diagnostic_report(self):
        async def main():
            async with EstimateServer(_server_config()) as server:
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    with pytest.raises(RemoteAdmissionError) as excinfo:
                        await cli.estimate(_corrupted_plan())
                    return excinfo.value, server.stats.rejected_admission

        error, rejected = run(main())
        assert rejected == 1
        report = error.report
        assert report is not None and report.errors
        diag = report.errors[0]
        assert diag.severity is Severity.ERROR
        assert diag.pass_id and diag.message
        assert "rejected by static analysis" in str(error)

    def test_admission_off_admits_the_statically_invalid_plan(self):
        # Level monotonicity is an analysis-only invariant: with the
        # gate off the plan executes anyway — exactly what "off" means.
        async def main():
            config = _server_config(admission="off")
            async with EstimateServer(config) as server:
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    report = await cli.estimate(_corrupted_plan())
                    return report, server.stats

        report, stats = run(main())
        assert report.benchmark == "HELR*"
        assert stats.rejected_admission == 0 and stats.failed == 0

    def test_execution_failure_surfaces_as_worker_error(self):
        class ExplodingBackend(PlanBackendBase):
            name = "exploding-net"

            def run_plan(self, plan):
                raise ParameterError("boom at run time")

        register_backend(ExplodingBackend())
        try:
            async def main():
                config = _server_config(admission="off")
                async with EstimateServer(config) as server:
                    async with EstimateClient("127.0.0.1",
                                              server.port) as cli:
                        plan = build_plan("BTS1", backend="exploding-net",
                                          schedule="OC")
                        with pytest.raises(RemoteError,
                                           match="boom") as excinfo:
                            await cli.estimate(plan)
                        return excinfo.value.kind, server.stats

            kind, stats = run(main())
        finally:
            del _REGISTRY["exploding-net"]
        assert kind == "worker"
        assert stats.failed == 1 and stats.completed == 0


# -- worker supervision -----------------------------------------------------------

@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestWorkerSupervision:
    def test_worker_kill_mid_batch_loses_nothing(self, slow_backend):
        async def main():
            config = _server_config(workers=2, supervisor_interval=0.2)
            async with EstimateServer(config) as server:
                pids = server.service.service.pool.worker_pids()
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    plans = [_slow_plan(i) for i in range(4)]
                    gather = asyncio.ensure_future(
                        cli.estimate_many(plans)
                    )
                    await asyncio.sleep(0.15)  # mid first slow round
                    os.kill(pids[0], signal.SIGKILL)
                    reports = await gather
                    status = await cli.status()
                    return plans, reports, status

        plans, reports, status = run(main())
        assert len(reports) == 4
        assert [r.benchmark for r in reports] == [p.name for p in plans]
        assert status["server"]["failed"] == 0
        assert status["workers"]["deaths"] >= 1

    def test_supervisor_sweep_respawns_idle_dead_worker(self):
        async def main():
            config = _server_config(workers=2, supervisor_interval=0.1)
            async with EstimateServer(config) as server:
                pool = server.service.service.pool
                before = pool.worker_pids()
                os.kill(before[0], signal.SIGKILL)
                deadline = asyncio.get_running_loop().time() + 10
                # SIGKILL lands asynchronously: wait until the sweep
                # both noticed the corpse and restored capacity.
                while pool.deaths < 1 or pool.alive_workers() < 2:
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("sweep never healed the pool")
                    await asyncio.sleep(0.05)
                after = pool.worker_pids()
                return before, after, server.supervisor.sweeps

        before, after, sweeps = run(main())
        assert len(after) == 2 and before[0] not in after
        assert sweeps >= 1

    def test_rolling_restart_replaces_every_pid(self):
        async def main():
            config = _server_config(workers=2)
            async with EstimateServer(config) as server:
                pool = server.service.service.pool
                before = set(pool.worker_pids())
                recycled = await server.supervisor.rolling_restart()
                after = set(pool.worker_pids())
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    report = await cli.estimate(build_plan("HELR"))
                return before, after, recycled, report

        before, after, recycled, report = run(main())
        assert recycled == 2
        assert before.isdisjoint(after)
        assert report == build_plan("HELR").run()


# -- warming ----------------------------------------------------------------------

class TestWarming:
    def test_warm_op_preloads_the_cache(self):
        async def main():
            async with EstimateServer(_server_config()) as server:
                plans = [build_plan("HELR", bandwidth_gbs=64.0 + i)
                         for i in range(2)]
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    warmed = await cli.warm([(p, 3) for p in plans])
                    stats_before = dict(server.service.stats.as_row())
                    for plan in plans:
                        await cli.estimate(plan)
                    stats_after = server.service.stats.as_row()
                return warmed, stats_before, stats_after

        warmed, before, after = run(main())
        assert warmed == 2
        assert before["computed"] == 2
        assert after["computed"] == 2  # requests were pure cache hits
        assert after["memory_hits"] >= 2

    def test_idle_warming_resubmits_hot_digests(self):
        async def main():
            config = _server_config(warming=True, idle_warm_after=0.15,
                                    warm_top_k=1, cache_size=1)
            async with EstimateServer(config) as server:
                hot = build_plan("HELR")
                cold = build_plan("HELR", bandwidth_gbs=72.0)
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    for _ in range(3):
                        await cli.estimate(hot)
                    # evict hot from the 1-entry LRU, then go idle
                    await cli.estimate(cold)
                    deadline = asyncio.get_running_loop().time() + 10
                    while not server.stats.idle_warms:
                        if asyncio.get_running_loop().time() > deadline:
                            raise AssertionError("idle warm never fired")
                        await asyncio.sleep(0.05)
                    computed_before = server.service.stats.computed
                    report = await cli.estimate(hot)
                    computed_after = server.service.stats.computed
                return (server.stats.warmed, computed_before,
                        computed_after, report)

        warmed, before, after, report = run(main())
        assert warmed >= 1
        assert before == 3  # hot, cold, then the idle re-warm of hot
        assert after == before  # the request itself was a pure cache hit
        assert report == build_plan("HELR").run()

    def test_startup_warm_mix(self, tmp_path):
        plans = [build_plan("HELR", bandwidth_gbs=64.0 + i)
                 for i in range(2)]
        path = tmp_path / "mix.json"
        save_mix(str(path), [(p, 2) for p in plans])

        async def main():
            config = _server_config(warm_mix=load_mix(str(path)))
            async with EstimateServer(config) as server:
                deadline = asyncio.get_running_loop().time() + 30
                while server.stats.warmed < 2:
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("startup warm never finished")
                    await asyncio.sleep(0.05)
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    for plan in plans:
                        await cli.estimate(plan)
                return server.service.stats.as_row()

        row = run(main())
        assert row["computed"] == 2  # warmed at startup, not per request
        assert row["memory_hits"] >= 2


# -- shutdown ---------------------------------------------------------------------

class TestShutdown:
    def test_admin_shutdown_drains_inflight_tickets(self, slow_backend):
        async def main():
            async with EstimateServer(_server_config()) as server:
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    ticket = await cli.submit(_slow_plan())
                    response = await cli.shutdown()
                    assert response["draining"] is True
                    reports = await cli.gather([ticket])
                await asyncio.wait_for(server.wait_closed(), 30)
                return reports, server.stats

        reports, stats = run(main())
        assert reports[0].backend == "slow-net"
        assert stats.completed == 1 and stats.failed == 0

    def test_non_admin_cannot_shutdown(self):
        async def main():
            config = _server_config(
                tenants=(TenantSpec(name="a", token="s3cret"),)
            )
            async with EstimateServer(config) as server:
                async with EstimateClient("127.0.0.1", server.port,
                                          token="s3cret") as cli:
                    with pytest.raises(RemoteError) as excinfo:
                        await cli.shutdown()
                    # still serving
                    report = await cli.estimate(build_plan("HELR"))
                    return excinfo.value.kind, report

        kind, report = run(main())
        assert kind == "auth"
        assert report == build_plan("HELR").run()

    def test_gather_isolation_between_tenants(self):
        async def main():
            config = _server_config(
                tenants=(TenantSpec(name="a", token="ta"),
                         TenantSpec(name="b", token="tb")),
            )
            async with EstimateServer(config) as server:
                async with EstimateClient("127.0.0.1", server.port,
                                          token="ta") as alice, \
                        EstimateClient("127.0.0.1", server.port,
                                       token="tb") as bob:
                    ticket = await alice.submit(build_plan("HELR"))
                    with pytest.raises(RemoteError,
                                       match="another tenant"):
                        await bob.gather([ticket])
                    return await alice.gather([ticket])

        reports = run(main())
        assert reports[0] == build_plan("HELR").run()


# -- HTTP adapter -----------------------------------------------------------------

async def _http_request(port, method, path, body=None, token=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = json.dumps(body).encode() if body is not None else b""
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
    if token:
        head += f"Authorization: Bearer {token}\r\n"
    head += f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n"
    writer.write(head.encode() + data)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    headers, _, payload = raw.partition(b"\r\n\r\n")
    status = int(headers.split(b" ", 2)[1])
    return status, json.loads(payload), headers.decode("latin-1")


class TestHTTPAdapter:
    def test_estimate_status_health_and_errors(self):
        async def main():
            config = _server_config(http_port=0)
            async with EstimateServer(config) as server:
                port = server.http_port
                health = await _http_request(port, "GET", "/healthz")
                good = await _http_request(
                    port, "POST", "/v1/estimate",
                    body=build_plan("HELR").to_dict(),
                )
                bad_plan = await _http_request(port, "POST", "/v1/estimate",
                                               body={"nope": 1})
                missing = await _http_request(port, "GET", "/nowhere")
                status = await _http_request(port, "GET", "/v1/status")
                rejected = await _http_request(
                    port, "POST", "/v1/estimate",
                    body=_corrupted_plan().to_dict(),
                )
                return health, good, bad_plan, missing, status, rejected

        health, good, bad_plan, missing, status, rejected = run(main())
        assert health[0] == 200 and health[1]["ok"]
        assert good[0] == 200
        assert good[1]["report"]["benchmark"] == "HELR"
        assert bad_plan[0] == 400
        assert bad_plan[1]["error"]["kind"] == "plan"
        assert missing[0] == 404
        assert status[0] == 200 and status[1]["server"]["accepted"] == 1
        assert rejected[0] == 422
        assert rejected[1]["error"]["report"]["diagnostics"]

    def test_auth_and_retry_after_headers(self, slow_backend):
        async def main():
            config = _server_config(
                http_port=0,
                tenants=(TenantSpec(name="a", token="s3cret",
                                    max_inflight=1),),
            )
            async with EstimateServer(config) as server:
                port = server.http_port
                anonymous = await _http_request(port, "GET", "/v1/status")
                wrong = await _http_request(port, "GET", "/v1/status",
                                            token="nope")
                first = asyncio.ensure_future(_http_request(
                    port, "POST", "/v1/estimate",
                    body=_slow_plan().to_dict(), token="s3cret",
                ))
                await asyncio.sleep(0.1)
                throttled = await _http_request(
                    port, "POST", "/v1/estimate",
                    body=_slow_plan(1).to_dict(), token="s3cret",
                )
                ok = await first
                return anonymous, wrong, throttled, ok

        anonymous, wrong, throttled, ok = run(main())
        assert anonymous[0] == 401 and wrong[0] == 401
        assert throttled[0] == 429
        assert "retry-after:" in throttled[2].lower()
        assert ok[0] == 200

    @pytest.mark.parametrize("raw, status", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
        (b"POST /v1/estimate HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        (b"POST /v1/estimate HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
        (b"POST /v1/estimate HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}", 400),
        (b"POST /v1/estimate HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (4 * 1024 * 1024 + 1), 413),
    ], ids=["request-line", "header", "length-not-a-number",
            "length-negative", "body-truncated", "body-over-limit"])
    def test_malformed_request_is_a_protocol_error(self, raw, status):
        async def main():
            async with EstimateServer(_server_config(http_port=0)) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.http_port)
                writer.write(raw)
                writer.write_eof()
                answer = await reader.read()
                writer.close()
                return answer

        head, _, body = run(main()).partition(b"\r\n\r\n")
        assert int(head.split(b" ", 2)[1]) == status
        assert json.loads(body)["error"]["kind"] == "protocol"

    def test_execution_failure_has_the_frame_protocols_kind(self):
        class FailingBackend(PlanBackendBase):
            name = "failing-http"

            def run_plan(self, plan):
                if plan.options.bandwidth_gbs == 64.0:
                    raise ParameterError("a library error at run time")
                raise RuntimeError("a foreign error at run time")

        register_backend(FailingBackend())
        try:
            async def main():
                config = _server_config(http_port=0, admission="off")
                kinds = []
                async with EstimateServer(config) as server:
                    async with EstimateClient("127.0.0.1",
                                              server.port) as cli:
                        for bandwidth in (64.0, 65.0):
                            plan = build_plan("BTS1", backend="failing-http",
                                              schedule="OC",
                                              bandwidth_gbs=bandwidth)
                            with pytest.raises(RemoteError) as excinfo:
                                await cli.estimate(plan)
                            # Failures are not cached: HTTP runs it again.
                            status, payload, _ = await _http_request(
                                server.http_port, "POST", "/v1/estimate",
                                body=plan.to_dict())
                            kinds.append((excinfo.value.kind, status,
                                          payload["error"]["kind"]))
                    return kinds, server.stats

            kinds, stats = run(main())
        finally:
            del _REGISTRY["failing-http"]
        assert kinds == [("worker", 500, "worker"),
                         ("internal", 500, "internal")]
        assert stats.failed == 4 and stats.gathered == 4


# -- the ticket table -------------------------------------------------------------

class TestTicketTable:
    def test_timed_out_estimates_leave_no_ticket_behind(self, slow_backend):
        """An ``estimate`` owns its ticket: neither client sees its id,
        so after a timeout it is forgotten once it resolves, and its
        report still lands in the LRU for a retry to hit."""
        plans = [_slow_plan(i) for i in range(3)]

        async def main():
            config = _server_config(http_port=0, gather_timeout=0.1)
            async with EstimateServer(config) as server:
                async with EstimateClient("127.0.0.1", server.port) as cli:
                    for plan in plans[:2]:
                        with pytest.raises(RemoteError) as excinfo:
                            await cli.estimate(plan)
                        assert excinfo.value.kind == "timeout"
                    status, _, _ = await _http_request(
                        server.http_port, "POST", "/v1/estimate",
                        body=plans[2].to_dict())
                    assert status == 504
                    for _ in range(200):
                        if server.stats.completed == len(plans):
                            break
                        await asyncio.sleep(0.05)
                    await asyncio.sleep(0.05)
                    left = len(server._tickets)
                    row = server.status_payload()
                    retries = [await cli.estimate(plan) for plan in plans]
                    return left, row, retries, server.service.stats

        left, row, retries, stats = run(main())
        assert left == 0
        assert row["server"]["pending"] == 0
        assert row["service"]["computed"] == 3
        assert row["service"]["memory_hits"] == 0
        assert [r.backend for r in retries] == ["slow-net"] * 3
        assert stats.computed == 3 and stats.memory_hits == 3


# -- load harness -----------------------------------------------------------------

class TestLoadgen:
    def test_percentile_and_weighted_plans(self):
        assert percentile([], 99) == 0.0
        samples = list(map(float, range(1, 102)))  # 1..101
        assert percentile(samples, 50) == 51.0  # the true median
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 101.0
        plans = weighted_plans(
            [(build_plan("HELR"), 3),
             (build_plan("HELR", bandwidth_gbs=72.0), 1)]
        )
        assert len(plans) == 4
        assert len({p.digest for p in plans}) == 2

    def test_run_load_round_trip(self):
        from repro.net import run_load

        async def main():
            async with EstimateServer(_server_config()) as server:
                result = await run_load(
                    "127.0.0.1", server.port,
                    plans=[build_plan("HELR")],
                    duration_s=0.5, concurrency=4, connections=2,
                )
                return result

        result = run(main())
        assert result.dropped == 0
        assert result.completed > 0
        assert result.p99_ms >= result.p50_ms > 0


# -- CLI --------------------------------------------------------------------------

class TestNetCLI:
    def test_verify_serve_vets_a_mix_file(self, tmp_path, capsys):
        from repro.__main__ import main

        good = tmp_path / "good.json"
        save_mix(str(good), [(build_plan("HELR"), 2)])
        assert main(["verify", "--serve", str(good)]) == 0
        out = capsys.readouterr().out
        assert "mix[0]" in out and "OK" in out

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            build_mix_payload([(_corrupted_plan(), 1)])
        ))
        assert main(["verify", "--serve", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_serve_banner_reaches_a_pipe_without_dash_u(self, tmp_path):
        """A parent reading the port from a pipe (block-buffered stdout,
        no ``python -u``) must see the ``serving on`` line at once."""
        import select
        import subprocess
        import sys

        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"),
                   PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "0", "--no-disk-cache"],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 30.0)
            assert ready, "no banner on the pipe within 30 s"
            line = proc.stdout.readline()
            assert "serving on " in line
            address = line.split("serving on ", 1)[1].split()[0]
            assert int(address.rsplit(":", 1)[1]) > 0
            proc.terminate()
            assert proc.wait(30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_serve_load_self_hosted_smoke(self, tmp_path, monkeypatch,
                                          capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        mix_path = tmp_path / "observed.json"
        code = main([
            "serve-load", "--duration", "0.5", "--concurrency", "4",
            "--connections", "2", "--workers", "0", "--distinct", "2",
            "--save-mix", str(mix_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "qps" in out
        entries = load_mix(str(mix_path))
        assert len(entries) == 2
