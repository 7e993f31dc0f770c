"""Stand-alone layer probes: one public function at a time, timed from outside.

Run by ``run.py --trace`` as ``probes.py WORKLOAD...`` in a process of
its own with an empty cache directory.  Each probe calls a layer's public
entry point on the shapes the workloads use and reports the median of a
few repeats.  A probe runs only if one of the named workloads spends time
in the layers it times.  Prints one JSON object
``{"workload": {"metric": value}}``.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
import time
from typing import Callable, Dict, List

from workloads import ServeHot


def timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def median_of(fn: Callable[[], object], repeats: int) -> float:
    return statistics.median(timed(fn) for _ in range(repeats))


def model(out: Dict[str, float]) -> None:
    """What a cold plan costs: build, verify, task graph, simulate, solve."""
    from repro.analysis import analyze
    from repro.api.plan import build_plan
    from repro.core import DataflowConfig, get_dataflow
    from repro.params import MB, get_benchmark
    from repro.rpu import RPUConfig, RPUSimulator
    from repro.sched import solve_workload
    from repro.workloads import get_workload

    # api: build + digest of never-seen plans.
    counter = iter(range(1, 10 ** 6))

    def build_one() -> None:
        build_plan("HELR", backend="rpu", schedule="OC",
                   bandwidth_gbs=100.0 + next(counter) / 64.0).digest

    out["api.plan_build_us"] = median_of(build_one, 200) * 1e6

    # analysis: one admission check per distinct plan.
    fresh = [build_plan(name, backend="rpu", schedule="OC",
                        bandwidth_gbs=40.0 + i)
             for i, name in enumerate(("HELR", "BOOT", "RESNET_BOOT", "ARK",
                                       "BTS1", "BTS2", "BTS3", "DPRIVE"))]
    out["analysis.verify_ms"] = statistics.median(
        timed(lambda p=p: analyze(p)) for p in fresh) * 1e3

    # core + rpu: build and simulate the OC graph of ARK and of HELR's
    # top-level spec, at SRAM sizes no cache has seen.
    specs = [get_benchmark("ARK"), get_workload("HELR").phases[0].spec]
    builds: List[float] = []
    sims: List[float] = []
    tasks = 0
    simulator = RPUSimulator(RPUConfig())
    for i, spec in enumerate(specs * 2):
        config = DataflowConfig(data_sram_bytes=(33 + i) * MB)
        start = time.perf_counter()
        graph = get_dataflow("OC").build(spec, config)
        builds.append(time.perf_counter() - start)
        sims.append(timed(lambda g=graph: simulator.simulate(g)))
        if i < len(specs):
            tasks += len(graph.tasks)
    out["core.graph_build_ms"] = statistics.median(builds) * 1e3
    out["core.graph_tasks"] = tasks
    out["rpu.simulate_ms"] = statistics.median(sims) * 1e3
    out["rpu.tasks_per_host_s"] = tasks / sum(sims[:len(specs)])

    # sched: one cold solve per registered workload.
    names = ("ARK", "BTS1", "BTS2", "BTS3", "DPRIVE",
             "BOOT", "HELR", "RESNET_BOOT")
    out["sched.solve_ms"] = statistics.median(
        timed(lambda n=n: solve_workload(n)) for n in names) * 1e3


def serving(out: Dict[str, float]) -> None:
    """What the server does around the model: codecs, caches, the
    in-process service and its pool."""
    from repro import cache
    from repro.api.plan import (
        Plan, build_plan, report_from_dict, report_to_dict,
    )
    from repro.net.protocol import decode_frames, encode_frame, ok_payload
    from repro.serve import EstimateService
    from repro.serve.pool import ShardPool

    # api: the two wire codecs.
    helr = build_plan("HELR", backend="rpu", schedule="OC")
    out["api.plan_codec_us"] = median_of(
        lambda: Plan.from_json(helr.to_json()), 50) * 1e6
    report = helr.run()
    out["api.report_codec_us"] = median_of(
        lambda: report_from_dict(json.loads(json.dumps(
            report_to_dict(report)))), 50) * 1e6

    # cache: one report in, one report out.
    payload = {"model_version": "probe", "report": report_to_dict(report)}
    keys = iter(f"probe{i:04d}" for i in range(10 ** 4))
    stored: List[str] = []

    def store_one() -> None:
        stored.append(next(keys))
        cache.store_json("report", stored[-1], payload)

    out["cache.store_us"] = median_of(store_one, 20) * 1e6
    loads = iter(stored)
    out["cache.load_us"] = median_of(
        lambda: cache.load_json("report", next(loads)), 20) * 1e6

    # serve, in process: a warm hit; a miss beside the bare run.
    with EstimateService(workers=0, disk_cache=False) as service:
        service.estimate(helr)

        def hit() -> None:
            handle = service.submit(helr)
            service.gather()
            handle.result()

        out["serve.hit_us"] = median_of(hit, 200) * 1e6
        cold = [build_plan("BTS3", backend="rpu", schedule="OC",
                           bandwidth_gbs=70.0 + i) for i in range(8)]
        bare = statistics.median(timed(p.run) for p in cold[:4])
        miss = statistics.median(
            timed(lambda p=p: service.estimate(p)) for p in cold[4:])
        out["serve.miss_overhead_ms"] = (miss - bare) * 1e3

    # serve, across the pool: 4 cold plans dispatched against the same 4
    # kinds run in process (the pool's workers are started beforehand).
    def burst(offset: float) -> list:
        return [build_plan(name, backend="rpu", schedule="OC",
                           bandwidth_gbs=offset + i)
                for i, name in enumerate(("ARK", "BTS1", "BTS3", "DPRIVE"))]

    with ShardPool(2) as pool:
        pool.run_plans(burst(200.0))  # fork, import, first graphs
        for plan in burst(210.0):
            plan.run()
        pooled = statistics.median(
            timed(lambda k=k: pool.run_plans(burst(220.0 + 10 * k)))
            for k in range(3))
        inline = statistics.median(
            timed(lambda k=k: [p.run() for p in burst(320.0 + 10 * k)])
            for k in range(3))
        out["serve.pool_dispatch_ms"] = (pooled - inline) * 1e3

    # net: the codec of a gather reply that carries a HELR report.
    reply = ok_payload(7, results=[{"ticket": "t1", "ok": True,
                                    "report": report_to_dict(report)}])
    out["net.frame_codec_us"] = median_of(
        lambda: decode_frames(encode_frame(reply)), 50) * 1e6


def wire(out: Dict[str, float]) -> None:
    """One warm request on an idle connection, and its two halves."""
    hot = ServeHot(seed=0, per_slice=ServeHot.SMOKE_PER_SLICE, slices=1)
    hot.setup()
    try:
        client, helr = hot.clients[0], hot.hot[0]

        async def idle_requests() -> None:
            submits, gathers = [], []
            for _ in range(100):
                start = time.perf_counter()
                ticket = await client.submit(helr)
                middle = time.perf_counter()
                await client.gather([ticket])
                gathers.append(time.perf_counter() - middle)
                submits.append(middle - start)
                await asyncio.sleep(0.002)  # idle connection, not a loop
            out["net.submit_ms"] = statistics.median(submits) * 1e3
            out["net.gather_ms"] = statistics.median(gathers) * 1e3
            out["net.rtt_hit_ms"] = statistics.median(
                s + g for s, g in zip(submits, gathers)) * 1e3

        hot.loop.run_until_complete(idle_requests())
    finally:
        hot.close()


def kernels(out: Dict[str, float]) -> None:
    """Forward NTT per tower where dispatch dominates (n7_boot's ring) and
    where arithmetic does (the batch workload's ring)."""
    import numpy as np

    from repro import FHESession
    from repro.ntt.batch import get_batch_ntt

    rng = np.random.default_rng(0)
    boot = FHESession.create("n7_boot").context
    moduli = tuple((boot.q_basis.moduli + boot.p_basis.moduli)[:21])
    stack = np.stack([rng.integers(0, q, boot.params.n) for q in moduli])
    ntt = get_batch_ntt(boot.params.n, moduli)
    ntt.forward(stack)
    out["ntt.us_per_tower.n7"] = \
        median_of(lambda: ntt.forward(stack), 200) * 1e6 / len(moduli)

    wide = FHESession.create("n10_fast", n=1 << 12).context
    moduli = tuple(wide.q_basis.moduli)
    batch = np.stack([np.stack([rng.integers(0, q, wide.params.n) for q in moduli])
                      for _ in range(8)])
    ntt = get_batch_ntt(wide.params.n, moduli)
    ntt.forward(batch)
    out["ntt.us_per_tower.n12"] = \
        median_of(lambda: ntt.forward(batch), 10) * 1e6 / (8 * len(moduli))


#: Each probe with the workloads that run the layers it times.
PROBES = (
    (model, ("sweep_cold", "serve_churn")),
    (serving, ("serve_hot", "serve_churn")),
    (wire, ("serve_hot", "serve_churn")),
    (kernels, ("fhe_boot", "fhe_hks_batch")),
)


def main() -> int:
    traced = set(sys.argv[1:])
    out: Dict[str, Dict[str, float]] = {name: {} for name in traced}
    for probe, workloads in PROBES:
        applies = traced.intersection(workloads)
        if applies:
            metrics: Dict[str, float] = {}
            probe(metrics)
            for name in applies:
                out[name].update(metrics)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
