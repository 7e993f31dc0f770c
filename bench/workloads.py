"""The five workloads: what is set up, what one slice runs, what is checked.

A workload is driven by ``worker.py`` in a process of its own:
``setup()`` does everything that must precede the first measured op,
``run_slice(i)`` runs the i-th slice of the seeded op list and returns
one :class:`Op` per latency sample, ``check_slice`` verifies answers
outside the timed region, ``finish()`` runs the end-of-session checks.

Sizes are fixed work, not fixed time: ``UNIT_S`` is what one unit (the
thing ``per_slice`` counts) takes on the reference box, and the
orchestrator turns ``--seconds`` into units per slice with it, so the
same seed and ``--seconds`` run the same ops on every commit.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from common import BENCH, child_env, nearest_rank

#: An op that has not answered after this long is failed.
OP_TIMEOUT_S = 30.0


@dataclass
class Op:
    """One latency sample: ``count`` ops that shared it (a burst of 4
    plans, a batch pass of 8 ciphertexts), and whether they succeeded."""

    latency_ms: float
    limit_ms: float
    count: int = 1
    ok: bool = True


def expand(ops: Sequence[Op]) -> List[float]:
    """Per-op latencies: a sample shared by ``count`` ops counts that often."""
    return [op.latency_ms for op in ops for _ in range(op.count)]


def latency_percentiles(ops: Sequence[Op],
                        late_ms: Sequence[float] = ()) -> Dict[str, float]:
    """Pooled percentiles of a serve session, warm singles and bursts
    apart (diagnostic: too noisy to gate on)."""
    everything = expand(ops)
    out = {"loadgen.p95_ms": nearest_rank(everything, 0.95),
           "loadgen.p99_ms": nearest_rank(everything, 0.99)}
    hits = [op.latency_ms for op in ops if op.count == 1]
    bursts = [op.latency_ms for op in ops if op.count > 1]
    if hits:
        out["loadgen.hit_p50_ms"] = statistics.median(hits)
        out["loadgen.hit_p95_ms"] = nearest_rank(hits, 0.95)
    if bursts:
        out["loadgen.burst_p50_ms"] = statistics.median(bursts)
    if late_ms:
        out["loadgen.late_p99_ms"] = nearest_rank(late_ms, 0.99)
    return out


class CheckFailed(Exception):
    """An end-of-session invariant did not hold."""


def _no_span(name: str):
    return contextlib.nullcontext()


class Workload:
    name = ""
    #: Reference-box seconds per unit of ``per_slice``.
    UNIT_S = 1.0
    #: Smallest ``per_slice`` the metric definitions tolerate: an eighth
    #: of the workload's minimum op count.
    MIN_PER_SLICE = 1
    #: ``per_slice`` of the smoke run.
    SMOKE_PER_SLICE = 1
    #: ``per_slice`` is kept a multiple of this.
    PER_SLICE_STEP = 1
    #: Opens the root span of one op; the traced run swaps in the
    #: recorder's, every other run pays a null context.
    op_span = staticmethod(_no_span)

    def __init__(self, seed: int, per_slice: int, slices: int):
        self.seed = seed
        self.per_slice = per_slice
        self.slices = slices

    def setup(self) -> None:
        raise NotImplementedError

    def run_slice(self, index: int) -> List[Op]:
        raise NotImplementedError

    def check_slice(self, index: int, ops: List[Op]) -> None:
        """Verify the slice's answers (untimed); clear ``ok`` on bad ops."""

    def finish(self) -> Dict[str, object]:
        """End-of-session checks; returns exact counts and digests."""
        return {}

    def close(self) -> None:
        """Release everything ``setup`` started."""

    # -- tracing hooks (``--trace`` only) ----------------------------------------

    def trace_targets(self) -> str:
        """Which wrapper set ``tracing.install`` applies in this process."""
        return ""

    def enable_trace(self) -> None:
        """Switch an out-of-process part of the workload to its traced
        twin (the serve workloads restart their server traced)."""

    def collect_remote_spans(self) -> List[dict]:
        return []


# -- sweep_cold -----------------------------------------------------------------

#: The eight registered workloads, in the order that deals them their
#: machine points (see :class:`SweepCold`): neighbours share an SRAM band
#: and take their evks the opposite way.  BTS1 and BTS2, whose graphs cost
#: 4-6x more when they spill, start at 16 MB; the three programs, which
#: would share task graphs at one size, sit in three bands.  That makes 20
#: of a round's 32 plans heavy ones (60 ms and up) whatever the seed, so
#: the median plan is one of them and does not flip between two kinds.
SWEEP_WORKLOADS = ("BTS1", "BTS2", "BOOT", "BTS3",
                   "ARK", "HELR", "RESNET_BOOT", "DPRIVE")
SWEEP_VARIANTS = (("rpu", "MP"), ("rpu", "DC"), ("rpu", "OC"),
                  ("auto", "SOLVER"))
#: The paper sweeps 16, 32, 64 and 128 MB.  A machine point takes a whole
#: megabyte from a narrow band at one of them instead of the round size
#: itself, so that its task graphs are new to the schedule caches as well
#: as to the report caches; within a band what a plan costs is flat
#: (graphs spill below ~21 MB, which only the first band is).
SWEEP_SRAM_BANDS = (range(16, 20), range(30, 35), range(60, 69),
                    range(120, 129))
#: Below about 30 GB/s per unit of MODOPS scale a point is memory-bound:
#: the solver also searches a reordered graph and the point costs up to
#: twice as much.  About one point in nine of the swept ranges is; every
#: round gets exactly one, on the same workload (BTS3 first).
SWEEP_MEMORY_BOUND_GBS_PER_MODOPS = 30.0
SWEEP_MEMORY_BOUND_FIRST = SWEEP_WORKLOADS.index("BTS3")
#: The warm-up round's SRAM size, outside every band.
SWEEP_WARM_SRAM_MB = 144


class SweepCold(Workload):
    """Closed loop, in process: never-seen plans, one ``build_plan().run()``
    per op.

    A round is one machine point per registered workload, each run as
    MP, DC, OC and SOLVER: 32 plans.  Slice k runs ``per_slice`` rounds,
    one of each cycle c = 0, 1, ...; every slice holds the same deal, so
    that slices can be compared: in cycle c workload j has SRAM band
    ``(j // 2 + c) % 4`` and workload ``3 + c`` is the memory-bound one.
    From slice to slice only what keeps a point unseen changes: the evks
    are on chip for every other workload and the halves swap with each
    slice, and the size within the band moves on every second slice.
    """

    name = "sweep_cold"
    UNIT_S = 2.75  # one round; the minimum is 8 rounds = 256 plans
    LIMIT_MS = 1000.0

    def setup(self) -> None:
        from repro.api import plan as plan_module
        from repro.sched import COUNTERS

        # Looked up through the module on every op, so the traced run's
        # wrapper of build_plan is the one that gets called.
        self._plan_module = plan_module
        self._counters = COUNTERS
        rng = random.Random(self.seed)
        self.rounds = []
        count = len(SWEEP_WORKLOADS)
        for index in range(self.per_slice * self.slices):
            k, cycle = divmod(index, self.per_slice)
            points = []
            for j in range(count):
                band = SWEEP_SRAM_BANDS[(j // 2 + cycle) % len(SWEEP_SRAM_BANDS)]
                points.append({
                    **self._draw_rates(
                        rng, j == (SWEEP_MEMORY_BOUND_FIRST + cycle) % count),
                    # Dealt, not drawn: a workload meets a (size, evk) pair
                    # once (four sizes a band at the least, eight slices),
                    # and BOOT, HELR and RESNET_BOOT, which are made of the
                    # same specs and would share task graphs at one pair,
                    # sit in different bands.
                    "sram_mb": band[k // 2 % len(band)],
                    "evk_on_chip": (j + k) % 2 == 0,
                })
            self.rounds.append(points)
        self._digest = hashlib.sha256()
        self._reports: List[Tuple[int, str, str, object]] = []
        # One full round outside the measured bands: imports, lazy tables
        # and first-call caches are paid here, not in slice 1.
        self._run_round(-1, [{"bandwidth_gbs": 64.0, "modops_scale": 1.0,
                              "sram_mb": SWEEP_WARM_SRAM_MB,
                              "evk_on_chip": True}] * len(SWEEP_WORKLOADS))
        self._reports.clear()
        self._counters_at_start = dict(COUNTERS)

    @staticmethod
    def _draw_rates(rng: random.Random, memory_bound: bool) -> Dict[str, float]:
        """Bandwidth and MODOPS scale from the paper's ranges, redrawn until
        the point falls on the asked side of the roofline."""
        while True:
            bandwidth = rng.uniform(8.0, 512.0)
            modops = rng.uniform(0.25, 4.0)
            if (bandwidth < SWEEP_MEMORY_BOUND_GBS_PER_MODOPS * modops) \
                    == memory_bound:
                return {"bandwidth_gbs": bandwidth, "modops_scale": modops}

    def _run_round(self, index: int,
                   points: Sequence[Dict[str, object]]) -> List[Op]:
        ops = []
        for workload, options in zip(SWEEP_WORKLOADS, points):
            for backend, schedule in SWEEP_VARIANTS:
                start = time.perf_counter()
                try:
                    with self.op_span("plan"):
                        report = self._plan_module.build_plan(
                            workload, backend=backend, schedule=schedule,
                            **options).run()
                except Exception:  # noqa: BLE001 - a failed op, counted
                    report = None
                latency = (time.perf_counter() - start) * 1e3
                ops.append(Op(latency, self.LIMIT_MS, ok=report is not None))
                self._reports.append((index, workload, schedule, report))
        return ops

    def run_slice(self, index: int) -> List[Op]:
        ops: List[Op] = []
        first = index * self.per_slice
        for number in range(first, first + self.per_slice):
            ops.extend(self._run_round(number, self.rounds[number]))
        return ops

    def check_slice(self, index: int, ops: List[Op]) -> None:
        latency: Dict[Tuple[int, str], Dict[str, float]] = {}
        for op, (number, workload, schedule, report) in zip(ops, self._reports):
            if report is None:
                continue
            self._digest.update(json.dumps(
                self._plan_module.report_to_dict(report),
                sort_keys=True).encode())
            latency.setdefault((number, workload), {})[schedule] = \
                report.latency_ms
        # The solver evaluates MP/DC/OC exactly, so it can never be worse.
        for op, (number, workload, schedule, _r) in zip(ops, self._reports):
            row = latency.get((number, workload), {})
            if schedule == "SOLVER" and len(row) == len(SWEEP_VARIANTS):
                best = min(row[s] for _b, s in SWEEP_VARIANTS[:3])
                if row["SOLVER"] > best * (1 + 1e-12):
                    op.ok = False
        self._reports.clear()

    def finish(self) -> Dict[str, object]:
        delta = {k: self._counters[k] - self._counters_at_start[k]
                 for k in ("searches", "exact_evals", "disk_hits")}
        if delta["disk_hits"]:
            raise CheckFailed(
                f"sched disk_hits = {delta['disk_hits']} on a fresh cache dir")
        return {
            "result_digest": self._digest.hexdigest(),
            "counts": {f"sched.{k}": int(v) for k, v in delta.items()},
        }

    def trace_targets(self) -> str:
        return "estimate"


# -- serve_hot / serve_churn ----------------------------------------------------

HOT_WORKLOADS = ("HELR", "BOOT", "RESNET_BOOT", "ARK")
HOT_BANDWIDTHS = (16.0, 64.0, 256.0, 1024.0)
BURST_BENCHMARKS = ("ARK", "BTS1", "BTS2", "BTS3", "DPRIVE")
WARM_REQUESTS = 200
SERVER_ARGS = ("serve", "--port", "0", "--workers", "2",
               "--idle-warm-after", "100000")


class _Server:
    """``python -m repro serve`` as a subprocess, always torn down."""

    def __init__(self, traced: bool = False):
        cache_dir = os.environ["REPRO_CACHE_DIR"]
        self.span_file = None
        if traced:
            # The traced twin starts as cold as the server it replaces.
            cache_dir = os.path.join(cache_dir, "traced")
            os.mkdir(cache_dir)
            self.span_file = os.path.join(cache_dir, "server_spans.json")
            argv = [sys.executable, "-u", str(BENCH / "traced_server.py")]
        else:
            argv = [sys.executable, "-u", "-m", "repro"]
        env = child_env(cache_dir)
        if traced:
            env["BENCH_SPAN_FILE"] = self.span_file
        self.proc = subprocess.Popen(
            argv + list(SERVER_ARGS), stdout=subprocess.PIPE, env=env,
            text=True,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        if "serving on " not in line:
            raise RuntimeError(f"server did not start (said {line!r})")
        address = line.split("serving on ", 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def stop(self) -> None:
        """terminate -> wait -> kill; SIGTERM makes the server drain and
        close its shard pool, which reaps the pool workers."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class _ServeBase(Workload):
    """Shared set-up of the two wire workloads: a server subprocess, two
    connections, 16 pre-warmed hot plans, 200 warm requests."""

    HOT_LIMIT_MS = 50.0
    CONNECTIONS = 2

    def setup(self) -> None:
        from repro.api.plan import build_plan
        from repro.net.client import EstimateClient

        self._build_plan = build_plan
        self._client_cls = EstimateClient
        self.loop = asyncio.new_event_loop()
        self.rng = random.Random(self.seed)
        self.hot = [
            build_plan(w, backend="rpu", schedule="OC", bandwidth_gbs=bw)
            for w in HOT_WORKLOADS for bw in HOT_BANDWIDTHS
        ]
        self.server: Optional[_Server] = None
        self.clients: list = []
        #: (plan, reply, op) of every answered op, until the slice is checked.
        self.replies: List[Tuple[object, object, Op]] = []
        #: plan digest -> the in-process ``plan.run()`` report.
        self._expected: Dict[str, object] = {}
        #: Every op since the (traced) server started, for the percentiles.
        self.pooled: List[Op] = []
        self.late_ms: List[float] = []
        self.expected_computed = 0
        self._start(traced=False)

    def _start(self, traced: bool) -> None:
        self.server = _Server(traced=traced)
        self.loop.run_until_complete(self._connect_and_warm())

    async def _connect_and_warm(self) -> None:
        self.clients = [
            await self._client_cls("127.0.0.1", self.server.port,
                                   timeout=OP_TIMEOUT_S).connect()
            for _ in range(self.CONNECTIONS)
        ]
        await self.clients[0].estimate_many(self.hot)
        self.expected_computed = len(self.hot)
        await self._warm_more()
        per_conn = WARM_REQUESTS // self.CONNECTIONS
        for client in self.clients:
            for i in range(per_conn):
                await client.estimate(self.hot[i % len(self.hot)])
        status = await self.clients[0].status()
        self._server_at_start = dict(status["server"])
        self._service_at_start = dict(status["service"])

    async def _warm_more(self) -> None:
        """Workload-specific warm-up, before the warm requests."""

    async def _timed(self, client, plans: Sequence[object], due: float,
                     limit_ms: float) -> Op:
        """One op (or one burst): ask, time from ``due``, keep the reply."""
        try:
            with self.op_span("estimate" if len(plans) == 1 else "burst"):
                if len(plans) == 1:
                    replies = [await asyncio.wait_for(
                        client.estimate(plans[0]), OP_TIMEOUT_S)]
                else:
                    replies = await asyncio.wait_for(
                        client.estimate_many(plans), OP_TIMEOUT_S)
        except Exception:  # noqa: BLE001 - refused, timed out or broken
            replies = None
        op = Op((time.perf_counter() - due) * 1e3, limit_ms,
                count=len(plans), ok=replies is not None)
        if replies is not None:
            for plan, reply in zip(plans, replies):
                self.replies.append((plan, reply, op))
        return op

    def check_slice(self, index: int, ops: List[Op]) -> None:
        """Every reply must equal the in-process ``plan.run()`` report."""
        from repro.api.plan import report_to_dict

        for plan, reply, op in self.replies:
            want = self._expected.get(plan.digest)
            if want is None:
                want = self._expected[plan.digest] = plan.run()
            if reply != want and \
                    report_to_dict(reply) != report_to_dict(want):
                op.ok = False
        self.replies.clear()
        self.pooled.extend(ops)

    def finish(self) -> Dict[str, object]:
        status = self.loop.run_until_complete(self.clients[0].status())
        server, service = status["server"], status["service"]
        problems = []
        if service["computed"] != self.expected_computed:
            problems.append(f"service.computed = {service['computed']}, "
                            f"expected {self.expected_computed}")
        for key in ("failed", "protocol_errors"):
            if server[key]:
                problems.append(f"server.{key} = {server[key]}")
        if problems:
            raise CheckFailed("; ".join(problems))
        counts = {
            f"serve.{k}": service[k] - self._service_at_start[k]
            for k in ("computed", "memory_hits", "batch_hits", "disk_hits")
        }
        counts["net.deferred"] = sum(
            server[k] - self._server_at_start[k]
            for k in ("rejected_rate", "rejected_quota"))
        for key in ("rejected_backpressure", "protocol_errors"):
            counts[f"net.{key}"] = server[key] - self._server_at_start[key]
        return {"counts": counts,
                "percentiles": latency_percentiles(self.pooled, self.late_ms)}

    def _stop(self) -> None:
        async def _close() -> None:
            for client in self.clients:
                await client.close()
        if self.clients:
            self.loop.run_until_complete(_close())
            self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        try:
            self._stop()
        finally:
            self.loop.close()

    # -- tracing ----------------------------------------------------------------

    def trace_targets(self) -> str:
        return "client"

    def enable_trace(self) -> None:
        """Swap the server for its traced twin (fresh caches, same warm-up)."""
        self.finish()  # the untraced server's invariants, before it goes
        self._stop()
        self.pooled.clear()
        self.late_ms.clear()
        self._start(traced=True)

    def collect_remote_spans(self) -> List[dict]:
        span_file = self.server.span_file if self.server else None
        self._stop()  # the traced server writes its spans on the way out
        if span_file is None or not os.path.exists(span_file):
            return []
        with open(span_file, encoding="utf-8") as handle:
            return json.load(handle)


class ServeHot(_ServeBase):
    """Closed loop: 2 connections x 1 in flight, warm plans only."""

    name = "serve_hot"
    UNIT_S = 0.0029  # one estimate() of a warm plan, two in flight
    MIN_PER_SLICE = 500  # 4 000 ops
    SMOKE_PER_SLICE = 100
    PER_SLICE_STEP = 2  # both connections run the same number of ops

    def run_slice(self, index: int) -> List[Op]:
        share = self.per_slice // self.CONNECTIONS
        picks = [[self.hot[self.rng.randrange(len(self.hot))]
                  for _ in range(share)] for _ in self.clients]

        async def one_connection(client, plans) -> List[Op]:
            ops = []
            for plan in plans:
                ops.append(await self._timed(
                    client, [plan], time.perf_counter(), self.HOT_LIMIT_MS))
            return ops

        async def both() -> List[List[Op]]:
            return await asyncio.gather(*(
                one_connection(c, p) for c, p in zip(self.clients, picks)))

        return [op for ops in self.loop.run_until_complete(both())
                for op in ops]


class ServeChurn(_ServeBase):
    """Open loop: arrivals on a fixed 100/s schedule; every 40th is a burst
    of 4 never-seen plans, the rest are warm singles."""

    name = "serve_churn"
    RATE_PER_S = 100.0
    BURST_EVERY = 40
    BURST_PLANS = 4
    BURST_LIMIT_MS = 250.0
    UNIT_S = 1.0 / RATE_PER_S  # one arrival
    MIN_PER_SLICE = 4 * BURST_EVERY  # 1 280 arrivals: the least over 1 000
    SMOKE_PER_SLICE = 2 * BURST_EVERY
    PER_SLICE_STEP = BURST_EVERY  # every slice holds whole burst periods

    def setup(self) -> None:
        self._seen_bandwidths: set = set()
        self._bursts = 0
        super().setup()
        # Which benchmark a burst sweeps: a seeded order, cycled, so any
        # window of five bursts holds each Table III benchmark once.
        self._burst_order = list(BURST_BENCHMARKS)
        self.rng.shuffle(self._burst_order)

    def _burst_plans(self, benchmark: str) -> list:
        plans = []
        while len(plans) < self.BURST_PLANS:
            bandwidth = round(self.rng.uniform(8.0, 512.0), 3)
            if (benchmark, bandwidth) in self._seen_bandwidths:
                continue
            self._seen_bandwidths.add((benchmark, bandwidth))
            plans.append(self._build_plan(
                benchmark, backend="rpu", schedule="OC",
                bandwidth_gbs=bandwidth))
        return plans

    async def _warm_more(self) -> None:
        # One burst per benchmark, so both pool workers have built each
        # benchmark's task graph before slice 1 (4 plans over 2 workers).
        for benchmark in BURST_BENCHMARKS:
            await self.clients[0].estimate_many(self._burst_plans(benchmark))
            self.expected_computed += self.BURST_PLANS

    def run_slice(self, index: int) -> List[Op]:
        arrivals = []
        for slot in range(self.per_slice):
            if slot % self.BURST_EVERY == self.BURST_EVERY - 1:
                benchmark = self._burst_order[
                    self._bursts % len(self._burst_order)]
                self._bursts += 1
                arrivals.append((self._burst_plans(benchmark),
                                 self.BURST_LIMIT_MS))
                self.expected_computed += self.BURST_PLANS
            else:
                arrivals.append((
                    [self.hot[self.rng.randrange(len(self.hot))]],
                    self.HOT_LIMIT_MS))
        return self.loop.run_until_complete(self._open_loop(arrivals))

    async def _open_loop(self, arrivals) -> List[Op]:
        start = time.perf_counter() + 0.005
        tasks = []
        for slot, (plans, limit_ms) in enumerate(arrivals):
            due = start + slot / self.RATE_PER_S
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late_ms.append((time.perf_counter() - due) * 1e3)
            client = self.clients[slot % len(self.clients)]
            tasks.append(asyncio.ensure_future(
                self._timed(client, plans, due, limit_ms)))
        return list(await asyncio.gather(*tasks))


# -- fhe_boot / fhe_hks_batch ---------------------------------------------------

class FheBoot(Workload):
    """Closed loop, in process: solo bootstraps of one level-0 ciphertext."""

    name = "fhe_boot"
    UNIT_S = 0.33  # one bootstrap
    MIN_PER_SLICE = 6  # 48 bootstraps
    LIMIT_MS = 1000.0
    MAX_ERROR = 1e-2
    OUT_LEVEL = 5

    def setup(self) -> None:
        import numpy as np

        from repro import FHESession

        self._np = np
        self.session = FHESession.create("n7_boot", seed=self.seed)
        rng = np.random.default_rng(self.seed)
        self.values = rng.uniform(-0.2, 0.2, self.session.num_slots)
        self.ct = self.session.encrypt(self.values, level=0)
        self.session.bootstrap_keys()
        for _ in range(2):
            self.ct.bootstrap()
        self._outputs: list = []
        self.max_error = 0.0

    def run_slice(self, index: int) -> List[Op]:
        ops = []
        for _ in range(self.per_slice):
            start = time.perf_counter()
            try:
                with self.op_span("bootstrap"):
                    out = self.ct.bootstrap()
            except Exception:  # noqa: BLE001 - a failed op, counted
                out = None
            ops.append(Op((time.perf_counter() - start) * 1e3,
                          self.LIMIT_MS, ok=out is not None))
            self._outputs.append(out)
        return ops

    def check_slice(self, index: int, ops: List[Op]) -> None:
        np = self._np
        for op, out in zip(ops, self._outputs):
            if out is None:
                continue
            error = float(np.max(np.abs(out.decrypt() - self.values)))
            self.max_error = max(self.max_error, error)
            if out.level != self.OUT_LEVEL or not error <= self.MAX_ERROR:
                op.ok = False
        self._outputs.clear()

    def finish(self) -> Dict[str, object]:
        return {"max_error": repr(self.max_error)}

    def trace_targets(self) -> str:
        return "functional"


class FheHksBatch(Workload):
    """Closed loop, in process: B=8 stacked passes of a depth-2 circuit at
    N = 2^12; a pass is 8 ops sharing its latency."""

    name = "fhe_hks_batch"
    UNIT_S = 0.97  # one pass
    MIN_PER_SLICE = 2  # 16 passes
    BATCH = 8
    LIMIT_MS = 2000.0
    MAX_ERROR = 0.05

    def setup(self) -> None:
        import numpy as np

        from repro import FHESession

        self._np = np
        self.session = FHESession.create("n10_fast", n=1 << 12,
                                         seed=self.seed)
        rng = np.random.default_rng(self.seed)
        shape = (self.BATCH, self.session.num_slots)
        self.a = rng.uniform(-1.0, 1.0, shape)
        self.b = rng.uniform(-1.0, 1.0, shape)
        self.ct_a = self.session.encrypt_batch(self.a)
        self.ct_b = self.session.encrypt_batch(self.b)
        y = self.a * self.b
        for step in (1, 2, 4):
            y = y + np.roll(y, -step, axis=-1)
        self.reference = y * self.a
        self._circuit(self.ct_a, self.ct_b)  # keys, tables, buffers
        self._outputs: list = []
        self.max_error = 0.0

    @staticmethod
    def _circuit(a, b):
        y = a * b
        y = y + (y << 1)
        y = y + (y << 2)
        y = y + (y << 4)
        return y * a

    def run_slice(self, index: int) -> List[Op]:
        ops = []
        for _ in range(self.per_slice):
            start = time.perf_counter()
            try:
                with self.op_span("pass"):
                    out = self._circuit(self.ct_a, self.ct_b)
            except Exception:  # noqa: BLE001 - a failed pass, counted
                out = None
            ops.append(Op((time.perf_counter() - start) * 1e3,
                          self.LIMIT_MS, count=self.BATCH,
                          ok=out is not None))
            self._outputs.append(out)
        return ops

    def check_slice(self, index: int, ops: List[Op]) -> None:
        np = self._np
        for op, out in zip(ops, self._outputs):
            if out is None:
                continue
            error = float(np.max(np.abs(out.decrypt() - self.reference)))
            self.max_error = max(self.max_error, error)
            if not error <= self.MAX_ERROR:
                op.ok = False
        self._outputs.clear()

    def finish(self) -> Dict[str, object]:
        return {"max_error": repr(self.max_error)}

    def trace_targets(self) -> str:
        return "functional"


WORKLOADS = {cls.name: cls for cls in
             (SweepCold, ServeHot, ServeChurn, FheBoot, FheHksBatch)}
