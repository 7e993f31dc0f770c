"""Differential oracles for the columnar task-graph path.

The columnar ``TaskGraph`` replaced per-``Task`` object walks in the
builder, the simulator and the schedule profilers.  These tests hold the
new code to the implementation it replaced:

* the two-``deque`` replay loop the simulator used to run lives here as
  the oracle, and random two-queue DAGs (deadlocking ones included) must
  simulate to the same ``SimResult``, float for float;
* the scan-every-value victim search lives here as a builder subclass,
  and random builder programs under tight budgets must evict the same
  victims and emit the same graph;
* the scan-every-candidate list scheduler lives here as a function, and
  the heap-driven one must re-list random DAGs and the golden points'
  MP/DC/OC graphs into the same graph (or decline the same ones);
* report and schedule digests of the registered workloads are pinned to
  values computed **at the parent commit** (``golden/estimate_digests.json``);
* row views, columns and the JSON form agree.
"""

import hashlib
import json
from collections import deque
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api import build_plan
from repro.api.plan import report_to_dict
from repro.core import DataflowConfig, get_dataflow
from repro.core.dataflow import Dataflow, ScheduleBuilder
from repro.core.hks_ops import bconv_chunk_len, max_bconv_sources, pin_capacity
from repro.core.stages import OpCount
from repro.core.taskgraph import DATA_TAG, EVK_TAG, Kind, Queue, TaskGraph
from repro.errors import MemoryModelError, SimulationError
from repro.params import MB, BenchmarkSpec
from repro.rpu import RPUConfig, RPUSimulator
from repro.rpu.simulator import SimResult, TaskTiming, lower_bounds
from repro.sched import (
    Objective,
    clear_memos,
    decision_graph,
    schedule_digest,
    solver,
)
from repro.sched.list_scheduler import (
    MAX_REORDER_TASKS,
    _sink_priorities,
    reorder_for_latency,
)
from repro.sched.memo import MODEL_CACHE_ENTRIES, MODEL_MEMOS
from repro.core.dataflow import Dataflow as DecisionDataflow
from repro.sched.space import HKSDecision, enumerate_decisions
from repro.workloads import resolve_workload

GOLDEN = Path(__file__).parent / "golden" / "estimate_digests.json"


# -- (a) the simulator oracle ---------------------------------------------------


def oracle_task_duration(cfg: RPUConfig, task) -> float:
    """The per-task cost model as it was written over ``Task`` objects."""
    if task.queue is Queue.MEMORY:
        return cfg.memory_latency_s + task.bytes_moved / cfg.bandwidth_bytes_per_s
    throughput = cfg.effective_modops_per_s * cfg.kernel_efficiency(
        task.kind.value
    )
    modops_time = task.mod_ops / throughput
    issue_time = (task.mod_ops / cfg.vector_length) / cfg.frequency_hz
    return max(modops_time, issue_time)


def oracle_simulate(cfg: RPUConfig, graph: TaskGraph,
                    collect_trace: bool = False) -> SimResult:
    """The parent commit's replay: two deques of ``Task`` rows."""
    tasks = list(graph.tasks)
    finish = [None] * len(tasks)
    queues = {
        Queue.MEMORY: deque(t for t in tasks if t.queue is Queue.MEMORY),
        Queue.COMPUTE: deque(t for t in tasks if t.queue is Queue.COMPUTE),
    }
    free = {Queue.MEMORY: 0.0, Queue.COMPUTE: 0.0}
    busy = {Queue.MEMORY: 0.0, Queue.COMPUTE: 0.0}
    timeline = [] if collect_trace else None

    while queues[Queue.MEMORY] or queues[Queue.COMPUTE]:
        progressed = False
        for q in (Queue.MEMORY, Queue.COMPUTE):
            if not queues[q]:
                continue
            head = queues[q][0]
            if any(finish[d] is None for d in head.deps):
                continue
            deps_ready = max((finish[d] for d in head.deps), default=0.0)
            start = max(free[q], deps_ready)
            duration = oracle_task_duration(cfg, head)
            end = start + duration
            finish[head.index] = end
            free[q] = end
            busy[q] += duration
            queues[q].popleft()
            if collect_trace:
                timeline.append(
                    TaskTiming(head.index, head.kind.value, head.label, start, end)
                )
            progressed = True
        if not progressed:
            stuck = [queues[q][0].index for q in queues if queues[q]]
            raise SimulationError(
                f"queues deadlocked at task(s) {stuck}: a queue head "
                "depends on a later task in the other queue"
            )

    def tagged(tag=None):
        return sum(t.bytes_moved for t in tasks if t.queue is Queue.MEMORY
                   and (tag is None or t.traffic_tag == tag))

    return SimResult(
        runtime_s=max(free.values()),
        compute_busy_s=busy[Queue.COMPUTE],
        memory_busy_s=busy[Queue.MEMORY],
        total_bytes=tagged(),
        data_bytes=tagged(DATA_TAG),
        evk_bytes=tagged(EVK_TAG),
        total_modops=sum(t.mod_ops for t in tasks),
        num_tasks=len(tasks),
        config=cfg,
        timeline=timeline,
    )


@st.composite
def two_queue_dags(draw):
    """A random schedule: random kinds, sizes and 0-4 backward deps."""
    graph = TaskGraph("random")
    for index in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(list(Kind)))
        deps = draw(st.lists(st.integers(0, index - 1), max_size=4)) \
            if index else []
        if kind.queue is Queue.MEMORY:
            graph.add(kind, bytes_moved=draw(st.integers(1, 1 << 24)),
                      deps=deps, label=f"{kind.value} b{index}",
                      traffic_tag=draw(st.sampled_from([DATA_TAG, EVK_TAG])))
        else:
            muls = draw(st.integers(0, 1 << 22))
            graph.add(kind, mod_muls=muls,
                      mod_adds=draw(st.integers(0 if muls else 1, 1 << 22)),
                      deps=deps, label=f"{kind.value} ->b{index}")
    return graph


@st.composite
def corrupted_dags(draw):
    """A random schedule with hand-written forward (or self) deps —
    what ``TaskGraph.add`` refuses and only column mutation produces."""
    graph = draw(two_queue_dags())
    n = len(graph)
    for _ in range(draw(st.integers(1, 3)) if n else 0):
        i = draw(st.integers(0, n - 1))
        graph.deps[i] = tuple(sorted(
            set(graph.deps[i]) | {draw(st.integers(i, n - 1))}))
    return graph


machine_points = st.builds(
    lambda gbs, scale, eff, streamed: RPUConfig(
        bandwidth_bytes_per_s=gbs * 1e9, modops_scale=scale,
        key_sram_bytes=0 if streamed else 360 * MB,
        kind_efficiency=eff,
    ),
    gbs=st.floats(8.0, 512.0),
    scale=st.floats(0.25, 4.0),
    eff=st.one_of(st.none(), st.fixed_dictionaries(
        {"ntt": st.floats(0.3, 1.0), "bconv": st.floats(0.3, 1.5)})),
    streamed=st.booleans(),
)


def _both(cfg, graph, collect_trace):
    outcomes = []
    for run in (lambda: RPUSimulator(cfg).simulate(graph, collect_trace),
                lambda: oracle_simulate(cfg, graph, collect_trace)):
        try:
            outcomes.append(run())
        except SimulationError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestSimulatorOracle:
    @given(graph=two_queue_dags(), cfg=machine_points, trace=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_valid_graphs_replay_identically(self, graph, cfg, trace):
        new, old = _both(cfg, graph, trace)
        assert isinstance(new, SimResult)
        assert new == old  # every float with ==, timeline entries included

    @given(graph=corrupted_dags(), cfg=machine_points, trace=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_forward_deps_deadlock_on_the_same_graphs(self, graph, cfg, trace):
        new, old = _both(cfg, graph, trace)
        assert new == old  # the same result, or the same deadlock message

    def test_a_cross_queue_forward_dep_is_not_a_deadlock(self):
        # Task 0 (compute) waits on task 1 (memory): emission order is
        # violated but the memory queue can run ahead, as it always could.
        graph = TaskGraph("forward")
        graph.add(Kind.NTT, mod_muls=1000)
        graph.add(Kind.LOAD, bytes_moved=4096)
        graph.deps[0] = (1,)
        new, old = _both(RPUConfig(), graph, True)
        assert isinstance(new, SimResult) and new == old
        graph.deps[1] = (0,)
        new, old = _both(RPUConfig(), graph, False)
        assert isinstance(new, str) and new == old

    @given(graph=two_queue_dags(), cfg=machine_points)
    @settings(max_examples=100, deadline=None)
    def test_durations_and_bounds_match_the_row_cost_model(self, graph, cfg):
        sim = RPUSimulator(cfg)
        rows = list(graph.tasks)
        expected = [oracle_task_duration(cfg, t) for t in rows]
        assert sim.durations(graph) == expected
        assert [sim.task_duration(t) for t in rows] == expected
        mem = comp = 0.0
        for t, d in zip(rows, expected):
            if t.queue is Queue.MEMORY:
                mem += d
            else:
                comp += d
        assert lower_bounds(graph, cfg) == (mem, comp)


# -- (b) the builder oracle -------------------------------------------------------


class ScanAllBuilder(ScheduleBuilder):
    """The parent commit's victim search: list-scan every value ever
    defined, in the dictionary order it kept (a redefined name moved to
    the end), and take the first ``min`` by (priority, last_use)."""

    def _define(self, name, nbytes):
        self.values.pop(name, None)
        return super()._define(name, nbytes)

    def _pick_victim(self):
        candidates = [v for v in self.values.values()
                      if v.on_chip and not v.locked and not v.freed]
        scan = (min(candidates, key=lambda v: (v.priority, v.last_use))
                if candidates else None)
        assert scan is super()._pick_victim()
        return scan


NAMES = [f"v{i}" for i in range(8)]
UNIT = 64

builder_ops = st.lists(st.one_of(
    st.tuples(st.just("define"), st.sampled_from(NAMES), st.integers(1, 3),
              st.sampled_from([DATA_TAG, EVK_TAG])),
    st.tuples(st.just("compute"),
              st.sampled_from([Kind.NTT, Kind.BCONV, Kind.MULKEY]),
              st.lists(st.sampled_from(NAMES), max_size=3, unique=True),
              st.lists(st.tuples(st.sampled_from(NAMES), st.integers(1, 3)),
                       min_size=1, max_size=2, unique_by=lambda o: o[0]),
              st.integers(0, 3)),
    st.tuples(st.just("free"), st.sampled_from(NAMES)),
    st.tuples(st.just("writeback"), st.sampled_from(NAMES)),
    st.tuples(st.just("priority"), st.sampled_from(NAMES), st.integers(0, 3)),
    st.tuples(st.just("touch"), st.sampled_from(NAMES)),
), max_size=60)


def _drive(builder, ops):
    """Run a builder program; returns the per-step outcomes."""
    outcomes = []
    for op in ops:
        try:
            if op[0] == "define":
                builder.define_dram(op[1], op[2] * UNIT, op[3])
            elif op[0] == "compute":
                builder.compute(
                    op[1], op[2], [(n, u * UNIT) for n, u in op[3]],
                    OpCount(muls=7, adds=3), label=f"k ->{op[3][0][0]}",
                    output_priority=op[4])
            elif op[0] == "free":
                builder.free(op[1])
            elif op[0] == "writeback":
                builder.writeback(op[1])
            elif op[0] == "priority":
                builder.set_priority(op[1], op[2])
            else:
                builder.touch(op[1])
            outcomes.append("ok")
        except MemoryModelError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestBuilderOracle:
    @given(ops=builder_ops, budget=st.integers(3, 8))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_resident_set_victim_is_the_scan_all_victim(self, ops, budget):
        new = ScheduleBuilder("prog", budget * UNIT)
        old = ScanAllBuilder("prog", budget * UNIT)
        assert _drive(new, ops) == _drive(old, ops)
        assert new.graph.to_json() == old.graph.to_json()
        assert new.stats == old.stats
        assert new.used == old.used
        assert {v.name for v in new._resident} == {
            n for n, v in new.values.items() if v.on_chip}

    @pytest.mark.parametrize("schedule", ["MP", "DC", "OC"])
    def test_real_dataflows_spill_identically(self, schedule, monkeypatch):
        spec = BenchmarkSpec("SPILL", log_n=13, kl=12, kp=4, dnum=3)
        config = DataflowConfig(data_sram_bytes=10 * spec.tower_bytes,
                                evk_on_chip=False)
        new, new_stats = get_dataflow(schedule).build_with_stats(spec, config)
        assert new_stats.spill_stores > 0
        monkeypatch.setattr("repro.core.dataflow.ScheduleBuilder",
                            ScanAllBuilder)
        old, old_stats = get_dataflow(schedule).build_with_stats(spec, config)
        assert new.to_json() == old.to_json()
        assert new_stats == old_stats


# -- (c) golden digests from the parent commit ------------------------------------

WORKLOADS = ("ARK", "BTS1", "BTS2", "BTS3", "DPRIVE",
             "BOOT", "HELR", "RESNET_BOOT")
VARIANTS = (("rpu", "MP"), ("rpu", "DC"), ("rpu", "OC"), ("auto", "SOLVER"),
            ("analytic", "OC"), ("analytic", "SOLVER"))
#: 64 MB compute-bound; 16 MB, where the graphs spill; streamed evks at a
#: memory-bound bandwidth, where the solver's reorder search runs.
POINTS = {
    "compute_bound_64mb": dict(bandwidth_gbs=256.0, modops_scale=1.0,
                               sram_mb=64, evk_on_chip=True),
    "spilling_16mb": dict(bandwidth_gbs=64.0, modops_scale=2.0,
                          sram_mb=16, evk_on_chip=True),
    "streamed_evk_memory_bound": dict(bandwidth_gbs=12.8, modops_scale=1.0,
                                      sram_mb=32, evk_on_chip=False),
}


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _report_key(workload, backend, schedule):
    """The timed rows keep the bare key they were first pinned under."""
    prefix = "analytic:" if backend == "analytic" else ""
    return f"{workload}/{prefix}{schedule}"


def _specs_of(workload):
    resolved = resolve_workload(workload)
    if isinstance(resolved, BenchmarkSpec):
        return [resolved]
    return list(dict.fromkeys(phase.spec for phase in resolved.phases))


def estimate_digests(point: str):
    """``{"reports": {...}, "graphs": {...}, "plans": {...}}`` for one
    machine point.

    Reports: SHA-256 of ``report_to_dict(build_plan(...).run())`` per
    workload x schedule.  Graphs: SHA-256 over the ``schedule_digest`` of
    every distinct spec of a workload, per hand-written dataflow.  Plans:
    ``build_plan(...).digest`` per workload x schedule, the content
    address the serving tier caches reports under.
    """
    options = POINTS[point]
    config = DataflowConfig(data_sram_bytes=options["sram_mb"] * MB,
                            evk_on_chip=options["evk_on_chip"])
    reports, graphs, plans = {}, {}, {}
    for workload in WORKLOADS:
        for backend, schedule in VARIANTS:
            plan = build_plan(workload, backend=backend, schedule=schedule,
                              **options)
            key = _report_key(workload, backend, schedule)
            plans[key] = plan.digest
            reports[key] = _sha(report_to_dict(plan.run()))
        for schedule in ("MP", "DC", "OC"):
            graphs[f"{workload}/{schedule}"] = _sha([
                schedule_digest(get_dataflow(schedule).build(spec, config))
                for spec in _specs_of(workload)])
    return {"reports": reports, "graphs": graphs, "plans": plans}


class TestGoldenDigests:
    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_reports_and_graphs_match_the_parent_commit(self, point):
        golden = json.loads(GOLDEN.read_text())[point]
        current = estimate_digests(point)
        assert current["graphs"] == golden["graphs"]
        assert current["reports"] == golden["reports"]
        assert current["plans"] == golden["plans"]


# -- (c2) the list-scheduler oracle --------------------------------------------------


def scan_reorder_for_latency(graph, machine):
    """The list scheduler as it was first written: every step scans the
    memory head and every ready compute task for the least ``(start,
    -rank, index)``, then rebuilds through the checked ``TaskGraph.add``
    unless the compute queue kept its order."""
    n = len(graph)
    if n == 0 or n > MAX_REORDER_TASKS:
        return None
    durations = RPUSimulator(machine).durations(graph)
    rank = _sink_priorities(graph, durations)

    memory_order = graph.memory_order
    is_memory = graph.is_memory
    all_deps = graph.deps
    pending_deps = [len(deps) for deps in all_deps]
    dependents = [[] for _ in range(n)]
    for i, deps in enumerate(all_deps):
        for d in deps:
            dependents[d].append(i)

    ready_compute = [i for i in graph.compute_order if pending_deps[i] == 0]
    mem_pos = 0
    finish = [0.0] * n
    free = {True: 0.0, False: 0.0}  # keyed by the queue flag
    order = []

    def start_time(i):
        deps_ready = max((finish[d] for d in all_deps[i]), default=0.0)
        return max(free[is_memory[i]], deps_ready)

    while len(order) < n:
        candidates = []
        if mem_pos < len(memory_order):
            head = memory_order[mem_pos]
            if pending_deps[head] == 0:
                candidates.append(head)
        candidates.extend(ready_compute)
        if not candidates:
            return None
        best = min(candidates, key=lambda i: (start_time(i), -rank[i], i))
        s = start_time(best)
        finish[best] = s + durations[best]
        free[is_memory[best]] = finish[best]
        order.append(best)
        if is_memory[best]:
            mem_pos += 1
        else:
            ready_compute.remove(best)
        for dep in dependents[best]:
            pending_deps[dep] -= 1
            if pending_deps[dep] == 0 and not is_memory[dep]:
                ready_compute.append(dep)

    if [i for i in order if not is_memory[i]] == graph.compute_order:
        return None

    remap = {old: new for new, old in enumerate(order)}
    out = TaskGraph(graph.name)
    for old in order:
        out.add(
            graph.kinds[old],
            bytes_moved=graph.bytes_moved[old],
            mod_muls=graph.mod_muls[old],
            mod_adds=graph.mod_adds[old],
            deps=[remap[d] for d in all_deps[old]],
            label=graph.labels[old],
            traffic_tag=graph.traffic_tags[old],
        )
    out.validate()
    return out


def _same_reorder(graph, machine):
    heap = reorder_for_latency(graph, machine)
    scan = scan_reorder_for_latency(graph, machine)
    if scan is None:
        return heap is None
    return (heap is not None and heap.to_json() == scan.to_json()
            and heap.memory_order == scan.memory_order
            and heap.compute_order == scan.compute_order
            and heap.total_bytes() == scan.total_bytes()
            and heap.total_mod_ops() == scan.total_mod_ops())


class TestReorderOracle:
    @given(graph=two_queue_dags(), cfg=machine_points)
    @settings(max_examples=300, deadline=None)
    def test_heap_reorder_is_the_scan_reorder(self, graph, cfg):
        assert _same_reorder(graph, cfg)

    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_golden_point_graphs_reorder_identically(self, point):
        options = POINTS[point]
        config = DataflowConfig(data_sram_bytes=options["sram_mb"] * MB,
                                evk_on_chip=options["evk_on_chip"])
        objective = Objective.latency(options["bandwidth_gbs"],
                                      options["modops_scale"])
        machine = solver.machine_for(config, objective)
        specs = dict.fromkeys(
            spec for workload in WORKLOADS for spec in _specs_of(workload))
        changed = 0
        for spec in specs:
            for schedule in ("MP", "DC", "OC"):
                graph, _ = decision_graph(
                    spec, config, HKSDecision(base=schedule), objective)
                assert _same_reorder(graph, machine), (spec.name, schedule)
                changed += reorder_for_latency(graph, machine) is not None
        assert changed  # the comparison covers real re-listings

    def test_a_listing_that_keeps_the_compute_order_is_none(self):
        # The long load outranks the short multiply, so both schedulers
        # dispatch it first: the emission order changes, the compute
        # queue does not, and the replay would be the input's.
        graph = TaskGraph("memory-first")
        graph.add(Kind.PWISE, mod_muls=1, label="mul")
        graph.add(Kind.LOAD, bytes_moved=MB, label="load")
        machine = RPUConfig()
        durations = RPUSimulator(machine).durations(graph)
        assert durations[1] > durations[0]
        assert reorder_for_latency(graph, machine) is None
        assert scan_reorder_for_latency(graph, machine) is None


# -- (d) rows, columns and JSON agree -----------------------------------------------


class TestRowViews:
    @given(graph=two_queue_dags())
    @settings(max_examples=100, deadline=None)
    def test_rows_agree_with_columns_and_json_round_trips(self, graph):
        rows = list(graph)
        assert len(graph) == len(graph.tasks) == len(rows) == len(graph.kinds)
        for i, row in enumerate(rows):
            assert row == graph.tasks[i] == graph.tasks[i - len(rows)]
            assert (row.index, row.kind, row.queue) == (
                i, graph.kinds[i], graph.kinds[i].queue)
            assert graph.is_memory[i] is (row.queue is Queue.MEMORY)
            assert (row.bytes_moved, row.mod_muls, row.mod_adds, row.deps,
                    row.label, row.traffic_tag) == (
                graph.bytes_moved[i], graph.mod_muls[i], graph.mod_adds[i],
                graph.deps[i], graph.labels[i], graph.traffic_tags[i])
        assert graph.tasks[1:3] == rows[1:3]
        assert [t.index for t in graph.queue_tasks(Queue.MEMORY)] == \
            graph.memory_order == [t.index for t in rows
                                   if t.queue is Queue.MEMORY]
        assert [t.index for t in graph.queue_tasks(Queue.COMPUTE)] == \
            graph.compute_order
        # Running totals equal the column sums they replace.
        assert graph.total_bytes() == sum(
            t.bytes_moved for t in rows if t.queue is Queue.MEMORY)
        assert graph.total_bytes(EVK_TAG) == sum(
            t.bytes_moved for t in rows
            if t.queue is Queue.MEMORY and t.traffic_tag == EVK_TAG)
        assert graph.total_mod_ops() == sum(t.mod_ops for t in rows)
        assert graph.total_mod_muls() == sum(t.mod_muls for t in rows)
        assert graph.total_mod_adds() == sum(t.mod_adds for t in rows)
        payload = json.loads(json.dumps(graph.to_json()))
        back = TaskGraph.from_json(payload)
        assert back.to_json() == graph.to_json()
        assert list(back) == rows
        assert schedule_digest(back) == schedule_digest(graph)

    def test_out_of_range_row_raises(self):
        graph = TaskGraph()
        graph.add(Kind.LOAD, bytes_moved=1)
        with pytest.raises(IndexError):
            graph.tasks[1]
        with pytest.raises(IndexError):
            graph.tasks[-2]


# -- (e) one schedule store, three pricers -------------------------------------------

#: What every backend must read off the same decision's graph.
AGREED_FIELDS = ("total_bytes", "data_bytes", "evk_bytes", "mod_ops",
                 "num_tasks", "peak_on_chip_bytes", "spill_stores", "reloads",
                 "hks_calls")
AGREED_STRUCTURE = ("compute_tasks", "memory_tasks", "critical_path_tasks",
                    "sram_high_water_bytes")
AGREED_TIMING = ("latency_ms", "compute_idle_fraction")


def _agreement_rows(report, timing):
    """The compared fields, top level first, then phase by phase."""
    rows = []
    for part in (report,) + report.phases:
        row = {"label": part.benchmark, "schedule": part.schedule}
        row.update((f, getattr(part, f)) for f in AGREED_FIELDS)
        row.update((f, getattr(part.schedule_stats, f))
                   for f in AGREED_STRUCTURE)
        if timing:
            row.update((f, getattr(part, f)) for f in AGREED_TIMING)
        rows.append(row)
    return rows


class TestPricersAgree:
    @pytest.mark.parametrize("point", sorted(POINTS))
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_backends_read_the_same_numbers_off_the_same_decision(
            self, workload, point):
        def rows(backend, schedule, timing=False):
            report = build_plan(workload, backend=backend, schedule=schedule,
                                **POINTS[point]).run()
            return _agreement_rows(report, timing)

        for schedule in ("MP", "DC", "OC"):
            assert rows("analytic", schedule) == rows("rpu", schedule)
        # Same latency objective, same solve.  (The analytic SOLVER
        # minimises traffic and may pick another decision; its golden
        # digest pins it.)
        assert (rows("rpu", "SOLVER", timing=True)
                == rows("auto", "SOLVER", timing=True))


class TestOneScheduleStore:
    def test_analytic_builds_each_schedule_once_and_rpu_reuses_them(
            self, monkeypatch):
        unseen = dict(sram_mb=21, evk_on_chip=True)
        clear_memos()
        built = []
        build = Dataflow.build_with_stats
        monkeypatch.setattr(
            Dataflow, "build_with_stats",
            lambda self, spec, config: built.append(spec)
            or build(self, spec, config))
        plan = build_plan("HELR", backend="analytic", schedule="OC", **unseen)
        plan.run()
        specs = {phase.spec for phase in plan.workload.phases}
        assert len(specs) == 12
        assert sorted(built, key=repr) == sorted(specs, key=repr)
        build_plan("HELR", backend="rpu", schedule="OC", **unseen).run()
        assert len(built) == len(specs)

    def test_hand_written_decision_is_the_hand_written_graph(self):
        """Off the whole-megabyte budgets too (the digest hashes the name)."""
        spec = resolve_workload("ARK")
        config = DataflowConfig(data_sram_bytes=20 * MB + 4096)
        for schedule in ("MP", "DC", "OC"):
            stored, _ = decision_graph(spec, config,
                                       HKSDecision(base=schedule), Objective())
            direct = get_dataflow(schedule).build(spec, config)
            assert schedule_digest(stored) == schedule_digest(direct)


@st.composite
def reuse_cases(draw):
    """A small spec, one of its decisions, an evk placement and two
    budgets (whole towers plus a few stray bytes)."""
    kl = draw(st.integers(2, 8))
    # Digit counts whose ceil(kl / dnum)-tower digits leave none empty.
    dnum = draw(st.sampled_from([
        dnum for dnum in (1, 2, 3)
        if dnum <= kl and (dnum - 1) * -(-kl // dnum) < kl]))
    spec = BenchmarkSpec("REUSE", log_n=draw(st.integers(10, 11)), kl=kl,
                         kp=draw(st.integers(1, 3)), dnum=dnum)
    evk_on_chip = draw(st.booleans())
    budgets = [draw(st.integers(6, 48)) * spec.tower_bytes
               + draw(st.integers(0, spec.tower_bytes - 1)) for _ in range(2)]
    decisions = enumerate_decisions(
        spec, DataflowConfig(data_sram_bytes=budgets[0],
                             evk_on_chip=evk_on_chip))
    return spec, draw(st.sampled_from(decisions)), evk_on_chip, budgets


def _store_key(spec, budget):
    return (pin_capacity(spec, budget),
            bconv_chunk_len(spec, budget, max_bconv_sources(spec)))


class TestBudgetReuse:
    @given(case=reuse_cases())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_a_served_graph_is_the_graph_a_fresh_build_makes(self, case):
        spec, decision, evk_on_chip, (first, second) = case
        configs = [DataflowConfig(data_sram_bytes=b, evk_on_chip=evk_on_chip)
                   for b in (first, second)]
        clear_memos()
        try:
            graph, stats = decision_graph(spec, configs[0], decision,
                                          Objective())
            fresh, fresh_stats = DecisionDataflow(decision).build_with_stats(
                spec, configs[1])
        except MemoryModelError:
            assume(False)  # a budget the working set cannot fit
        served, served_stats = decision_graph(spec, configs[1], decision,
                                              Objective())
        if served is graph:
            assert served.to_json() == fresh.to_json()
            assert served_stats == fresh_stats
        if second < stats.peak_bytes:
            assert served is not graph
        # Reuse is not only safe but taken whenever its rule allows it
        # (one budget twice is the exact memo's hit).
        reusable = first == second or (
            stats.evictions == 0 and second >= stats.peak_bytes
            and _store_key(spec, first) == _store_key(spec, second))
        assert (served is graph) == reusable

    def test_one_band_builds_an_evict_free_spec_once_per_decision(
            self, monkeypatch):
        """Four sizes of the benchmark sweep's top SRAM band: ARK never
        evicts there, so each decision is built at the first size only."""
        spec = resolve_workload("ARK")
        clear_memos()
        built = []
        build = Dataflow.build_with_stats
        monkeypatch.setattr(
            Dataflow, "build_with_stats",
            lambda self, spec, config: built.append(self.decision)
            or build(self, spec, config))
        graphs = {}
        for sram_mb in (120, 121, 122, 123):
            config = DataflowConfig(data_sram_bytes=sram_mb * MB)
            decisions = enumerate_decisions(spec, config)
            for decision in decisions:
                graph, stats = decision_graph(spec, config, decision,
                                              Objective())
                assert stats.evictions == 0
                assert graphs.setdefault(decision, graph) is graph
        assert sorted(built, key=repr) == sorted(graphs, key=repr)
        assert len(built) == len(decisions)


class TestBoundedModelCaches:
    def test_largest_plan_fits_four_times_and_reruns_for_free(
            self, monkeypatch):
        largest = dict(bandwidth_gbs=20.0, sram_mb=17, evk_on_chip=False)
        # The solver's solve memo sits under the same bound.
        assert solver._solved in MODEL_MEMOS
        clear_memos()
        first = build_plan("RESNET_BOOT", backend="auto", schedule="SOLVER",
                           **largest).run()
        for memo in MODEL_MEMOS:
            info = memo.cache_info()
            assert info.maxsize == MODEL_CACHE_ENTRIES
            assert 0 < 4 * info.currsize <= info.maxsize, (memo.__name__, info)

        # A different plan in between, then the first one again: every
        # graph and every simulation must come out of the memo tiers.
        build_plan("HELR", backend="auto", schedule="SOLVER",
                   bandwidth_gbs=33.0, sram_mb=18, evk_on_chip=True).run()
        calls = []
        build = Dataflow.build_with_stats
        replay = RPUSimulator._replay
        monkeypatch.setattr(
            Dataflow, "build_with_stats",
            lambda self, *a: calls.append("build") or build(self, *a))
        monkeypatch.setattr(
            RPUSimulator, "_replay",
            lambda self, *a: calls.append("replay") or replay(self, *a))
        again = build_plan("RESNET_BOOT", backend="auto", schedule="SOLVER",
                           **largest).run()
        assert calls == []
        assert report_to_dict(again) == report_to_dict(first)
