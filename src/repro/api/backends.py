"""Pluggable estimation backends behind one typed report.

The seed code grew three dataflow schedulers in :mod:`repro.core` and a
cycle-level simulator in :mod:`repro.rpu`, each with its own entry point
(``analyze_dataflow``, ``RPUSimulator.simulate`` + hand-built configs).
This module unifies them behind a small protocol:

* a :class:`Backend` turns ``(benchmark, schedule, options)`` into a
  :class:`RunReport` — one flat, typed summary (latency, traffic,
  arithmetic intensity) no matter which engine produced it;
* a registry (:func:`register_backend` / :func:`get_backend`) lets later
  PRs plug in new engines (GPU cost models, remote estimators) without
  touching call sites;
* :func:`estimate` is the single request path used by
  ``FHESession.estimate``, the CLI and the examples.

Users never import :mod:`repro.core` or :mod:`repro.rpu` directly; those
stay implementation details of the two built-in backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

if TYPE_CHECKING:
    from repro.api.plan import Plan
    from repro.core import DataflowReport, ScheduleStats, TaskGraph
    from repro.rpu import RPUConfig, SimResult
    from repro.sched import Objective, SolvedSchedule
    from repro.workloads import CompositeWorkload, HEOpMix, Phase, WorkloadProgram

from repro.errors import ParameterError
from repro.params import BENCHMARKS, MB, BenchmarkSpec, get_benchmark
from repro.sched import stats as sched_stats_mod
from repro.sched.stats import ScheduleStats as SchedStats

#: Short ids of the paper's three HKS dataflow schedules.
SCHEDULES = ("MP", "DC", "OC")

#: Everything a :class:`~repro.api.plan.Plan` may name as a schedule: the
#: hand-written trio plus the solver's search (``"SOLVER"``).  ``"all"``
#: still expands to the hand-written trio only, so comparison tables keep
#: their three-column shape.
KNOWN_SCHEDULES = SCHEDULES + ("SOLVER",)


@dataclass(frozen=True)
class EstimateOptions:
    """Machine knobs shared by every backend (the paper's sweep axes)."""

    bandwidth_gbs: float = 64.0
    sram_mb: int = 32
    evk_on_chip: bool = True
    key_compression: bool = False
    modops_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth_gbs <= 0 or self.sram_mb <= 0 or self.modops_scale <= 0:
            raise ParameterError("bandwidth, SRAM and MODOPS scale must be positive")


@dataclass(frozen=True)
class RunReport:
    """Uniform result of estimating one (benchmark, schedule) point.

    ``latency_ms`` is ``None`` for backends that model traffic only (the
    analytic backend); simulation backends always fill it.  Composite
    workload estimates additionally carry ``phases`` — one nested report
    per :class:`~repro.workloads.ir.Phase`, in program order, so callers
    can see where inside the circuit the time/traffic goes.
    """

    benchmark: str
    backend: str
    schedule: str
    total_bytes: int
    data_bytes: int
    evk_bytes: int
    mod_ops: int
    num_tasks: int
    peak_on_chip_bytes: int
    spill_stores: int = 0
    reloads: int = 0
    latency_ms: Optional[float] = None
    compute_idle_fraction: Optional[float] = None
    #: For composite workloads (e.g. ``"BOOT"``): how many hybrid key
    #: switches the estimated circuit performs.  ``None`` for single-HKS
    #: benchmark estimates.
    hks_calls: Optional[int] = None
    #: Per-phase breakdown of a composite workload estimate (one report
    #: per program phase, in order).  Empty for single-HKS estimates.
    phases: Tuple["RunReport", ...] = ()
    options: EstimateOptions = field(default_factory=EstimateOptions)
    #: Structural summary of the underlying schedule (queue occupancy,
    #: critical path, SRAM high-water) — filled by every built-in backend.
    schedule_stats: Optional[SchedStats] = None

    @property
    def total_mb(self) -> float:
        return self.total_bytes / MB

    @property
    def arithmetic_intensity(self) -> Optional[float]:
        """Modular operations per DRAM byte (paper Table II's "AI").

        ``None`` when the estimate moved no bytes at all (possible for
        degenerate add-only phases) — callers must not divide by traffic
        that does not exist.
        """
        if self.total_bytes == 0:
            return None
        return self.mod_ops / self.total_bytes

    @property
    def achieved_gbs(self) -> Optional[float]:
        if not self.latency_ms:  # None for analytic, 0 for empty phases
            return None
        return self.total_bytes / (self.latency_ms / 1e3) / 1e9

    @property
    def achieved_gops(self) -> Optional[float]:
        if not self.latency_ms:
            return None
        return self.mod_ops / (self.latency_ms / 1e3) / 1e9

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary for ``format_table``-style rendering."""
        ai = self.arithmetic_intensity
        row: Dict[str, object] = {
            "benchmark": self.benchmark,
            "backend": self.backend,
            "schedule": self.schedule,
            "MB": round(self.total_mb, 1),
            "AI": round(ai, 2) if ai is not None else "-",
            "spills": self.spill_stores,
        }
        if self.hks_calls is not None:
            row["hks"] = self.hks_calls
        if self.latency_ms is not None:
            row["latency_ms"] = round(self.latency_ms, 2)
        if self.compute_idle_fraction is not None:
            row["idle_%"] = round(self.compute_idle_fraction * 100, 1)
        return row

    def phase_rows(self) -> List[Dict[str, object]]:
        """Per-phase breakdown as flat dictionaries (empty if no phases)."""
        return [p.as_row() for p in self.phases]


#: Size of each model memo below.  Measured working set: the largest single
#: plan (``RESNET_BOOT`` with ``schedule="SOLVER"`` on ``auto``, streamed
#: evks) touches 39 schedules, 39 simulations, 46 point-wise graphs and 15
#: mix reports (13 analyses on ``analytic``); four times the largest of
#: those, so a sweep's MP/DC/OC/SOLVER quartet or a few tenants' plans in
#: turn never evict each other, while a long-lived server stops pinning
#: every graph it ever built.  An evicted entry costs one rebuild.
_MODEL_CACHE_ENTRIES = 4 * 46


@lru_cache(maxsize=_MODEL_CACHE_ENTRIES)
def _cached_schedule(spec: BenchmarkSpec, schedule: str, sram_mb: int,
                     evk_on_chip: bool,
                     key_compression: bool) -> Tuple[TaskGraph, ScheduleStats]:
    """One (graph, stats) build per schedule configuration.

    Schedules depend only on the memory configuration, not on bandwidth
    or MODOPS, so sweep-style estimate() loops (the common request
    pattern) reuse one build — the same memoization the experiment
    harness applies in :mod:`repro.experiments.common`.
    """
    from repro.core import DataflowConfig, get_dataflow

    config = DataflowConfig(
        data_sram_bytes=sram_mb * MB,
        evk_on_chip=evk_on_chip,
        key_compression=key_compression,
    )
    return get_dataflow(schedule).build_with_stats(spec, config)


@lru_cache(maxsize=_MODEL_CACHE_ENTRIES)
def _cached_analysis(spec: BenchmarkSpec, schedule: str, sram_mb: int,
                     evk_on_chip: bool,
                     key_compression: bool) -> DataflowReport:
    """Memoized :func:`repro.core.analyze_dataflow` (reports are frozen)."""
    from repro.core import DataflowConfig, analyze_dataflow, get_dataflow

    config = DataflowConfig(
        data_sram_bytes=sram_mb * MB,
        evk_on_chip=evk_on_chip,
        key_compression=key_compression,
    )
    return analyze_dataflow(spec, get_dataflow(schedule), config)


def _dataflow_config(options: EstimateOptions) -> "DataflowConfig":
    """The schedule-generation view of an options record."""
    from repro.core import DataflowConfig

    return DataflowConfig(
        data_sram_bytes=options.sram_mb * MB,
        evk_on_chip=options.evk_on_chip,
        key_compression=options.key_compression,
    )


def _machine_of(options: EstimateOptions) -> "RPUConfig":
    """The RPU timing model an options record denotes (both backends use
    it for occupancy stats; the RPU backend also simulates on it)."""
    from repro.rpu import RPUConfig

    return RPUConfig(
        bandwidth_bytes_per_s=options.bandwidth_gbs * 1e9,
        data_sram_bytes=options.sram_mb * MB,
        key_sram_bytes=360 * MB if options.evk_on_chip else 0,
        modops_scale=options.modops_scale,
    )


@lru_cache(maxsize=_MODEL_CACHE_ENTRIES)
def _cached_rpu_sim(spec: BenchmarkSpec, schedule: str,
                    options: EstimateOptions) -> "SimResult":
    """One simulation per (spec, schedule, options) — shared between the
    RPU backend and the solver's legacy-anchor evaluations, so whichever
    runs first warms the other."""
    from repro.rpu import RPUSimulator

    graph, _ = _cached_schedule(
        spec, schedule, options.sram_mb, options.evk_on_chip,
        options.key_compression,
    )
    return RPUSimulator(_machine_of(options)).simulate(graph)


def _solver_objective_of(backend_name: str,
                         options: EstimateOptions) -> "Objective":
    """The solver objective a backend prices schedules under."""
    from repro.sched import Objective

    if backend_name == "analytic":
        return Objective.traffic()
    return Objective.latency(bandwidth_gbs=options.bandwidth_gbs,
                             modops_scale=options.modops_scale)


#: Mix field -> pointwise graph kind (rotations also pay an automorphism).
_POINTWISE_KINDS = (
    ("rotations", "automorphism"),
    ("ct_multiplies", "tensor"),
    ("pt_multiplies", "plain"),
    ("additions", "add"),
)


@lru_cache(maxsize=_MODEL_CACHE_ENTRIES)
def _pointwise_graph(spec: BenchmarkSpec, kind: str) -> TaskGraph:
    """Task graph of one non-HKS homomorphic op (shared by both backends)."""
    from repro.workloads import build_pointwise_graph

    return build_pointwise_graph(spec, kind)


def _fold_phase_reports(name: str, backend: str, schedule: str,
                        phase_reports: Sequence[RunReport],
                        options: EstimateOptions) -> RunReport:
    """Sum per-phase reports into one program-level :class:`RunReport`.

    Integer resources add; the on-chip peak is the max across phases
    (phases run back-to-back, never concurrently); latency adds with the
    idle fraction folded busy-time-weighted.  Folding a single phase
    reproduces that phase's numbers exactly — the degenerate case the
    legacy flat path maps onto.
    """
    latency_ms: Optional[float] = 0.0
    busy_ms = 0.0
    for report in phase_reports:
        if report.latency_ms is None:
            latency_ms = None
            break
        latency_ms += report.latency_ms
        if report.compute_idle_fraction is not None:
            busy_ms += report.latency_ms * (1.0 - report.compute_idle_fraction)
    return RunReport(
        benchmark=name,
        backend=backend,
        schedule=schedule,
        total_bytes=sum(p.total_bytes for p in phase_reports),
        data_bytes=sum(p.data_bytes for p in phase_reports),
        evk_bytes=sum(p.evk_bytes for p in phase_reports),
        mod_ops=sum(p.mod_ops for p in phase_reports),
        num_tasks=sum(p.num_tasks for p in phase_reports),
        peak_on_chip_bytes=max(p.peak_on_chip_bytes for p in phase_reports),
        spill_stores=sum(p.spill_stores for p in phase_reports),
        reloads=sum(p.reloads for p in phase_reports),
        latency_ms=latency_ms,
        compute_idle_fraction=(
            1.0 - busy_ms / latency_ms if latency_ms else None
        ),
        hks_calls=sum(p.hks_calls or 0 for p in phase_reports),
        phases=tuple(phase_reports),
        options=options,
        schedule_stats=(
            sched_stats_mod.fold([p.schedule_stats for p in phase_reports])
            if any(p.schedule_stats is not None for p in phase_reports)
            else None
        ),
    )


class PlanBackendBase:
    """Plan-execution skeleton shared by the built-in backends.

    :meth:`run_plan` is the primary entry point: it dispatches a resolved
    :class:`~repro.api.plan.Plan` to the engine's single-benchmark
    pricing (``_spec_report``) or folds its phase-structured program
    through ``_phase_report``.  The historic ``run`` / ``run_composite``
    methods survive as thin adapters that wrap their arguments into a
    plan — one execution path, however the request arrives.
    """

    #: Backends that search regardless of the plan's schedule name (the
    #: ``auto`` backend) set this; ``run_plan`` then rewrites the schedule
    #: to ``"SOLVER"`` before dispatching.
    force_solver = False

    def run_plan(self, plan: "Plan") -> RunReport:
        """Execute one resolved plan (the primary backend entry point)."""
        workload = plan.workload
        schedule = plan.schedule
        if self.force_solver:
            schedule = "SOLVER"
        solver_ctx = (self._prepare_solver(plan)
                      if schedule == "SOLVER" else None)
        try:
            if isinstance(workload, BenchmarkSpec):
                return self._spec_report(workload, schedule, plan.options)
            phase_reports = [
                self._phase_report(phase, schedule, plan.options)
                for phase in workload.phases
            ]
            return _fold_phase_reports(
                workload.name, self.name, phase_reports[0].schedule,
                phase_reports, plan.options,
            )
        finally:
            if solver_ctx is not None:
                self._finish_solver(solver_ctx)

    def _prepare_solver(self, plan: "Plan") -> Tuple[str, bool]:
        """Seed the solver memo from this plan's recorded bundle, or start
        recording one.  A warm process (or a fresh worker against a warm
        cache) loads every per-spec solve with a single cache read."""
        from repro import sched

        objective = _solver_objective_of(self.name, plan.options)
        key = sched.solver.bundle_key(plan.digest, objective)
        loaded = sched.solver.preload_bundle(key)
        if not loaded:
            sched.solver.begin_recording()
        return key, loaded

    def _finish_solver(self, ctx: Tuple[str, bool]) -> None:
        from repro import sched

        key, loaded = ctx
        if not loaded:
            sched.solver.store_bundle(key, sched.solver.end_recording())

    def run(self, spec: BenchmarkSpec, schedule: str,
            options: EstimateOptions) -> RunReport:
        """Thin adapter: wrap a single-benchmark request into a plan."""
        from repro.api.plan import Plan

        return self.run_plan(Plan(workload=spec, backend=self.name,
                                  schedule=schedule, options=options))

    def run_composite(self, workload: Union[WorkloadProgram, CompositeWorkload],
                      schedule: str,
                      options: EstimateOptions) -> RunReport:
        """Thin adapter: wrap a workload program (or the deprecated flat
        ``CompositeWorkload``, which warns while lifting) into a plan."""
        from repro.api.plan import Plan

        return self.run_plan(Plan(workload=workload, backend=self.name,
                                  schedule=schedule, options=options))


@lru_cache(maxsize=_MODEL_CACHE_ENTRIES)
def _cached_rpu_mix_report(backend: "RPUBackend", spec: BenchmarkSpec,
                           mix: HEOpMix, schedule: str,
                           options: EstimateOptions) -> RunReport:
    """Label-free RPU phase numbers, memoized across repeated phases.

    Every argument is hashable (frozen dataclasses; the backend by
    identity), and :class:`RunReport` is frozen, so repeated bootstrap
    phases inside deep programs — and repeated estimate() requests —
    share one simulation instead of re-running it."""
    return backend._mix_report(spec, mix, schedule, options)


@runtime_checkable
class Backend(Protocol):
    """Anything that can execute a resolved estimate plan.

    ``run_plan`` is the primary entry point.  Backends that predate the
    plan API may instead expose the legacy ``run(spec, schedule,
    options)`` / ``run_composite(workload, schedule, options)`` pair;
    :func:`execute_plan` adapts either shape.
    """

    name: str

    def run_plan(self, plan: "Plan") -> RunReport:
        """Produce a :class:`RunReport` for one resolved :class:`Plan`."""
        ...


class AnalyticBackend(PlanBackendBase):
    """Traffic/AI analysis of the generated schedules (paper Table II).

    Wraps :func:`repro.core.analyze_dataflow`; no timing model, so
    ``latency_ms`` is ``None``.
    """

    name = "analytic"

    def _spec_report(self, spec: BenchmarkSpec, schedule: str,
                     options: EstimateOptions) -> RunReport:
        if schedule.upper() == "SOLVER":
            return self._solver_spec_report(spec, options)
        report = _cached_analysis(
            spec, schedule.upper(), options.sram_mb, options.evk_on_chip,
            options.key_compression,
        )
        graph, stats = _cached_schedule(
            spec, schedule.upper(), options.sram_mb, options.evk_on_chip,
            options.key_compression,
        )
        return RunReport(
            benchmark=spec.name,
            backend=self.name,
            schedule=report.dataflow,
            total_bytes=report.total_bytes,
            data_bytes=report.data_bytes,
            evk_bytes=report.evk_bytes,
            mod_ops=report.mod_ops,
            num_tasks=report.num_tasks,
            peak_on_chip_bytes=report.peak_on_chip_bytes,
            spill_stores=report.spill_stores,
            reloads=report.reloads,
            options=options,
            schedule_stats=sched_stats_mod.from_graph(
                graph, _machine_of(options), stats.peak_bytes,
            ),
        )

    def _solver_spec_report(self, spec: BenchmarkSpec,
                            options: EstimateOptions) -> RunReport:
        """Price the solver's minimum-traffic schedule for one spec."""
        from repro import sched

        config = _dataflow_config(options)
        objective = _solver_objective_of(self.name, options)
        solved = sched.solve(spec, config, objective)
        graph, stats = sched.solved_graph(spec, config, objective, solved)
        return RunReport(
            benchmark=spec.name,
            backend=self.name,
            schedule="SOLVER",
            total_bytes=solved.total_bytes,
            data_bytes=solved.data_bytes,
            evk_bytes=solved.evk_bytes,
            mod_ops=solved.mod_ops,
            num_tasks=solved.num_tasks,
            peak_on_chip_bytes=solved.peak_bytes,
            spill_stores=solved.spill_stores,
            reloads=solved.reloads,
            options=options,
            schedule_stats=sched_stats_mod.from_graph(
                graph, _machine_of(options), stats.peak_bytes,
            ),
        )

    def _phase_report(self, phase: Phase, schedule: str,
                      options: EstimateOptions) -> RunReport:
        """Traffic/ops of one phase: HKS calls + point-wise ops at its level."""
        base = self._spec_report(phase.spec, schedule, options)
        calls = phase.hks_calls
        total_bytes = calls * base.total_bytes
        data_bytes = calls * base.data_bytes
        mod_ops = calls * base.mod_ops
        num_tasks = calls * base.num_tasks
        extra_mem = extra_comp = extra_crit = 0
        for mix_field, kind in _POINTWISE_KINDS:
            count = getattr(phase.mix, mix_field)
            if count == 0:
                continue
            graph = _pointwise_graph(phase.spec, kind)
            total_bytes += count * graph.total_bytes()
            data_bytes += count * graph.total_bytes()
            mod_ops += count * graph.total_mod_ops()
            num_tasks += count * len(graph)
            mem, comp, crit = sched_stats_mod.graph_task_counts(graph)
            extra_mem += count * mem
            extra_comp += count * comp
            extra_crit += count * crit
        if base.schedule_stats is not None and calls:
            stats = base.schedule_stats.scaled(calls)
        else:
            stats = SchedStats()
        return RunReport(
            benchmark=phase.label,
            backend=self.name,
            schedule=base.schedule,
            total_bytes=total_bytes,
            data_bytes=data_bytes,
            evk_bytes=calls * base.evk_bytes,
            mod_ops=mod_ops,
            num_tasks=num_tasks,
            # A key-switch-free phase never holds the HKS working set.
            peak_on_chip_bytes=base.peak_on_chip_bytes if calls else 0,
            spill_stores=calls * base.spill_stores,
            reloads=calls * base.reloads,
            hks_calls=calls,
            options=options,
            schedule_stats=stats.plus_tasks(extra_mem, extra_comp,
                                            extra_crit),
        )

class RPUBackend(PlanBackendBase):
    """Cycle-level replay on the dual-queue RPU simulator (paper Section V).

    Program estimates fold phase by phase; each phase simulates at its
    own point of the modulus chain, so descending tower counts make late
    phases strictly cheaper than flat top-of-chain pricing.
    """

    name = "rpu"

    def _spec_report(self, spec: BenchmarkSpec, schedule: str,
                     options: EstimateOptions) -> RunReport:
        if schedule.upper() == "SOLVER":
            return self._solver_spec_report(spec, options)
        graph, stats = _cached_schedule(
            spec, schedule.upper(), options.sram_mb, options.evk_on_chip,
            options.key_compression,
        )
        result = _cached_rpu_sim(spec, schedule.upper(), options)
        return RunReport(
            benchmark=spec.name,
            backend=self.name,
            schedule=schedule.upper(),
            total_bytes=result.total_bytes,
            data_bytes=result.data_bytes,
            evk_bytes=result.evk_bytes,
            mod_ops=result.total_modops,
            num_tasks=result.num_tasks,
            peak_on_chip_bytes=stats.peak_bytes,
            spill_stores=stats.spill_stores,
            reloads=stats.reloads,
            latency_ms=result.runtime_ms,
            compute_idle_fraction=result.compute_idle_fraction,
            options=options,
            schedule_stats=sched_stats_mod.from_graph(
                graph, _machine_of(options), stats.peak_bytes,
                latency_s=result.runtime_s,
            ),
        )

    def _solver_spec_report(self, spec: BenchmarkSpec,
                            options: EstimateOptions) -> RunReport:
        """Price the solver's minimum-latency schedule for one spec.

        Warm path: the solve comes from cache, the schedule is rebuilt
        deterministically (digest-verified) and the *stored* latency is
        reused — no simulation runs.
        """
        from repro import sched

        config = _dataflow_config(options)
        objective = _solver_objective_of(self.name, options)
        solved = sched.solve(spec, config, objective)
        graph, stats = sched.solved_graph(spec, config, objective, solved)
        latency_s = (None if solved.latency_ms is None
                     else solved.latency_ms / 1e3)
        return RunReport(
            benchmark=spec.name,
            backend=self.name,
            schedule="SOLVER",
            total_bytes=solved.total_bytes,
            data_bytes=solved.data_bytes,
            evk_bytes=solved.evk_bytes,
            mod_ops=solved.mod_ops,
            num_tasks=solved.num_tasks,
            peak_on_chip_bytes=solved.peak_bytes,
            spill_stores=solved.spill_stores,
            reloads=solved.reloads,
            latency_ms=solved.latency_ms,
            compute_idle_fraction=solved.compute_idle_fraction,
            options=options,
            schedule_stats=sched_stats_mod.from_graph(
                graph, _machine_of(options), stats.peak_bytes,
                latency_s=latency_s,
            ),
        )

    def _machine(self, options: EstimateOptions) -> RPUConfig:
        return _machine_of(options)

    def _phase_report(self, phase: Phase, schedule: str,
                      options: EstimateOptions) -> RunReport:
        """Latency of one phase: one simulation per distinct kernel at the
        phase's level, scaled by the phase op mix (the simulator replays
        one HKS / one point-wise op; a real run would interleave them
        identically in steady state).

        Deep programs repeat the same bootstrap phases many times (HELR:
        one per training iteration), so the label-free numbers are
        memoized per ``(spec, mix, schedule, options)`` and only the
        phase label is stamped on per call."""
        from dataclasses import replace

        numbers = _cached_rpu_mix_report(
            self, phase.spec, phase.mix, schedule, options
        )
        return replace(numbers, benchmark=phase.label)

    def _mix_report(self, spec: BenchmarkSpec, mix: HEOpMix, schedule: str,
                    options: EstimateOptions) -> RunReport:
        from repro.rpu import RPUSimulator

        base = self._spec_report(spec, schedule, options)
        sim = RPUSimulator(self._machine(options))
        calls = mix.hks_calls
        total_bytes = calls * base.total_bytes
        data_bytes = calls * base.data_bytes
        mod_ops = calls * base.mod_ops
        num_tasks = calls * base.num_tasks
        latency_ms = calls * base.latency_ms
        busy_ms = calls * base.latency_ms * (1.0 - base.compute_idle_fraction)
        if schedule.upper() == "SOLVER" and calls > 1:
            # Steady-state pricing: repeat calls pay the pipeline marginal
            # (never above the cold single-call latency, so match-or-beat
            # against `calls x hand-written` is preserved; never below the
            # busier queue, so the folded idle fraction stays in range).
            from repro import sched

            config = _dataflow_config(options)
            objective = _solver_objective_of(self.name, options)
            solved = sched.solve(spec, config, objective)
            marginal = sched.pipeline_marginal_ms(
                spec, config, objective, solved
            )
            latency_ms = base.latency_ms + (calls - 1) * marginal
        for mix_field, kind in _POINTWISE_KINDS:
            count = getattr(mix, mix_field)
            if count == 0:
                continue
            graph = _pointwise_graph(spec, kind)
            result = sim.simulate(graph)
            total_bytes += count * result.total_bytes
            data_bytes += count * result.data_bytes
            mod_ops += count * result.total_modops
            num_tasks += count * result.num_tasks
            latency_ms += count * result.runtime_ms
            busy_ms += count * result.runtime_ms * (
                1.0 - result.compute_idle_fraction
            )
        if base.schedule_stats is not None and calls:
            stats = base.schedule_stats.scaled(calls)
        else:
            stats = SchedStats()
        extra_mem = extra_comp = extra_crit = 0
        for mix_field, kind in _POINTWISE_KINDS:
            count = getattr(mix, mix_field)
            if count == 0:
                continue
            mem, comp, crit = sched_stats_mod.graph_task_counts(
                _pointwise_graph(spec, kind)
            )
            extra_mem += count * mem
            extra_comp += count * comp
            extra_crit += count * crit
        return RunReport(
            benchmark=spec.name,
            backend=self.name,
            schedule=base.schedule,
            total_bytes=total_bytes,
            data_bytes=data_bytes,
            evk_bytes=calls * base.evk_bytes,
            mod_ops=mod_ops,
            num_tasks=num_tasks,
            # A key-switch-free phase never holds the HKS working set.
            peak_on_chip_bytes=base.peak_on_chip_bytes if calls else 0,
            spill_stores=calls * base.spill_stores,
            reloads=calls * base.reloads,
            latency_ms=latency_ms,
            compute_idle_fraction=(
                1.0 - busy_ms / latency_ms if latency_ms else None
            ),
            hks_calls=calls,
            options=options,
            schedule_stats=stats.plus_tasks(extra_mem, extra_comp,
                                            extra_crit),
        )


class AutoBackend(RPUBackend):
    """Schedule search per phase: the solver picks the best dataflow.

    An :class:`RPUBackend` that ignores the plan's schedule name and
    prices every spec under the solver's argmin schedule — guaranteed to
    match or beat the best hand-written dataflow, because the solver
    always evaluates MP/DC/OC exactly and only displaces them with
    analysis-clean improvements.  Solves are content-addressed in
    :mod:`repro.cache`, so only the first cold request searches.
    """

    name = "auto"
    force_solver = True


# -- registry -----------------------------------------------------------------

_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend, replace: bool = False) -> None:
    """Add a backend to the registry under its ``name``.

    A backend must expose ``run_plan`` (preferred) or the legacy ``run``
    method; either satisfies :func:`execute_plan`.
    """
    name = backend.name.lower()
    if not replace and name in _REGISTRY:
        raise ParameterError(f"backend {name!r} is already registered")
    if not (callable(getattr(backend, "run_plan", None))
            or callable(getattr(backend, "run", None))):
        raise ParameterError(
            f"backend {name!r} has no run_plan() or run() method"
        )
    _REGISTRY[name] = backend


def get_backend(name: str) -> Backend:
    key = name.lower()
    if key not in _REGISTRY:
        raise ParameterError(
            f"unknown backend {name!r}; choose from {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key]


def list_backends() -> List[str]:
    """Registered backend names in deterministic (sorted) order.

    Stable across registration order, interpreter hash seeds and
    processes — serving configurations and docs may rely on it.
    """
    return sorted(_REGISTRY)


def describe_backends() -> Dict[str, str]:
    """Backend name -> one-line description, in :func:`list_backends` order."""
    out: Dict[str, str] = {}
    for name in list_backends():
        doc = (_REGISTRY[name].__doc__ or "").strip()
        out[name] = doc.splitlines()[0] if doc else ""
    return out


register_backend(AnalyticBackend())
register_backend(RPUBackend())
register_backend(AutoBackend())


# -- the single request path ---------------------------------------------------

Workload = Union[str, BenchmarkSpec, "WorkloadProgram", "CompositeWorkload"]


def _resolve_workload(workload: Workload) -> Workload:
    """Resolve a name/spec to a :class:`BenchmarkSpec` or workload program.

    Names check Table III benchmarks first (``"ARK"``), then the named
    workload programs of :mod:`repro.workloads` (``"BOOT"``,
    ``"RESNET_BOOT"``, ``"HELR"``).
    """
    if isinstance(workload, BenchmarkSpec):
        return workload
    if not isinstance(workload, str):
        from repro.workloads import CompositeWorkload, WorkloadProgram

        if isinstance(workload, (WorkloadProgram, CompositeWorkload)):
            return workload
        raise ParameterError(
            f"workload must be a name, BenchmarkSpec, WorkloadProgram or "
            f"CompositeWorkload, got {type(workload).__name__}"
        )
    try:
        return get_benchmark(workload)
    except ParameterError:
        from repro.workloads import get_workload, list_workloads

        try:
            return get_workload(workload)
        except ParameterError:
            raise ParameterError(
                f"unknown workload {workload!r}; benchmarks: "
                f"{sorted(BENCHMARKS)}, composite workloads: "
                f"{list_workloads()}"
            ) from None


def _resolve_schedules(schedule: Union[str, Sequence[str]]) -> List[str]:
    if isinstance(schedule, str):
        if schedule.lower() == "all":
            return list(SCHEDULES)
        names = [schedule]
    else:
        names = list(schedule)
    out = []
    for name in names:
        key = name.upper()
        if key not in KNOWN_SCHEDULES:
            raise ParameterError(
                f"unknown schedule {name!r}; choose from {KNOWN_SCHEDULES} "
                f"or 'all'"
            )
        out.append(key)
    return out


def execute_plan(plan: "Plan") -> RunReport:
    """Run one resolved plan on its backend — the single execution path.

    Prefers the backend's ``run_plan``; backends registered with only the
    legacy ``run`` / ``run_composite`` surface are adapted in place.
    """
    engine = get_backend(plan.backend)
    run_plan = getattr(engine, "run_plan", None)
    if callable(run_plan):
        return run_plan(plan)
    if isinstance(plan.workload, BenchmarkSpec):
        return engine.run(plan.workload, plan.schedule, plan.options)
    runner = getattr(engine, "run_composite", None)
    if runner is None:
        raise ParameterError(
            f"backend {plan.backend!r} cannot estimate composite workloads "
            f"like {plan.workload.name!r}"
        )
    return runner(plan.workload, plan.schedule, plan.options)


def estimate(
    workload: Workload,
    *,
    backend: str = "rpu",
    schedule: Union[str, Sequence[str]] = "OC",
    **options: Any,
) -> Union[RunReport, List[RunReport]]:
    """Estimate ``workload`` on one backend across one or more schedules.

    ``workload`` is a Table III benchmark name (``"ARK"``), a
    :class:`BenchmarkSpec`, or a named workload program (``"BOOT"``,
    ``"RESNET_BOOT"``, ``"HELR"`` — or any
    :class:`~repro.workloads.ir.WorkloadProgram`); program estimates are
    folded phase by phase at each phase's own chain level, with the
    per-phase breakdown on ``report.phases``.  ``schedule`` is
    ``"MP"``/``"DC"``/``"OC"``, a sequence of those, or ``"all"``.
    Remaining keyword arguments populate :class:`EstimateOptions`.
    Returns one report for a single schedule, a list (in request order)
    otherwise.

    This is a thin wrapper over the plan/execute pipeline: one
    :class:`~repro.api.plan.Plan` is built per schedule and executed via
    :func:`execute_plan`, so results are bit-identical to
    ``session.plan(...).run()``.
    """
    from repro.api.plan import Plan

    spec = _resolve_workload(workload)
    get_backend(backend)  # unknown backends fail before option parsing
    valid = sorted(EstimateOptions.__dataclass_fields__)
    unknown = sorted(set(options) - set(valid))
    if unknown:
        raise ParameterError(
            f"unknown estimate option(s) {unknown}; valid options: {valid}"
        )
    opts = EstimateOptions(**options)
    schedules = _resolve_schedules(schedule)
    if backend.lower() == "auto" and len(schedules) > 1:
        # The auto backend ignores the requested schedule (every plan
        # normalizes to the solver's pick), so "all" is one report.
        schedules = ["SOLVER"]
    reports = [
        execute_plan(Plan(workload=spec, backend=backend, schedule=s,
                          options=opts))
        for s in schedules
    ]
    if isinstance(schedule, str) and schedule.lower() != "all":
        return reports[0]
    return reports
