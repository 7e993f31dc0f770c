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

Every built-in backend prices through one chain, each step memoised once
by the module that owns it (all under :data:`repro.sched.memo.
MODEL_CACHE_ENTRIES`, all emptied by :func:`repro.sched.clear_memos`):

1. **decision** — ``MP``/``DC``/``OC`` is the matching
   :data:`~repro.sched.LEGACY_DECISIONS` point, ``SOLVER`` is
   :func:`repro.sched.solve`'s argmin (in-process memo, then the disk
   cache, then a search);
2. **graph** — :func:`repro.sched.decision_graph`, the schedule store
   keyed ``(spec, DataflowConfig, HKSDecision)``;
3. **profile** — :func:`repro.sched.stats.from_graph`, keyed by graph;
4. **simulate** — :func:`repro.sched.simulated`, keyed ``(graph,
   RPUConfig)``, only for a backend with a timing model;
5. **report** — ``PlanBackendBase._spec_report`` / ``_mix_report``
   below, the only places a :class:`RunReport` is filled in; this module
   memoises the point-wise op graphs and the label-free per-phase
   reports.

Users never import :mod:`repro.core` or :mod:`repro.rpu` directly; those
stay implementation details of the built-in backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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

from repro import sched
from repro.core.analysis import summarize_schedule
from repro.core.dataflow import DataflowConfig
from repro.core.taskgraph import DATA_TAG, EVK_TAG, TaskGraph
from repro.errors import ParameterError
from repro.params import MB, BenchmarkSpec
from repro.rpu import RPUConfig, RPUSimulator
from repro.sched import LEGACY_DECISIONS, Objective
from repro.sched import stats as sched_stats
from repro.sched.memo import model_memo
from repro.sched.stats import ScheduleStats
from repro.workloads import (
    HEOpMix,
    Workload,
    WorkloadProgram,
    build_pointwise_graph,
    resolve_workload,
)

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
    schedule_stats: Optional[ScheduleStats] = None

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


def _dataflow_config(options: EstimateOptions) -> DataflowConfig:
    """The schedule-generation view of an options record."""
    return DataflowConfig(
        data_sram_bytes=options.sram_mb * MB,
        evk_on_chip=options.evk_on_chip,
        key_compression=options.key_compression,
    )


def _machine_of(options: EstimateOptions) -> RPUConfig:
    """The RPU timing model an options record denotes (every backend uses
    it for occupancy stats; the timed ones also simulate on it)."""
    return sched.machine_for(
        _dataflow_config(options),
        Objective.latency(bandwidth_gbs=options.bandwidth_gbs,
                          modops_scale=options.modops_scale),
    )


#: The hand-written dataflows by schedule name: an ``MP``/``DC``/``OC``
#: request is that point of the solver's decision space.
_LEGACY = {decision.base: decision for decision in LEGACY_DECISIONS}

#: Mix field -> pointwise graph kind (rotations also pay an automorphism).
_POINTWISE_KINDS = (
    ("rotations", "automorphism"),
    ("ct_multiplies", "tensor"),
    ("pt_multiplies", "plain"),
    ("additions", "add"),
)


@model_memo
def _pointwise_graph(spec: BenchmarkSpec, kind: str) -> TaskGraph:
    """Task graph of one non-HKS homomorphic op (shared by all backends)."""
    return build_pointwise_graph(spec, kind)


def _fold_phase_reports(name: str, backend: str, schedule: str,
                        phase_reports: Sequence[RunReport],
                        options: EstimateOptions) -> RunReport:
    """Sum per-phase reports into one program-level :class:`RunReport`.

    Integer resources add; the on-chip peak is the max across phases
    (phases run back-to-back, never concurrently); latency adds with the
    idle fraction folded busy-time-weighted.  Folding a single phase
    reproduces that phase's numbers exactly — the degenerate case the
    flat one-phase pricing maps onto.
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
            sched_stats.fold([p.schedule_stats for p in phase_reports])
            if any(p.schedule_stats is not None for p in phase_reports)
            else None
        ),
    )


class PlanBackendBase:
    """The one pricer behind every built-in backend.

    :meth:`run_plan` is the primary entry point: it dispatches a resolved
    :class:`~repro.api.plan.Plan` to the single-benchmark pricing
    (``_spec_report``) or folds its phase-structured program through
    ``_mix_report``.  Both resolve the plan's schedule to a decision
    (the hand-written one it names, or the solver's pick), fetch that
    decision's shared ``(graph, stats)`` from the schedule store and read
    the report off it; a subclass is a name plus the two flags below.
    The historic ``run`` / ``run_composite`` adapter wraps its arguments
    into a plan — one execution path, however the request arrives.
    """

    name: str

    #: Whether the backend has a timing model: a timed backend replays
    #: each schedule on the RPU simulator (latency, idle fraction) and
    #: solves for latency; an untimed one reports traffic only, solves for
    #: traffic and holds each hand-written schedule to the stage algebra.
    timed = False

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
        if isinstance(workload, BenchmarkSpec):
            return self._spec_report(workload, schedule, plan.options)
        # The numbers of a phase are label-free (and memoised so); only
        # the label is stamped on per phase.
        phase_reports = [
            replace(
                self._mix_report(phase.spec, phase.mix, schedule,
                                 plan.options),
                benchmark=phase.label,
            )
            for phase in workload.phases
        ]
        return _fold_phase_reports(
            workload.name, self.name, phase_reports[0].schedule,
            phase_reports, plan.options,
        )

    def _objective(self, options: EstimateOptions) -> Objective:
        """The solver objective this backend prices schedules under."""
        if not self.timed:
            return Objective.traffic()
        return Objective.latency(bandwidth_gbs=options.bandwidth_gbs,
                                 modops_scale=options.modops_scale)

    def _spec_report(self, spec: BenchmarkSpec, schedule: str,
                     options: EstimateOptions) -> RunReport:
        """Price one HKS of ``spec`` under ``schedule``.

        Bytes, ops and task counts are the graph's running totals;
        peak/spills/reloads come from the builder stats.  On the solver
        path the *stored* latency of the (digest-verified) solve is
        reused — no simulation runs in a warm process.
        """
        config = _dataflow_config(options)
        objective = self._objective(options)
        machine = _machine_of(options)
        latency_ms: Optional[float] = None
        latency_s: Optional[float] = None
        idle: Optional[float] = None
        if schedule == "SOLVER":
            solved = sched.solve(spec, config, objective)
            graph, stats = sched.solved_graph(spec, config, objective, solved)
            latency_ms, idle = solved.latency_ms, solved.compute_idle_fraction
            if latency_ms is not None:
                latency_s = latency_ms / 1e3
        else:
            graph, stats = sched.decision_graph(
                spec, config, _LEGACY[schedule], objective)
            if self.timed:
                result = sched.simulated(graph, machine)
                latency_ms, latency_s = result.runtime_ms, result.runtime_s
                idle = result.compute_idle_fraction
            else:
                summarize_schedule(spec, schedule, config, graph, stats)
        return RunReport(
            benchmark=spec.name,
            backend=self.name,
            schedule=schedule,
            total_bytes=graph.total_bytes(),
            data_bytes=graph.total_bytes(DATA_TAG),
            evk_bytes=graph.total_bytes(EVK_TAG),
            mod_ops=graph.total_mod_ops(),
            num_tasks=len(graph),
            peak_on_chip_bytes=stats.peak_bytes,
            spill_stores=stats.spill_stores,
            reloads=stats.reloads,
            latency_ms=latency_ms,
            compute_idle_fraction=idle,
            options=options,
            schedule_stats=sched_stats.from_graph(
                graph, machine, stats.peak_bytes, latency_s=latency_s,
            ),
        )

    @model_memo
    def _mix_report(self, spec: BenchmarkSpec, mix: HEOpMix, schedule: str,
                    options: EstimateOptions) -> RunReport:
        """HKS calls plus point-wise ops of one op mix at ``spec``'s level.

        One schedule per distinct kernel, scaled by the op mix (a timed
        backend replays one HKS / one point-wise op; a real run would
        interleave them identically in steady state).  Every schedule
        prices ``k`` HKS calls as ``k`` single calls: the in-order queues
        serialise consecutive calls (measured: a second call is never
        cheaper than the first).

        Deep programs repeat the same bootstrap phases many times (HELR:
        one per training iteration), so the numbers are memoized: every
        argument is hashable (frozen dataclasses; the backend, a registry
        singleton, by identity) and :class:`RunReport` is frozen, so
        repeated phases and repeated requests share one pricing.
        """
        base = self._spec_report(spec, schedule, options)
        calls = mix.hks_calls
        total_bytes = calls * base.total_bytes
        data_bytes = calls * base.data_bytes
        mod_ops = calls * base.mod_ops
        num_tasks = calls * base.num_tasks
        latency_ms: Optional[float] = None
        busy_ms = 0.0
        if (base.latency_ms is not None
                and base.compute_idle_fraction is not None):
            latency_ms = calls * base.latency_ms
            busy_ms = latency_ms * (1.0 - base.compute_idle_fraction)
        simulator = RPUSimulator(_machine_of(options))
        extra_mem = extra_comp = extra_crit = 0
        for mix_field, kind in _POINTWISE_KINDS:
            count = getattr(mix, mix_field)
            if count == 0:
                continue
            graph = _pointwise_graph(spec, kind)
            total_bytes += count * graph.total_bytes()
            data_bytes += count * graph.total_bytes(DATA_TAG)
            mod_ops += count * graph.total_mod_ops()
            num_tasks += count * len(graph)
            mem, comp, crit = sched_stats.graph_task_counts(graph)
            extra_mem += count * mem
            extra_comp += count * comp
            extra_crit += count * crit
            if latency_ms is not None:
                # Replayed (~8 us), not looked up: this report's own memo
                # answers repeats, and 46 entries per machine point would
                # crowd the schedules out of ``sched.simulated``.
                result = simulator.simulate(graph)
                latency_ms += count * result.runtime_ms
                busy_ms += count * result.runtime_ms * (
                    1.0 - result.compute_idle_fraction
                )
        if base.schedule_stats is not None and calls:
            stats = base.schedule_stats.scaled(calls)
        else:
            stats = ScheduleStats()
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

    def run(self, workload: Union[BenchmarkSpec, WorkloadProgram],
            schedule: str, options: EstimateOptions) -> RunReport:
        """Thin adapter: wrap a pre-plan request into a plan."""
        from repro.api.plan import Plan

        return self.run_plan(Plan(workload=workload, backend=self.name,
                                  schedule=schedule, options=options))

    #: The historic entry point for programs; a plan carries either form.
    run_composite = run


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

    No timing model, so ``latency_ms`` is ``None``; every hand-written
    schedule it reports has passed :func:`repro.core.analysis.
    summarize_schedule`'s stage-algebra checks.
    """

    name = "analytic"


class RPUBackend(PlanBackendBase):
    """Cycle-level replay on the dual-queue RPU simulator (paper Section V).

    Program estimates fold phase by phase; each phase simulates at its
    own point of the modulus chain, so descending tower counts make late
    phases strictly cheaper than flat top-of-chain pricing.
    """

    name = "rpu"
    timed = True


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

    spec = resolve_workload(workload)
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
