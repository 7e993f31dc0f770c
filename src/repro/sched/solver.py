"""The schedule solver: search the decision space, cache the argmin.

One :func:`solve` call answers "what is the best HKS schedule for this
(spec, memory config, objective)?" by

1. evaluating the paper's three dataflows, the named decisions MP/DC/OC,
   **exactly** (they anchor the match-or-beat guarantee: the solver's
   answer can never be worse than the best of MP/DC/OC, because those are
   always in the candidate pool and ties keep the named point),
2. ranking the generic candidates by closed-form cost guess and exactly
   evaluating only the few that *predict* a real win (each gated through
   the analysis passes before it may displace a legacy anchor), and
3. optionally re-listing the winner's compute queue with the list
   scheduler when the simulated schedule shows meaningful compute idle —
   adopted only if re-simulation strictly improves and the analysis
   passes stay clean.

Results are content-addressed in :mod:`repro.cache` under a key that
covers the spec, the memory configuration, the objective and
``SCHED_VERSION``, and memoised in-process through :func:`~repro.sched.
memo.model_memo`, so a warm serving process never searches: it loads the
:class:`SolvedSchedule`, rebuilds the schedule deterministically, and
verifies the rebuild against the stored digest.

This module is also the **schedule store**: :func:`decision_graph` is the
one place a ``(spec, config, decision)`` becomes a task graph and
:func:`simulated` the one place a ``(graph, machine)`` is replayed, for
the solver's candidates and the backends' ``MP``/``DC``/``OC`` requests
alike (a paper dataflow is its :data:`~repro.core.dataflow.
LEGACY_DECISIONS` entry, built by the one :class:`~repro.core.dataflow.
Dataflow` emitter like every other decision).  Nothing here imports
:mod:`repro.api`; the API layer sits above this package and calls down.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import cache as disk_cache
from repro import codec
from repro.core.dataflow import BuilderStats, Dataflow, DataflowConfig, HKSDecision
from repro.core.hks_ops import bconv_chunk_len, max_bconv_sources, pin_capacity
from repro.core.taskgraph import Kind, TaskGraph
from repro.errors import ParameterError, ScheduleError
from repro.params import MB, BenchmarkSpec
from repro.rpu.config import RPUConfig
from repro.rpu.simulator import RPUSimulator, SimResult
from repro.sched.list_scheduler import MAX_REORDER_TASKS, reorder_for_latency
from repro.sched.memo import MODEL_MEMOS, model_memo
from repro.sched.space import compute_seconds, enumerate_decisions, predict_cost

#: Bump when solver output could change for the same inputs (new search
#: knobs, emitter changes, digest format): it invalidates every cached
#: solve, preventing stale-digest rebuild failures.  2: a hand-written
#: decision names its graph ``{spec}/{base}`` at every budget (the name is
#: hashed); stored solves carry the digest and timing only.
SCHED_VERSION = 2

#: A generic candidate is evaluated exactly only when its closed-form
#: guess undercuts the best legacy guess by at least this factor.
GUESS_MARGIN = 0.97

#: At most this many generic candidates get exact evaluations per solve.
MAX_GENERIC_EVALS = 2

#: Reorder attempt triggers above this simulated compute-idle fraction.
REORDER_IDLE_THRESHOLD = 0.10

#: Observable search effort, for tests and the ``bench/`` workloads (which
#: read deltas; nothing resets it).
COUNTERS: Dict[str, int] = {
    "searches": 0,
    "exact_evals": 0,
    "disk_hits": 0,
}


@dataclass(frozen=True)
class Objective:
    """What the solver minimizes, and under which machine axes.

    ``metric="traffic"`` minimizes total DRAM bytes (the analytic
    backend's currency) and normalizes the timing axes away so every
    bandwidth sweep shares one cache entry.  ``metric="latency"``
    minimizes simulated runtime on the RPU timing model at the given
    bandwidth / MODOPS scale.
    """

    metric: str = "latency"
    bandwidth_gbs: float = 64.0
    modops_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.metric not in ("latency", "traffic"):
            raise ParameterError(
                f"unknown objective metric {self.metric!r}; "
                "choose 'latency' or 'traffic'"
            )
        if self.metric == "traffic":
            # Traffic is timing-independent: collapse the axes so cache
            # keys (and memo hits) do not fragment across sweeps.
            object.__setattr__(self, "bandwidth_gbs", 64.0)
            object.__setattr__(self, "modops_scale", 1.0)

    @classmethod
    def traffic(cls) -> "Objective":
        return cls(metric="traffic")

    @classmethod
    def latency(cls, bandwidth_gbs: float = 64.0,
                modops_scale: float = 1.0) -> "Objective":
        return cls(metric="latency", bandwidth_gbs=bandwidth_gbs,
                   modops_scale=modops_scale)

    @property
    def unit(self) -> str:
        return "ms" if self.metric == "latency" else "bytes"

    def key_parts(self) -> Tuple[object, ...]:
        return (self.metric, self.bandwidth_gbs, self.modops_scale)


@dataclass(frozen=True)
class ScheduleDecision:
    """Why the solver picked what it picked — the ``--explain`` record."""

    spec_name: str
    decision: HKSDecision
    objective: Objective
    cost: float
    legacy_best: str
    legacy_best_cost: float
    considered: int
    evaluated: int
    reason: str


@dataclass(frozen=True)
class SolvedSchedule:
    """The argmin schedule for one (spec, config, objective), plus the
    timing a backend needs without re-simulating.  Traffic, op and task
    counts are not stored: every reader holds the digest-verified graph
    and reads its running totals."""

    record: ScheduleDecision
    #: Content digest of the schedule's canonical task-graph JSON; warm
    #: rebuilds are verified against it.
    digest: str
    latency_ms: Optional[float] = None
    compute_idle_fraction: Optional[float] = None

    @property
    def decision(self) -> HKSDecision:
        return self.record.decision

    @property
    def cost(self) -> float:
        return self.record.cost


@dataclass(frozen=True, eq=False)
class ScheduleArtifact:
    """A solved schedule paired with its rebuilt graph, for analysis.

    The ``sched`` pass family (:mod:`repro.analysis.sched_passes`)
    validates artifacts: op-count invariance, evk/compulsory traffic
    bounds, SRAM budget and decision legality.  ``eq=False`` keeps the
    dataclass identity-hashed (task graphs and builder stats are not
    value-hashable).
    """

    spec: BenchmarkSpec
    config: DataflowConfig
    solved: SolvedSchedule
    graph: TaskGraph
    stats: BuilderStats = field(repr=False)


# --------------------------------------------------------------------------
# Keys, memo, machine
# --------------------------------------------------------------------------

def clear_memos() -> None:
    """Empty every in-process model memo, wherever it is defined.

    The disk cache is a deployment path and is left alone: a cleared
    process re-reads it, it does not search again.
    """
    for memo in MODEL_MEMOS:
        memo.cache_clear()


def _spec_parts(spec: BenchmarkSpec) -> Tuple[object, ...]:
    return (spec.name, spec.log_n, spec.kl, spec.kp, spec.dnum)


def _config_parts(config: DataflowConfig) -> Tuple[object, ...]:
    return (config.data_sram_bytes, int(config.evk_on_chip),
            int(config.key_compression))


def solve_key(spec: BenchmarkSpec, config: DataflowConfig,
              objective: Objective) -> str:
    """Content address of one solve in :mod:`repro.cache`."""
    return disk_cache.fingerprint(
        ("sched", SCHED_VERSION) + _spec_parts(spec) + _config_parts(config)
        + objective.key_parts()
    )


def machine_for(config: DataflowConfig, objective: Objective) -> RPUConfig:
    """The RPU timing model a latency objective is evaluated under.

    The one mapping from a memory configuration plus machine axes to an
    :class:`RPUConfig` — the backends and the experiment harness use it
    too, so their simulations share :func:`simulated` entries with the
    solver's.
    """
    return RPUConfig(
        bandwidth_bytes_per_s=objective.bandwidth_gbs * 1e9,
        data_sram_bytes=config.data_sram_bytes,
        key_sram_bytes=360 * MB if config.evk_on_chip else 0,
        modops_scale=objective.modops_scale,
    )


#: ``Kind.value`` is a descriptor call; hoisted out of the digest loop.
_KIND_CODE = {k: k.value for k in Kind}


@model_memo
def schedule_digest(graph: TaskGraph) -> str:
    """Deterministic content digest of a schedule.

    Hashes the same fields :meth:`TaskGraph.to_json` serializes: the
    numeric columns (index, bytes, muls, adds, length-prefixed deps) as
    one little-endian int64 stream in task order, the string columns
    NUL-joined — canonical, and an order of magnitude cheaper than
    hashing the JSON blob.  Memoized by graph identity: the store behind
    :func:`decision_graph` hands out one object per key, so digesting it
    again (solve, then verify, then report) costs nothing.
    """
    import numpy as np

    flat: List[int] = []
    extend = flat.extend
    for index, (nbytes, muls, adds, deps) in enumerate(zip(
            graph.bytes_moved, graph.mod_muls, graph.mod_adds, graph.deps)):
        extend((index, nbytes, muls, adds, len(deps)))
        extend(deps)
    h = hashlib.sha256(repr(graph.name).encode("utf-8"))
    h.update(np.array(flat, dtype="<i8").tobytes())
    for column in (
        "\x00".join([_KIND_CODE[kind] for kind in graph.kinds]),
        "\x00".join(graph.labels),
        "\x00".join(graph.traffic_tags),
    ):
        h.update(b"\x01")
        h.update(column.encode("utf-8"))
    return h.hexdigest()[:24]


# --------------------------------------------------------------------------
# Schedule construction (deterministic; shared with warm rebuilds)
# --------------------------------------------------------------------------

@model_memo
def _evict_free(spec: BenchmarkSpec, evk_on_chip: bool, key_compression: bool,
                decision: HKSDecision, pins: int, chunk: int,
                ) -> List[Tuple[TaskGraph, BuilderStats]]:
    """A slot for the one evict-free build of this key, once one is made.

    The key is everything a build reads except the budget's eviction
    comparisons: the budget enters only through the pin count and the
    BConv chunk length.  A build that evicted nothing never found
    ``used + nbytes`` above its budget, so it is the same graph, with the
    same stats, at every budget of at least its ``peak_bytes`` with this
    key; and a build at a budget below that peak must evict, so a key has
    at most one such graph.
    """
    return []


@model_memo
def _built(spec: BenchmarkSpec, config: DataflowConfig,
           decision: HKSDecision) -> Tuple[TaskGraph, BuilderStats]:
    """The schedule store: one build per (spec, config, decision), and one
    per evict-free graph across budgets.

    Schedules depend only on the memory configuration, never on bandwidth
    or MODOPS, so a sweep over machine points, the solver's anchors and
    every backend share one graph object per key.  A budget that an
    evict-free build of the same :func:`_evict_free` key fits gets that
    very graph object, so its digest, simulations and profiles are memo
    hits too.
    """
    budget = config.data_sram_bytes
    slot = _evict_free(
        spec, config.evk_on_chip, config.key_compression, decision,
        pin_capacity(spec, budget),
        bconv_chunk_len(spec, budget, max_bconv_sources(spec)),
    )
    if slot and slot[0][1].peak_bytes <= budget:
        return slot[0]
    built = Dataflow(decision).build_with_stats(spec, config)
    if built[1].evictions == 0:
        slot[:] = [built]
    return built


@model_memo
def _reordered_graph(
    spec: BenchmarkSpec, config: DataflowConfig, decision: HKSDecision,
    objective: Objective,
) -> Tuple[TaskGraph, BuilderStats]:
    base, stats = _built(spec, config, decision)
    better = reorder_for_latency(base, machine_for(config, objective))
    return (better if better is not None else base), stats


def decision_graph(
    spec: BenchmarkSpec, config: DataflowConfig, decision: HKSDecision,
    objective: Objective,
) -> Tuple[TaskGraph, BuilderStats]:
    """The deterministic (graph, builder stats) a decision denotes.

    ``objective`` matters to a re-listed decision only: the list scheduler
    orders the compute queue against that machine.
    """
    if decision.reordered:
        return _reordered_graph(
            spec, config, replace(decision, reordered=False), objective)
    return _built(spec, config, decision)


def solved_graph(
    spec: BenchmarkSpec, config: DataflowConfig, objective: Objective,
    solved: SolvedSchedule,
) -> Tuple[TaskGraph, BuilderStats]:
    """Rebuild a solved schedule and verify it against the stored digest
    (hashed once per graph object: :func:`schedule_digest` is memoised)."""
    graph, stats = decision_graph(spec, config, solved.decision, objective)
    digest = schedule_digest(graph)
    if digest != solved.digest:
        raise ScheduleError(
            f"rebuilt {spec.name} schedule digest {digest} does not match "
            f"the solved digest {solved.digest}; the cached solve is stale "
            f"(bump SCHED_VERSION after emitter changes)"
        )
    return graph, stats


# --------------------------------------------------------------------------
# Exact evaluation
# --------------------------------------------------------------------------

class _Eval(NamedTuple):
    decision: HKSDecision
    graph: TaskGraph
    sim: Optional[SimResult]
    cost: float


@model_memo
def simulated(graph: TaskGraph, machine: RPUConfig) -> SimResult:
    """One replay per (graph, machine): an estimate that already priced OC
    warms the solver's anchor for free, and the other way round."""
    return RPUSimulator(machine).simulate(graph)


def _evaluate(spec: BenchmarkSpec, config: DataflowConfig,
              objective: Objective, decision: HKSDecision) -> _Eval:
    COUNTERS["exact_evals"] += 1
    graph, _ = decision_graph(spec, config, decision, objective)
    if objective.metric == "traffic":
        return _Eval(decision, graph, None, float(graph.total_bytes()))
    sim = simulated(graph, machine_for(config, objective))
    return _Eval(decision, graph, sim, sim.runtime_ms)


def _analysis_clean(graph: TaskGraph) -> bool:
    from repro.analysis import analyze

    return analyze(graph).ok


# --------------------------------------------------------------------------
# Search
# --------------------------------------------------------------------------

def _fmt(cost: float, objective: Objective) -> str:
    if objective.metric == "latency":
        return f"{cost:.3f} ms"
    return f"{cost / MB:.1f} MB"


def _search(spec: BenchmarkSpec, config: DataflowConfig,
            objective: Objective) -> SolvedSchedule:
    candidates = enumerate_decisions(spec, config)
    legacy = [d for d in candidates if d.is_legacy]
    generic = [d for d in candidates if not d.is_legacy]

    evals = [_evaluate(spec, config, objective, d) for d in legacy]
    legacy_best = min(evals, key=lambda e: e.cost)
    best = legacy_best
    evaluated = len(evals)

    def guess(d: HKSDecision) -> float:
        return predict_cost(
            spec, config, d,
            bandwidth_gbs=objective.bandwidth_gbs,
            modops_scale=objective.modops_scale,
            metric=objective.metric,
        )

    # Generic candidates pay for an exact evaluation only when the
    # closed-form guess predicts a real win over the best legacy guess
    # (not the best legacy *actual* — guesses are only comparable to
    # guesses).  On compute-bound configurations every latency guess
    # ties and no generic evaluation happens at all.
    legacy_guess = min(guess(d) for d in legacy)
    if (objective.metric == "latency"
            and legacy_guess <= compute_seconds(
                spec, objective.modops_scale)):
        # The best legacy guess sits on the schedule-invariant compute
        # roofline; every generic guess is >= that floor, so none can
        # clear the GUESS_MARGIN gate.  Skip the ranking outright.
        ranked = []
    else:
        ranked = sorted((guess(d), i, d) for i, d in enumerate(generic))
    budget = MAX_GENERIC_EVALS
    for g, _, d in ranked:
        if budget == 0 or g >= GUESS_MARGIN * legacy_guess:
            break
        cand = _evaluate(spec, config, objective, d)
        evaluated += 1
        budget -= 1
        if cand.cost < best.cost and _analysis_clean(cand.graph):
            best = cand

    # Latency objective only: when the winner leaves the compute queue
    # idle, try re-listing its compute order.  Adopt only on a strict,
    # analysis-clean improvement.
    if (
        objective.metric == "latency"
        and best.sim is not None
        and best.sim.compute_idle_fraction > REORDER_IDLE_THRESHOLD
        and len(best.graph) <= MAX_REORDER_TASKS
    ):
        rdec = replace(best.decision, reordered=True)
        graph2, _ = decision_graph(spec, config, rdec, objective)
        if graph2 is not best.graph:
            sim2 = simulated(graph2, machine_for(config, objective))
            COUNTERS["exact_evals"] += 1
            evaluated += 1
            if sim2.runtime_ms < best.cost and _analysis_clean(graph2):
                best = _Eval(rdec, graph2, sim2, sim2.runtime_ms)

    if best.decision == legacy_best.decision:
        reason = (
            f"hand-written {best.decision.base} stays optimal: none of the "
            f"{len(candidates)} candidates predicted or delivered a win at "
            f"{_fmt(best.cost, objective)}"
        )
    else:
        gain = (1.0 - best.cost / legacy_best.cost) * 100.0
        reason = (
            f"{best.decision.summary()} beats the best hand-written "
            f"dataflow ({legacy_best.decision.base}, "
            f"{_fmt(legacy_best.cost, objective)}) by {gain:.1f}% at "
            f"{_fmt(best.cost, objective)}"
        )

    record = ScheduleDecision(
        spec_name=spec.name,
        decision=best.decision,
        objective=objective,
        cost=best.cost,
        legacy_best=legacy_best.decision.base,
        legacy_best_cost=legacy_best.cost,
        considered=len(candidates),
        evaluated=evaluated,
        reason=reason,
    )
    return SolvedSchedule(
        record=record,
        digest=schedule_digest(best.graph),
        latency_ms=None if best.sim is None else best.sim.runtime_ms,
        compute_idle_fraction=(
            None if best.sim is None else best.sim.compute_idle_fraction
        ),
    )


@model_memo
def _solved(spec: BenchmarkSpec, config: DataflowConfig,
            objective: Objective) -> SolvedSchedule:
    """The content-addressed disk cache, then a timed search."""
    key = solve_key(spec, config, objective)
    payload = disk_cache.load_json("sched", key)
    if payload is not None:
        try:
            hit = codec.from_dict(SolvedSchedule, payload)
        except ParameterError:
            pass  # foreign or corrupt entry: search again
        else:
            COUNTERS["disk_hits"] += 1
            return hit
    COUNTERS["searches"] += 1
    hit = _search(spec, config, objective)
    disk_cache.store_json("sched", key, codec.to_dict(hit))
    return hit


def solve(spec: BenchmarkSpec, config: Optional[DataflowConfig] = None,
          objective: Optional[Objective] = None) -> SolvedSchedule:
    """Best schedule for one (spec, config, objective); cached everywhere.

    Lookup order: the in-process model memo, then the content-addressed
    disk cache, then a timed search.
    """
    return _solved(spec,
                   config if config is not None else DataflowConfig(),
                   objective if objective is not None else Objective())


def artifact(spec: BenchmarkSpec, config: DataflowConfig,
             objective: Objective,
             solved: SolvedSchedule) -> ScheduleArtifact:
    """Pair a solve with its rebuilt graph for the ``sched`` passes."""
    graph, stats = solved_graph(spec, config, objective, solved)
    return ScheduleArtifact(spec=spec, config=config, solved=solved,
                            graph=graph, stats=stats)


# --------------------------------------------------------------------------
# Workload-level convenience (the `repro schedule` CLI)
# --------------------------------------------------------------------------

def solve_workload(workload: str,
                   config: Optional[DataflowConfig] = None,
                   objective: Optional[Objective] = None,
                   ) -> "List[Tuple[BenchmarkSpec, int, SolvedSchedule]]":
    """Solve every distinct HKS spec a workload touches.

    Returns ``(spec, hks_calls, solved)`` rows in first-appearance order,
    aggregating call counts across phases that share a spec.
    """
    # Lazy: the workload builders import repro.sched.space, which runs
    # this package's __init__ before repro.workloads has finished loading.
    from repro.workloads import resolve_workload

    resolved = resolve_workload(workload)
    config = config if config is not None else DataflowConfig()
    objective = objective if objective is not None else Objective()
    order: List[BenchmarkSpec] = []
    calls: Dict[BenchmarkSpec, int] = {}
    if isinstance(resolved, BenchmarkSpec):
        pairs = [(resolved, 1)]
    else:
        pairs = [(phase.spec, phase.hks_calls) for phase in resolved.phases]
    for spec, hks_calls in pairs:
        if spec not in calls:
            order.append(spec)
            calls[spec] = 0
        calls[spec] += hks_calls
    return [
        (spec, calls[spec], solve(spec, config, objective))
        for spec in order
    ]
