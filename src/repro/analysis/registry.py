"""Pass registry and the ``analyze()`` entry point.

Passes register against an object *family* — ``"plan"``
(:class:`~repro.api.plan.Plan`), ``"workload"``
(:class:`~repro.workloads.ir.WorkloadProgram`), ``"graph"``
(:class:`~repro.core.taskgraph.TaskGraph`) or ``"sched"``
(:class:`~repro.sched.solver.ScheduleArtifact`).  ``analyze(obj)`` dispatches
on the object's type, runs every registered pass of the matching family
and folds the diagnostics into one
:class:`~repro.analysis.diagnostics.AnalysisReport`.  Analyzing a plan
recurses into its workload program, so one call covers the whole
request.

Analysis is read-only by contract: no pass may mutate the object it
inspects (the test suite checks plan digests and canonical JSON across
``analyze()``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.errors import ParameterError
from repro.params import MB

#: The known pass families, in dispatch-priority order.
FAMILIES = ("plan", "workload", "graph", "sched")


@dataclass(frozen=True)
class AnalysisContext:
    """Machine/model assumptions the passes check against.

    Defaults mirror the RPU configuration
    (:class:`~repro.rpu.config.RPUConfig`): a 32 MB data SRAM.  Callers
    checking against a differently sized machine pass their own context.
    """

    #: On-chip data SRAM budget for schedule resource checks.
    data_sram_bytes: int = 32 * MB


PassFn = Callable[[object, AnalysisContext], Iterable[Diagnostic]]


@dataclass(frozen=True)
class AnalysisPass:
    """One registered pass: an id, the family it inspects, and its body."""

    pass_id: str
    family: str
    title: str
    fn: PassFn


_REGISTRY: Dict[str, List[AnalysisPass]] = {family: [] for family in FAMILIES}


def analysis_pass(pass_id: str, family: str,
                  title: str) -> Callable[[PassFn], PassFn]:
    """Decorator registering ``fn(obj, context) -> Iterable[Diagnostic]``."""
    if family not in FAMILIES:
        raise ParameterError(
            f"unknown pass family {family!r}; choose from {FAMILIES}"
        )

    def decorate(fn: PassFn) -> PassFn:
        if any(p.pass_id == pass_id for p in _REGISTRY[family]):
            raise ParameterError(f"duplicate analysis pass id {pass_id!r}")
        _REGISTRY[family].append(AnalysisPass(pass_id, family, title, fn))
        return fn

    return decorate


def registered_passes(family: Optional[str] = None) -> List[AnalysisPass]:
    """The registered passes (of one family, or all of them)."""
    if family is not None:
        if family not in FAMILIES:
            raise ParameterError(
                f"unknown pass family {family!r}; choose from {FAMILIES}"
            )
        return list(_REGISTRY[family])
    return [p for fam in FAMILIES for p in _REGISTRY[fam]]


def _family_of(obj: object) -> Optional[str]:
    from repro.api.plan import Plan
    from repro.core.taskgraph import TaskGraph
    from repro.sched.solver import ScheduleArtifact
    from repro.workloads.ir import WorkloadProgram

    if isinstance(obj, Plan):
        return "plan"
    if isinstance(obj, WorkloadProgram):
        return "workload"
    if isinstance(obj, TaskGraph):
        return "graph"
    if isinstance(obj, ScheduleArtifact):
        return "sched"
    return None


def _subject_of(obj: object, family: str) -> str:
    if family == "plan":
        return f"plan {getattr(obj, 'name', '?')}"
    if family == "workload":
        return f"workload {getattr(obj, 'name', '?')}"
    if family == "sched":
        spec = getattr(obj, "spec", None)
        name = getattr(spec, "name", "?")
        return f"solved schedule {name}"
    name = getattr(obj, "name", "") or "<unnamed>"
    return f"task graph {name}"


def analyze(obj: object, *, context: Optional[AnalysisContext] = None,
            passes: Optional[Sequence[str]] = None) -> AnalysisReport:
    """Run every registered pass that applies to ``obj``.

    Dispatches on type: plans, workload programs, task graphs and solved
    schedules.  Analyzing a :class:`~repro.api.plan.Plan` also analyzes its
    workload program (a plan over a bare
    :class:`~repro.params.BenchmarkSpec` has no program-level structure
    to check).  ``passes`` optionally restricts to specific pass ids (or
    ``"family."`` prefixes).  Never mutates ``obj``.
    """
    from repro.workloads.ir import WorkloadProgram

    family = _family_of(obj)
    if family is None:
        from repro.params import BenchmarkSpec

        if isinstance(obj, BenchmarkSpec):
            # A bare benchmark spec is validated at construction; there
            # is no cross-phase structure for passes to check.
            return AnalysisReport(f"benchmark {obj.name}", ())
        raise ParameterError(
            f"analyze() supports Plan, WorkloadProgram, TaskGraph and "
            f"ScheduleArtifact, got {type(obj).__name__}"
        )
    ctx = context or AnalysisContext()
    diags: List[Diagnostic] = []
    for a_pass in _REGISTRY[family]:
        if passes is not None and not any(
            a_pass.pass_id == p or (p.endswith(".") and
                                    a_pass.pass_id.startswith(p))
            for p in passes
        ):
            continue
        diags.extend(a_pass.fn(obj, ctx))
    if family == "plan" and isinstance(obj.workload, WorkloadProgram):
        sub = analyze(obj.workload, context=ctx, passes=passes)
        diags.extend(sub.diagnostics)
    return AnalysisReport(_subject_of(obj, family), tuple(diags))


def verify(obj: object, *, context: Optional[AnalysisContext] = None,
           passes: Optional[Sequence[str]] = None) -> AnalysisReport:
    """``analyze()`` that raises :class:`~repro.errors.AnalysisError`
    when any error-severity diagnostic is found; returns the (clean or
    warning-only) report otherwise."""
    return analyze(obj, context=context, passes=passes).raise_if_errors()
