"""Pipeline scheduler: steady-state cost of back-to-back HKS calls.

Phase estimates multiply a single-HKS simulation by the call count, which
charges every call the full dependency-stall cost of a cold start.  In
steady state the decoupled queues overlap the *next* call's key and input
streaming with the *current* call's compute tail, so the marginal call is
cheaper than the first.  This module measures that directly: it emits
``calls`` complete HKS instances into **one** schedule builder — buffer
names prefixed per call so the emitters compose without collisions — and
lets the dual-queue simulator price the overlap.

``marginal cost = sim(2 calls) - sim(1 call)``, clamped below by the
busier queue's per-call busy time (no schedule can beat its resource
bound) and above by the single-call runtime (pipelining never hurts an
in-order queue pair).  The builder is append-only, so call 0's tasks are
exactly the first tasks of the two-call schedule and the one-call numbers
are read off that prefix (see :mod:`repro.rpu.simulator`): steady-state
pricing costs one extra build and one replay, cached by the solver per
(schedule digest, machine).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Tuple

from repro.core.dataflow import DataflowConfig, ScheduleBuilder, BuilderStats
from repro.core.stages import OpCount
from repro.core.taskgraph import DATA_TAG, Kind, TaskGraph
from repro.errors import ParameterError
from repro.params import BenchmarkSpec
from repro.sched.generic import DecisionDataflow
from repro.sched.space import HKSDecision


class _PrefixedBuilder:
    """Duck-typed :class:`ScheduleBuilder` view that namespaces buffers.

    Every value name (and label) gets a per-call prefix, so several
    :class:`~repro.core.hks_ops.HKSEmitter` instances can emit into one
    underlying builder — sharing its budget, residency state and task
    queues — without their ``in[t]``/``acc{h}[j]``/... names colliding.
    """

    def __init__(self, inner: ScheduleBuilder, prefix: str):
        self._inner = inner
        self._prefix = prefix

    @property
    def budget(self) -> int:
        return self._inner.budget

    @property
    def graph(self) -> TaskGraph:
        return self._inner.graph

    @property
    def stats(self) -> BuilderStats:
        return self._inner.stats

    def _p(self, name: str) -> str:
        return self._prefix + name

    def define_dram(self, name: str, nbytes: int,
                    traffic_tag: str = DATA_TAG) -> None:
        self._inner.define_dram(self._p(name), nbytes, traffic_tag)

    def free(self, name: str) -> None:
        self._inner.free(self._p(name))

    def set_priority(self, name: str, priority: int) -> None:
        self._inner.set_priority(self._p(name), priority)

    def is_resident(self, name: str) -> bool:
        return self._inner.is_resident(self._p(name))

    def touch(self, name: str) -> List[int]:
        return self._inner.touch(self._p(name))

    def writeback(self, name: str) -> int:
        return self._inner.writeback(self._p(name))

    def compute(self, kind: Kind, inputs: Iterable[str],
                outputs: Iterable[Tuple[str, int]], ops: OpCount,
                label: str = "", output_priority: int = 0,
                extra_deps: Iterable[int] = ()) -> int:
        return self._inner.compute(
            kind,
            [self._p(n) for n in inputs],
            [(self._p(n), b) for n, b in outputs],
            ops,
            label=self._prefix + label if label else label,
            output_priority=output_priority,
            extra_deps=extra_deps,
        )


def pipeline_calls(spec: BenchmarkSpec, config: DataflowConfig,
                   decision: HKSDecision, calls: int,
                   ) -> Tuple[TaskGraph, BuilderStats, List[int]]:
    """:func:`build_pipeline` plus the call boundaries: entry ``c`` is the
    task count once call ``c`` has been emitted, so the graph's first
    ``boundaries[c]`` tasks are the ``c + 1``-call pipeline."""
    from repro.core.hks_ops import HKSEmitter

    if calls < 1:
        raise ParameterError("a pipeline needs at least one call")
    if decision.reordered:
        decision = replace(decision, reordered=False)
    flow = DecisionDataflow(decision)
    builder = ScheduleBuilder(f"{spec.name}/SOLVER-x{calls}",
                              config.data_sram_bytes)
    boundaries: List[int] = []
    for c in range(calls):
        view = _PrefixedBuilder(builder, f"c{c}.")
        flow.schedule(HKSEmitter(view, spec, config))  # type: ignore[arg-type]
        boundaries.append(len(builder.graph))
    builder.graph.validate()
    return builder.graph, builder.stats, boundaries


def build_pipeline(spec: BenchmarkSpec, config: DataflowConfig,
                   decision: HKSDecision,
                   calls: int = 2) -> Tuple[TaskGraph, BuilderStats]:
    """Emit ``calls`` back-to-back HKS instances into one schedule.

    All calls share one builder (one budget, one pair of task queues), so
    simulating the result prices the real steady-state overlap between
    consecutive key switches.  The reorder flag is ignored — pipelining
    measures the emitter's natural order.
    """
    graph, stats, _ = pipeline_calls(spec, config, decision, calls)
    return graph, stats
