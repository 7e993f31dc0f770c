"""Report-level schedule statistics, uniform across backends.

Distinct from the *builder-level* :class:`repro.core.dataflow.
BuilderStats` (peak bytes / spills / reloads tracked while emitting):
this module derives comparable per-queue occupancy, critical-path length
and SRAM high-water numbers for any finished schedule, so a
:class:`~repro.api.backends.RunReport` can carry the same structural
summary whether it came from the analytic model, the RPU simulator, or
the solver.

Occupancy uses the same first-order timing model as the RPU simulator's
lower bounds: queue busy time over the span of the longer queue.  It is a
*structural* measure (how balanced is the schedule), not a re-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.taskgraph import TaskGraph
from repro.rpu.config import RPUConfig
from repro.sched.memo import model_memo


@dataclass(frozen=True)
class ScheduleStats:
    """Structural summary of one schedule under one machine model."""

    compute_tasks: int = 0
    memory_tasks: int = 0
    #: Longest dependency chain, counted in tasks (unit weights).
    critical_path_tasks: int = 0
    #: Peak on-chip data footprint while the schedule was emitted.
    sram_high_water_bytes: int = 0
    #: Queue busy time / schedule span, in [0, 1].
    compute_occupancy: float = 0.0
    memory_occupancy: float = 0.0

    # -- composition --------------------------------------------------------------

    def scaled(self, calls: int) -> "ScheduleStats":
        """The stats of ``calls`` back-to-back runs of this schedule."""
        if calls <= 1:
            return self
        return ScheduleStats(
            compute_tasks=self.compute_tasks * calls,
            memory_tasks=self.memory_tasks * calls,
            critical_path_tasks=self.critical_path_tasks * calls,
            sram_high_water_bytes=self.sram_high_water_bytes,
            compute_occupancy=self.compute_occupancy,
            memory_occupancy=self.memory_occupancy,
        )

    def plus_tasks(self, memory: int, compute: int,
                   critical: int) -> "ScheduleStats":
        """Add extra work (e.g. pointwise-op graphs) task-count-wise."""
        if not (memory or compute or critical):
            return self
        return ScheduleStats(
            compute_tasks=self.compute_tasks + compute,
            memory_tasks=self.memory_tasks + memory,
            critical_path_tasks=self.critical_path_tasks + critical,
            sram_high_water_bytes=self.sram_high_water_bytes,
            compute_occupancy=self.compute_occupancy,
            memory_occupancy=self.memory_occupancy,
        )


def fold(stats: "list[ScheduleStats]") -> ScheduleStats:
    """Combine per-phase stats into a program-level summary.

    Task counts and critical paths add (phases run back to back); the
    high-water mark is the max; occupancies are task-weighted averages so
    heavy phases dominate, mirroring the latency-weighted idle fold the
    backends apply to per-phase reports.
    """
    stats = [s for s in stats if s is not None]
    if not stats:
        return ScheduleStats()
    total_tasks = sum(s.compute_tasks + s.memory_tasks for s in stats)

    def weighted(field: str) -> float:
        if total_tasks == 0:
            return 0.0
        acc = sum(
            getattr(s, field) * (s.compute_tasks + s.memory_tasks)
            for s in stats
        )
        return acc / total_tasks

    return ScheduleStats(
        compute_tasks=sum(s.compute_tasks for s in stats),
        memory_tasks=sum(s.memory_tasks for s in stats),
        critical_path_tasks=sum(s.critical_path_tasks for s in stats),
        sram_high_water_bytes=max(s.sram_high_water_bytes for s in stats),
        compute_occupancy=weighted("compute_occupancy"),
        memory_occupancy=weighted("memory_occupancy"),
    )


@model_memo
def _graph_profile(graph: TaskGraph) -> "tuple[int, int, int, int, int]":
    """(mem_tasks, comp_tasks, critical_path, bytes, mod_ops) for a graph.

    Memoised by graph object identity — every graph comes out of the
    schedule store (or the point-wise graph memo), so repeated reports
    over the same schedule profile it once.  The critical path is the
    longest dependency chain in tasks.
    """
    depth: "list[int]" = []
    longest = 0
    for deps in graph.deps:
        d = 1
        for i in deps:
            if depth[i] >= d:
                d = depth[i] + 1
        depth.append(d)
        if d > longest:
            longest = d
    muls, adds = graph.mod_muls, graph.mod_adds
    compute_ops = sum(muls[i] + adds[i] for i in graph.compute_order)
    return (len(graph.memory_order), len(graph.compute_order), longest,
            graph.total_bytes(), compute_ops)


def graph_task_counts(graph: TaskGraph) -> "tuple[int, int, int]":
    """(memory_tasks, compute_tasks, critical_path_tasks) of a graph."""
    mem, comp, critical, _, _ = _graph_profile(graph)
    return mem, comp, critical


def from_graph(graph: TaskGraph, machine: RPUConfig,
               high_water_bytes: int = 0,
               latency_s: Optional[float] = None) -> ScheduleStats:
    """Profile a finished schedule under one machine model.

    ``high_water_bytes`` comes from the builder stats when the schedule
    was emitted under the memory model (0 for synthetic graphs).  When a
    simulated ``latency_s`` is known it defines the span; otherwise the
    span is the longer queue's busy time (the analytic lower bound).
    """
    mem, comp, critical, total_bytes, total_ops = _graph_profile(graph)
    mem_time = (total_bytes / machine.bandwidth_bytes_per_s
                + mem * machine.memory_latency_s)
    comp_time = total_ops / machine.effective_modops_per_s
    span = max(mem_time, comp_time, 1e-30)
    if latency_s is not None:
        span = max(span, latency_s)
    return ScheduleStats(
        compute_tasks=comp,
        memory_tasks=mem,
        critical_path_tasks=critical,
        sram_high_water_bytes=high_water_bytes,
        compute_occupancy=min(1.0, comp_time / span),
        memory_occupancy=min(1.0, mem_time / span),
    )
