"""Static checks over HKS task graphs (the MP/DC/OC schedules).

A :class:`~repro.core.taskgraph.TaskGraph` executes as two in-order
queues plus cross-queue dependencies, so its legality is decidable
without simulating it:

* ``graph.structure`` — indices are positional, dependencies point
  strictly backward (the only way a cycle can exist in this IR), memory
  tasks move bytes and compute tasks do work.  ``TaskGraph.add()``
  enforces these at build time; this pass re-checks them on graphs that
  arrived through deserialization or hand mutation.
* ``graph.buffer-race`` — two tasks that *write* the same on-chip
  buffer must be ordered (one reachable from the other through
  dependencies or same-queue program order), else the simulator's
  outcome depends on dispatch timing.  Buffer identities come from the
  schedule's label conventions (``"load X"`` and compute labels ending
  in ``"-> X"`` write X; ``"store X"``/``"spill X"`` read it).
* ``graph.resources`` — a single transfer larger than the data SRAM can
  never fit, and a compute task whose direct load dependencies jointly
  exceed the SRAM cannot have all operands resident at once.  Peak
  per-task operand footprint is reported as an INFO metric.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.analysis.diagnostics import Diagnostic, error, info
from repro.analysis.registry import AnalysisContext, analysis_pass
from repro.core.taskgraph import Kind, TaskGraph


def _task_loc(graph: TaskGraph, index: int) -> str:
    label = graph.labels[index]
    return f"task[{index}] {label!r}" if label else f"task[{index}]"


def _ragged_columns(graph: TaskGraph) -> Dict[str, int]:
    """Columns whose length is not the task count (name -> length).

    A task's index is its list position in every column, so a hand-grown
    column breaks the index <-> position identity; ``graph.structure``
    reports it and the other passes, which index across columns, stand
    down.
    """
    columns = {
        "is_memory": graph.is_memory, "bytes_moved": graph.bytes_moved,
        "mod_muls": graph.mod_muls, "mod_adds": graph.mod_adds,
        "deps": graph.deps, "labels": graph.labels,
        "traffic_tags": graph.traffic_tags,
    }
    return {name: len(column) for name, column in columns.items()
            if len(column) != len(graph)}


@analysis_pass("graph.structure", "graph",
               "indices, dependencies and per-queue work are consistent")
def check_structure(graph: TaskGraph,
                    ctx: AnalysisContext) -> Iterator[Diagnostic]:
    pid = "graph.structure"
    n = len(graph)
    ragged = _ragged_columns(graph)
    if ragged:
        yield error(pid, f"graph ({n} tasks)",
                    f"columns disagree on the list position count: "
                    f"{n} kinds but {ragged}",
                    hint="rebuild the graph through TaskGraph.add()")
        return
    for position, (memory, nbytes, muls, adds, deps) in enumerate(zip(
            graph.is_memory, graph.bytes_moved, graph.mod_muls,
            graph.mod_adds, graph.deps)):
        for dep in deps:
            if not 0 <= dep < n:
                yield error(pid, _task_loc(graph, position),
                            f"dependency {dep} does not name a task")
            elif dep >= position:
                yield error(
                    pid, _task_loc(graph, position),
                    f"dependency {dep} does not precede the task — the "
                    f"two queues would deadlock waiting on each other",
                    hint="dependencies must point strictly backward in "
                         "emission order",
                )
        if memory and nbytes <= 0:
            yield error(pid, _task_loc(graph, position),
                        "memory task moves no bytes")
        if not memory and muls + adds <= 0:
            yield error(pid, _task_loc(graph, position),
                        "compute task performs no modular work")


def written_buffer(kind: Kind, label: str) -> Optional[str]:
    """The on-chip buffer a task writes, per the label conventions.

    Loads write the buffer they fetch (``"load X"``); compute tasks
    write the destination named after ``"->"`` in labels like
    ``"ModUp.P3 ntt d0->t7"``.  Stores and spills *read* on-chip state,
    and unlabeled tasks are unknown — both return ``None``.
    """
    label = label.strip()
    if not label:
        return None
    if kind is Kind.LOAD:
        if label.startswith("load "):
            return label[len("load "):].strip() or None
        return None
    if kind is Kind.STORE:
        return None
    if "->" in label:
        target = label.rsplit("->", 1)[1].strip()
        return target.split()[0] if target else None
    return None


def _reachability(graph: TaskGraph) -> List[int]:
    """Ancestor bitsets over deps plus same-queue program order.

    ``reach[i]`` has bit ``j`` set iff task ``j`` is ``i`` or must
    complete before ``i`` starts (the queues dispatch in order, so a
    task's same-queue predecessor is an implicit dependency).
    """
    reach: List[int] = []
    prev_in_queue: Dict[bool, int] = {}
    for index, (memory, deps) in enumerate(zip(graph.is_memory, graph.deps)):
        bits = 1 << index
        pred = prev_in_queue.get(memory)
        if pred is not None:
            bits |= reach[pred]
        for dep in deps:
            if 0 <= dep < index:
                bits |= reach[dep]
        reach.append(bits)
        prev_in_queue[memory] = index
    return reach


#: Above this task count the O(n^2/64) reachability bitsets get heavy;
#: the race pass degrades to an INFO rather than silently skipping.
RACE_CHECK_TASK_LIMIT = 50_000


@analysis_pass("graph.buffer-race", "graph",
               "concurrent writers of one buffer are ordered")
def check_buffer_races(graph: TaskGraph,
                       ctx: AnalysisContext) -> Iterator[Diagnostic]:
    pid = "graph.buffer-race"
    if _ragged_columns(graph):
        return
    writers: Dict[str, List[int]] = {}
    for index, (kind, label) in enumerate(zip(graph.kinds, graph.labels)):
        buffer = written_buffer(kind, label)
        if buffer is not None:
            writers.setdefault(buffer, []).append(index)
    if not any(len(tasks) > 1 for tasks in writers.values()):
        return
    if len(graph) > RACE_CHECK_TASK_LIMIT:
        yield info(pid, f"graph ({len(graph)} tasks)",
                   f"race check skipped above {RACE_CHECK_TASK_LIMIT} "
                   f"tasks")
        return
    reach = _reachability(graph)
    for buffer, tasks in sorted(writers.items()):
        for first, second in zip(tasks, tasks[1:]):
            if not reach[second] >> first & 1:
                yield error(
                    pid, _task_loc(graph, second),
                    f"writes buffer {buffer!r} concurrently with "
                    f"{_task_loc(graph, first)}: neither orders the other, "
                    f"so the surviving value depends on dispatch timing",
                    hint="add a dependency between the writers",
                )


@analysis_pass("graph.resources", "graph",
               "transfers and per-task operand sets fit the data SRAM")
def check_resources(graph: TaskGraph,
                    ctx: AnalysisContext) -> Iterator[Diagnostic]:
    pid = "graph.resources"
    if _ragged_columns(graph):
        return
    budget = ctx.data_sram_bytes
    nbytes = graph.bytes_moved
    load_bytes: Dict[int, int] = {}
    for index in graph.memory_order:
        if graph.kinds[index] is Kind.LOAD:
            load_bytes[index] = nbytes[index]
        if nbytes[index] > budget:
            yield error(
                pid, _task_loc(graph, index),
                f"single transfer of {nbytes[index]} bytes "
                f"exceeds the {budget}-byte data SRAM",
                hint="tile the transfer or raise "
                     "AnalysisContext.data_sram_bytes",
            )
    peak = 0
    peak_task: Optional[int] = None
    for index in graph.compute_order:
        operand_bytes = sum(load_bytes.get(d, 0) for d in graph.deps[index])
        if operand_bytes > peak:
            peak, peak_task = operand_bytes, index
        if operand_bytes > budget:
            yield error(
                pid, _task_loc(graph, index),
                f"direct load operands total {operand_bytes} bytes, "
                f"over the {budget}-byte data SRAM — they can never be "
                f"resident together",
            )
    if peak_task is not None:
        yield info(
            pid, _task_loc(graph, peak_task),
            f"peak per-task operand footprint {peak} bytes "
            f"({peak / budget:.1%} of the data SRAM)",
        )
