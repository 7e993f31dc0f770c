"""Resource-aware list scheduler over finished task graphs.

The builder emits tasks in the dataflow's *generation* order; the RPU
executes each queue in order.  When the compute queue stalls on memory
(idle fraction > 0), a different compute order can hide more of the
stall without changing any data dependence.  This module re-lists the
compute queue with a priority-worklist greedy (the
``BlockBoundedListScheduler`` idiom: rank by longest weighted path to the
sink, dispatch the candidate that can start earliest on its resource),
keeping the memory queue's relative order — and therefore the schedule's
traffic, residency footprint and spill structure — untouched.

Correctness: explicit dependency edges carry all value-flow and
read-modify-write ordering (the builder records producer edges for
in-place accumulator updates), so any topological order of the explicit
DAG is a legal schedule; the rebuilt graph re-validates and the solver
additionally runs the analysis passes before adopting a reordering.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.taskgraph import TaskGraph
from repro.rpu.config import RPUConfig
from repro.rpu.simulator import RPUSimulator

#: Graphs larger than this are not worth the O(n * ready-set) greedy.
MAX_REORDER_TASKS = 6000


def _sink_priorities(graph: TaskGraph, durations: List[float]) -> List[float]:
    """Duration-weighted longest path from each task to any sink.

    Uses explicit dependency edges plus the original same-queue successor
    edge (the in-order queue makes the next task of a queue an effective
    successor), so the rank reflects how much serialized work hangs off
    each task.
    """
    n = len(graph)
    succs: List[List[int]] = [[] for _ in range(n)]
    for i, deps in enumerate(graph.deps):
        for d in deps:
            succs[d].append(i)
    for order in (graph.memory_order, graph.compute_order):
        for prev, i in zip(order, order[1:]):
            succs[prev].append(i)
    rank = [0.0] * n
    for i in range(n - 1, -1, -1):
        tail = max((rank[s] for s in succs[i]), default=0.0)
        rank[i] = durations[i] + tail
    return rank


def reorder_for_latency(graph: TaskGraph,
                        machine: RPUConfig) -> Optional[TaskGraph]:
    """Re-list the compute queue to minimise dual-queue makespan.

    Returns a rebuilt graph in the new emission order, or ``None`` when
    the graph is too large or no reordering is possible.  The memory
    queue keeps its relative order, so byte counts, traffic tags and the
    emitted spill/reload structure are preserved exactly; only compute
    dispatch order (and dependency indices) change.  The caller decides
    adoption by re-simulating.
    """
    n = len(graph)
    if n == 0 or n > MAX_REORDER_TASKS:
        return None
    durations = RPUSimulator(machine).durations(graph)
    rank = _sink_priorities(graph, durations)

    memory_order = graph.memory_order
    is_memory = graph.is_memory
    all_deps = graph.deps
    pending_deps = [len(deps) for deps in all_deps]
    dependents: List[List[int]] = [[] for _ in range(n)]
    for i, deps in enumerate(all_deps):
        for d in deps:
            dependents[d].append(i)

    ready_compute: List[int] = [
        i for i in graph.compute_order if pending_deps[i] == 0
    ]
    mem_pos = 0
    finish = [0.0] * n
    free = {True: 0.0, False: 0.0}  # keyed by the queue flag
    order: List[int] = []

    def start_time(i: int) -> float:
        deps_ready = max((finish[d] for d in all_deps[i]), default=0.0)
        return max(free[is_memory[i]], deps_ready)

    while len(order) < n:
        candidates: List[int] = []
        if mem_pos < len(memory_order):
            head = memory_order[mem_pos]
            if pending_deps[head] == 0:
                candidates.append(head)
        candidates.extend(ready_compute)
        if not candidates:
            return None  # cannot happen on a valid graph; bail safely
        # Earliest achievable start wins; break ties toward the task with
        # the most serialized work behind it, then original order (this
        # keeps the result deterministic and the no-stall case stable).
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

    if order == list(range(n)):
        return None  # nothing changed

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
