"""Resource-aware list scheduler over finished task graphs.

The builder emits tasks in the dataflow's *generation* order; the RPU
executes each queue in order.  When the compute queue stalls on memory
(idle fraction > 0), a different compute order can hide more of the
stall without changing any data dependence.  This module re-lists the
compute queue with a priority-worklist greedy (the
``BlockBoundedListScheduler`` idiom: rank by longest weighted path to the
sink, dispatch the candidate that can start earliest on its resource),
keeping the memory queue's relative order — and therefore the schedule's
traffic, residency footprint and spill structure — untouched.  Ready
compute tasks wait in two heaps (startable when the compute queue frees,
and waiting on a dependency), so a step costs O(log n) rather than a scan
of the ready set; ``tests/test_columnar_oracles.py`` keeps the scan as
the oracle the heaps must match task for task.

Correctness: explicit dependency edges carry all value-flow and
read-modify-write ordering (the builder records producer edges for
in-place accumulator updates), so any topological order of the explicit
DAG is a legal schedule; the rebuilt graph re-validates and the solver
additionally runs the analysis passes before adopting a reordering.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.core.taskgraph import TaskGraph
from repro.rpu.config import RPUConfig
from repro.rpu.simulator import RPUSimulator

#: Graphs larger than this are not re-listed.  The cap once bounded the
#: scan-based greedy's O(n x ready-set) cost; the heaps made that cheap,
#: but the cap stays because it is part of the solver's model: above it
#: a winner is never re-listed, and lifting it would let SOLVER adopt
#: re-listings there, moving those reports.  No registered workload's
#: MP/DC/OC graph reaches it at 16-128 MB (the largest, BTS2's MP at
#: 17 MB with streamed keys, has 5,476 tasks); at 8 MB BTS2's and BTS3's
#: MP graphs with streamed keys do (6,436 and 7,331).
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

    Each step dispatches the candidate with the least ``(start, -rank,
    index)``: the memory queue's head once its deps are done, or a ready
    compute task.  A ready compute task's dependencies are finished, so
    its ready time ``r`` is fixed and it starts at ``max(free, r)`` where
    ``free`` is when the compute queue frees.  Two heaps hold them:
    ``now`` the tasks with ``r <= free`` (all start at ``free``, so keyed
    ``(-rank, index)``) and ``later`` the rest, keyed ``(r, -rank,
    index)``.  ``free`` only grows, so tasks move from ``later`` to ``now``
    and never back; the compute candidate is the top of ``now`` if any,
    else the top of ``later``.  That is the task a scan of every
    candidate picks, in O(log n) a step.
    """
    n = len(graph)
    if n == 0 or n > MAX_REORDER_TASKS:
        return None
    durations = RPUSimulator(machine).durations(graph)
    rank = _sink_priorities(graph, durations)
    neg_rank = [-r for r in rank]

    memory_order = graph.memory_order
    is_memory = graph.is_memory
    all_deps = graph.deps
    pending_deps = [len(deps) for deps in all_deps]
    dependents: List[List[int]] = [[] for _ in range(n)]
    for i, deps in enumerate(all_deps):
        for d in deps:
            dependents[d].append(i)

    finish = [0.0] * n
    free_memory = free_compute = 0.0
    now: List[Tuple[float, int]] = []
    later: List[Tuple[float, float, int]] = []
    for i in graph.compute_order:
        if pending_deps[i] == 0:
            now.append((neg_rank[i], i))  # no deps: ready at 0.0 <= free
    heapq.heapify(now)
    mem_pos = 0
    mem_count = len(memory_order)
    order: List[int] = []

    while len(order) < n:
        while later and later[0][0] <= free_compute:
            _, key, i = heapq.heappop(later)
            heapq.heappush(now, (key, i))
        if now:
            key, i = now[0]
            best = (free_compute, key, i)
        elif later:
            best = later[0]
        else:
            best = None
        if mem_pos < mem_count:
            head = memory_order[mem_pos]
            if pending_deps[head] == 0:
                ready = max((finish[d] for d in all_deps[head]), default=0.0)
                cand = (max(free_memory, ready), neg_rank[head], head)
                if best is None or cand < best:
                    best = cand
        if best is None:
            return None  # cannot happen on a valid graph; bail safely
        start, _, chosen = best
        end = finish[chosen] = start + durations[chosen]
        order.append(chosen)
        if is_memory[chosen]:
            free_memory = end
            mem_pos += 1
        else:
            free_compute = end
            heapq.heappop(now if now and now[0][1] == chosen else later)
        for dep in dependents[chosen]:
            pending_deps[dep] -= 1
            if pending_deps[dep] == 0 and not is_memory[dep]:
                ready = max(finish[d] for d in all_deps[dep])
                if ready <= free_compute:
                    heapq.heappush(now, (neg_rank[dep], dep))
                else:
                    heapq.heappush(later, (ready, neg_rank[dep], dep))

    if order == list(range(n)):
        return None  # nothing changed

    remap = [0] * n
    for new, old in enumerate(order):
        remap[old] = new
    out = TaskGraph(graph.name)
    kinds, bytes_moved = graph.kinds, graph.bytes_moved
    mod_muls, mod_adds = graph.mod_muls, graph.mod_adds
    labels, tags = graph.labels, graph.traffic_tags
    for old in order:
        out._append(
            kinds[old], is_memory[old], bytes_moved[old], mod_muls[old],
            mod_adds[old], tuple(sorted([remap[d] for d in all_deps[old]])),
            labels[old], tags[old],
        )
    out.validate()
    return out
