"""Dual-queue decoupled RPU simulator.

Replays a :class:`~repro.core.taskgraph.TaskGraph` on the RPU performance
model: one in-order memory queue (DMA to/from DRAM) and one in-order
compute queue (HKS kernels on the HPLEs) execute in parallel; the task at
the head of each queue dispatches as soon as the resource is free and all
its dependencies have completed.  This is precisely the paper's simulation
framework (Section V-C): data prefetching and compute/memory overlap arise
from the decoupling, dependency stalls show up as idle time.

The cost model:

* memory task: ``latency + bytes / bandwidth``;
* compute task: ``modops / (HPLEs * f * scale * efficiency)``, floored by
  the frontend issue rate (one vector instruction per cycle).

The replay reads the graph's columns (see :mod:`repro.core.taskgraph`):
one pass prices every task, a second walks the two dispatch orders
``memory_order`` / ``compute_order`` with one cursor each.

Why replay order cannot change a finish time
--------------------------------------------
A task starts at ``max(finish of its queue predecessor, finish of each
dependency)`` and ends one duration later.  That is a pure function of the
DAG and the durations: which queue the loop happens to advance first only
decides *when the loop learns* a finish time, never its value.  The replay
is therefore confluent — any order that dispatches a head once its
dependencies are known reaches the same ``finish`` column, and gets stuck
(a head waiting on a task behind it in its own queue, or on a task of the
other queue that is itself stuck) on exactly the same graphs with the same
two heads.  ``TaskGraph.add`` only accepts backward dependencies, so built
graphs never deadlock; the check guards hand-made and deserialized ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.taskgraph import DATA_TAG, EVK_TAG, Kind, Task, TaskGraph
from repro.errors import SimulationError
from repro.rpu.config import RPUConfig


@dataclass(frozen=True)
class TaskTiming:
    """Start/end of one task in the simulated timeline."""

    index: int
    kind: str
    label: str
    start: float
    end: float


@dataclass
class SimResult:
    """Outcome of simulating one schedule on one configuration."""

    runtime_s: float
    compute_busy_s: float
    memory_busy_s: float
    total_bytes: int
    data_bytes: int
    evk_bytes: int
    total_modops: int
    num_tasks: int
    config: RPUConfig
    timeline: Optional[List[TaskTiming]] = None

    @property
    def runtime_ms(self) -> float:
        return self.runtime_s * 1e3

    @property
    def compute_idle_fraction(self) -> float:
        """Fraction of the makespan the compute pipes sit idle — the
        paper's "idle time" metric (e.g. 20.87% for DPRIVE OC at 12.8 GB/s)."""
        if self.runtime_s == 0:
            return 0.0
        return 1.0 - self.compute_busy_s / self.runtime_s

    @property
    def memory_idle_fraction(self) -> float:
        if self.runtime_s == 0:
            return 0.0
        return 1.0 - self.memory_busy_s / self.runtime_s

    @property
    def achieved_gbs(self) -> float:
        if self.runtime_s == 0:
            return 0.0
        return self.total_bytes / self.runtime_s / 1e9

    @property
    def achieved_gops(self) -> float:
        if self.runtime_s == 0:
            return 0.0
        return self.total_modops / self.runtime_s / 1e9


#: ``finish`` entry of a task that has not been dispatched yet (simulated
#: times are never negative).
_PENDING = -1.0


class RPUSimulator:
    """Event-driven replay of task graphs under one machine configuration."""

    def __init__(self, config: RPUConfig) -> None:
        self.config = config

    # -- cost model ----------------------------------------------------------------

    def durations(self, graph: TaskGraph) -> List[float]:
        """Duration of every task of ``graph``, in emission order.

        Machine constants are read once and each kind's throughput is
        looked up the first time the kind appears, so a kind the graph
        never uses is never priced (nor validated).
        """
        cfg = self.config
        latency = cfg.memory_latency_s
        bandwidth = cfg.bandwidth_bytes_per_s
        modops_per_s = cfg.effective_modops_per_s
        vector_length = cfg.vector_length
        frequency = cfg.frequency_hz
        throughput: Dict[Kind, float] = {}
        out: List[float] = []
        for kind, memory, nbytes, muls, adds in zip(
                graph.kinds, graph.is_memory, graph.bytes_moved,
                graph.mod_muls, graph.mod_adds):
            if memory:
                out.append(latency + nbytes / bandwidth)
                continue
            rate = throughput.get(kind)
            if rate is None:
                rate = modops_per_s * cfg.kernel_efficiency(kind.value)
                throughput[kind] = rate
            mod_ops = muls + adds
            modops_time = mod_ops / rate
            # Frontend floor: at least one cycle per issued vector instruction.
            issue_time = (mod_ops / vector_length) / frequency
            out.append(issue_time if issue_time > modops_time else modops_time)
        return out

    def task_duration(self, task: Task) -> float:
        """Duration of one task row — ``durations`` for a single task."""
        row = TaskGraph()
        row.add(task.kind, bytes_moved=task.bytes_moved,
                mod_muls=task.mod_muls, mod_adds=task.mod_adds)
        return self.durations(row)[0]

    # -- simulation -----------------------------------------------------------------

    def _replay(
        self, graph: TaskGraph, timeline: Optional[List[TaskTiming]] = None,
    ) -> Tuple[List[float], List[float]]:
        """Run both queues to completion; returns ``(durations, finish)``.

        Each round offers the memory head, then the compute head, one
        dispatch; a round in which neither can go is a deadlock.
        """
        durations = self.durations(graph)
        deps = graph.deps
        finish = [_PENDING] * len(durations)
        orders = (graph.memory_order, graph.compute_order)
        cursor = [0, 0]
        free = [0.0, 0.0]
        remaining = len(durations)
        while remaining:
            progressed = False
            for q in (0, 1):
                order = orders[q]
                if cursor[q] == len(order):
                    continue
                head = order[cursor[q]]
                start = free[q]
                for d in deps[head]:
                    done = finish[d]
                    if done < 0.0:
                        break
                    if done > start:
                        start = done
                else:
                    end = start + durations[head]
                    finish[head] = end
                    free[q] = end
                    cursor[q] += 1
                    remaining -= 1
                    progressed = True
                    if timeline is not None:
                        timeline.append(TaskTiming(
                            head, graph.kinds[head].value, graph.labels[head],
                            start, end))
            if not progressed:
                stuck = [orders[q][cursor[q]] for q in (0, 1)
                         if cursor[q] < len(orders[q])]
                raise SimulationError(
                    f"queues deadlocked at task(s) {stuck}: a queue head "
                    "depends on a later task in the other queue"
                )
        return durations, finish

    def simulate(self, graph: TaskGraph, collect_trace: bool = False) -> SimResult:
        """Run both queues to completion; returns aggregate timing."""
        timeline: Optional[List[TaskTiming]] = [] if collect_trace else None
        durations, finish = self._replay(graph, timeline)
        runtime, compute_busy, memory_busy = _span(graph, durations, finish)
        return SimResult(
            runtime_s=runtime,
            compute_busy_s=compute_busy,
            memory_busy_s=memory_busy,
            total_bytes=graph.total_bytes(),
            data_bytes=graph.total_bytes(DATA_TAG),
            evk_bytes=graph.total_bytes(EVK_TAG),
            total_modops=graph.total_mod_ops(),
            num_tasks=len(graph),
            config=self.config,
            timeline=timeline,
        )


def _busy(durations: List[float], order: Sequence[int]) -> float:
    """A queue's busy time, summed in dispatch order (an explicit loop:
    ``sum()`` compensates float additions on newer interpreters and would
    change the last bits)."""
    busy = 0.0
    for i in order:
        busy += durations[i]
    return busy


def _span(graph: TaskGraph, durations: List[float],
          finish: List[float]) -> Tuple[float, float, float]:
    """Makespan, compute-busy and memory-busy time; a queue is free again
    when its last task ends."""
    mem, comp = graph.memory_order, graph.compute_order
    free = [finish[order[-1]] if order else 0.0 for order in (mem, comp)]
    return max(free), _busy(durations, comp), _busy(durations, mem)


def lower_bounds(graph: TaskGraph, config: RPUConfig) -> Tuple[float, float]:
    """(memory-only, compute-only) runtime lower bounds for one schedule.

    Any simulated makespan must be at least the larger of the two; the gap
    to the simulated value is dependency stall.
    """
    durations = RPUSimulator(config).durations(graph)
    return (_busy(durations, graph.memory_order),
            _busy(durations, graph.compute_order))
