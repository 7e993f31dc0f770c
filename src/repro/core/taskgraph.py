"""Task-graph intermediate representation for HKS schedules.

A schedule is two in-order queues — memory tasks and compute tasks — plus
cross-queue dependencies, exactly the structure of the paper's software
framework (Section V-C): *"The framework has two distinct queues, one for
memory tasks and one for compute tasks.  The tasks at the front of each
queue are fetched and executed in parallel once all the task's dependencies
are resolved."*

Compute tasks carry modular-operation counts; memory tasks carry byte
counts.  The RPU simulator in :mod:`repro.rpu` turns these into time.

Column layout
-------------
A graph of ``n`` tasks is stored as flat columns, one entry per task in
emission order; the task index *is* the position, so no index is stored:

====================  ==========================  ============================
column                type                        entry ``i``
====================  ==========================  ============================
``kinds``             ``List[Kind]``              what task ``i`` does
``is_memory``         ``List[bool]``              queue flag (``kind.queue``)
``bytes_moved``       ``List[int]``               DRAM bytes (memory tasks)
``mod_muls``          ``List[int]``               modular multiplies
``mod_adds``          ``List[int]``               modular adds
``deps``              ``List[Tuple[int, ...]]``   sorted, de-duplicated deps
``labels``            ``List[str]``               trace label
``traffic_tags``      ``List[str]``               ``"evk"`` / ``"data"``
====================  ==========================  ============================

plus the two dispatch orders ``memory_order`` / ``compute_order`` (the
ascending task indices of each queue) and running totals, so traffic, op
and per-queue task counts are O(1).  Everything that walks a schedule
(simulator, builder statistics, digests, the list scheduler, the analysis
passes) reads the columns; :class:`Task` is a row *view* built on demand
by ``graph.tasks[i]`` / iteration, for tools and tests that want one task
as an object.  :meth:`TaskGraph.add` (and its unchecked core
``_append``, for writers that validate once at the end) is the only
writer that keeps columns and totals consistent; code that mutates a
column by hand (the analysis tests do, to manufacture corrupt graphs)
gets what ``graph.structure`` reports.
"""

from __future__ import annotations

import enum
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union, overload,
)

from repro.errors import ScheduleError


class Queue(enum.Enum):
    """Which in-order queue a task is dispatched from."""

    MEMORY = "memory"
    COMPUTE = "compute"


class Kind(enum.Enum):
    """Task kinds; memory kinds move towers, compute kinds are HKS kernels."""

    LOAD = "load"
    STORE = "store"
    INTT = "intt"
    NTT = "ntt"
    BCONV = "bconv"
    MULKEY = "mulkey"
    ACCUM = "accum"
    PWISE = "pwise"

    #: The queue that dispatches this kind — a per-member constant.
    queue: Queue

    def __init__(self, value: str) -> None:
        self.queue = Queue.MEMORY if value in ("load", "store") else Queue.COMPUTE

    # Members are singletons compared by identity, so the identity hash is
    # consistent with ``==``; it is a C slot, where ``Enum.__hash__`` is a
    # Python-level ``hash(self._name_)`` paid on every per-task table lookup.
    __hash__ = object.__hash__


_MEMORY = Queue.MEMORY

#: Kinds that stream evaluation-key towers (charged to the evk traffic bucket).
EVK_TAG = "evk"
DATA_TAG = "data"


class Task:
    """One unit of scheduled work — a row of a :class:`TaskGraph`.

    Attributes
    ----------
    index:
        Position in the overall emission order (unique id).
    kind / queue:
        What the task does and which queue dispatches it.
    bytes_moved:
        DRAM bytes for LOAD/STORE tasks (0 for compute tasks).
    mod_muls / mod_adds:
        Modular multiply / add counts for compute tasks.
    deps:
        Indices of tasks that must complete before this task may start.
    label:
        Human-readable description ("ModUp.P2 d1 -> t7"), used in traces.
    traffic_tag:
        ``"evk"`` for key streaming, ``"data"`` otherwise; Table II splits
        traffic by this tag.
    """

    __slots__ = ("index", "kind", "queue", "bytes_moved", "mod_muls",
                 "mod_adds", "deps", "label", "traffic_tag")

    def __init__(
        self,
        index: int,
        kind: Kind,
        bytes_moved: int = 0,
        mod_muls: int = 0,
        mod_adds: int = 0,
        deps: Tuple[int, ...] = (),
        label: str = "",
        traffic_tag: str = DATA_TAG,
    ) -> None:
        self.index = index
        self.kind = kind
        self.queue = kind.queue
        self.bytes_moved = bytes_moved
        self.mod_muls = mod_muls
        self.mod_adds = mod_adds
        self.deps = deps
        self.label = label
        self.traffic_tag = traffic_tag

    @property
    def mod_ops(self) -> int:
        return self.mod_muls + self.mod_adds

    def _fields(self) -> Tuple[object, ...]:
        return (self.index, self.kind, self.bytes_moved, self.mod_muls,
                self.mod_adds, self.deps, self.label, self.traffic_tag)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Task):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]  # mutable record, like the dataclass it was

    def __repr__(self) -> str:
        return (
            f"Task(index={self.index}, kind={self.kind}, "
            f"bytes_moved={self.bytes_moved}, mod_muls={self.mod_muls}, "
            f"mod_adds={self.mod_adds}, deps={self.deps}, "
            f"label={self.label!r}, traffic_tag={self.traffic_tag!r})"
        )


class _TaskRows(Sequence[Task]):
    """``graph.tasks``: the columns seen as a read-only sequence of rows."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "TaskGraph") -> None:
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph)

    @overload
    def __getitem__(self, index: int) -> Task: ...

    @overload
    def __getitem__(self, index: slice) -> List[Task]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Task, List[Task]]:
        # A range does the index arithmetic (negatives, slices, IndexError).
        positions = range(len(self._graph))[index]
        if isinstance(positions, range):
            return [self._graph.row(i) for i in positions]
        return self._graph.row(positions)


class TaskGraph:
    """An append-only schedule: two in-order queues plus a dependency DAG."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.kinds: List[Kind] = []
        self.is_memory: List[bool] = []
        self.bytes_moved: List[int] = []
        self.mod_muls: List[int] = []
        self.mod_adds: List[int] = []
        self.deps: List[Tuple[int, ...]] = []
        self.labels: List[str] = []
        self.traffic_tags: List[str] = []
        #: Ascending task indices of each queue — its dispatch order.
        self.memory_order: List[int] = []
        self.compute_order: List[int] = []
        # Running totals: DRAM bytes of memory tasks per traffic tag, and
        # modular ops over all tasks.
        self._bytes_by_tag: Dict[str, int] = {}
        self._mod_muls = 0
        self._mod_adds = 0

    # -- construction -------------------------------------------------------------

    def add(
        self,
        kind: Kind,
        *,
        bytes_moved: int = 0,
        mod_muls: int = 0,
        mod_adds: int = 0,
        deps: Iterable[int] = (),
        label: str = "",
        traffic_tag: str = DATA_TAG,
    ) -> int:
        """Append a task; returns its index."""
        index = len(self.kinds)
        norm = tuple(sorted(set(map(int, deps))))
        if norm and (norm[0] < 0 or norm[-1] >= index):
            for d in norm:
                if not 0 <= d < index:
                    raise ScheduleError(
                        f"task {index} ({label!r}) depends on invalid task {d}"
                    )
        return self._append(kind, kind.queue is _MEMORY, bytes_moved,
                            mod_muls, mod_adds, norm, label, traffic_tag)

    def _append(
        self,
        kind: Kind,
        memory: bool,
        bytes_moved: int,
        mod_muls: int,
        mod_adds: int,
        deps: Tuple[int, ...],
        label: str,
        traffic_tag: str,
    ) -> int:
        """:meth:`add` for writers whose ``deps`` are already a sorted,
        de-duplicated tuple of earlier tasks and whose ``memory`` flag is
        ``kind.queue is Queue.MEMORY`` (the schedule builder and the list
        scheduler, which validate the finished graph once)."""
        index = len(self.kinds)
        if memory:
            if bytes_moved <= 0:
                raise ScheduleError(f"memory task {label!r} must move bytes")
            self.memory_order.append(index)
            totals = self._bytes_by_tag
            totals[traffic_tag] = totals.get(traffic_tag, 0) + bytes_moved
        else:
            if mod_muls + mod_adds <= 0:
                raise ScheduleError(f"compute task {label!r} must perform work")
            self.compute_order.append(index)
        self._mod_muls += mod_muls
        self._mod_adds += mod_adds
        self.kinds.append(kind)
        self.is_memory.append(memory)
        self.bytes_moved.append(bytes_moved)
        self.mod_muls.append(mod_muls)
        self.mod_adds.append(mod_adds)
        self.deps.append(deps)
        self.labels.append(label)
        self.traffic_tags.append(traffic_tag)
        return index

    # -- row views -----------------------------------------------------------------

    def row(self, index: int) -> Task:
        """Task ``index`` as a :class:`Task` record (a copy of its row)."""
        return Task(
            index,
            self.kinds[index],
            self.bytes_moved[index],
            self.mod_muls[index],
            self.mod_adds[index],
            self.deps[index],
            self.labels[index],
            self.traffic_tags[index],
        )

    @property
    def tasks(self) -> Sequence[Task]:
        """All tasks in emission order, as rows."""
        return _TaskRows(self)

    def queue_tasks(self, queue: Queue) -> List[Task]:
        """Tasks of one queue, in dispatch order."""
        order = self.memory_order if queue is _MEMORY else self.compute_order
        return [self.row(i) for i in order]

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[Task]:
        return map(self.row, range(len(self.kinds)))

    # -- aggregate accounting ---------------------------------------------------------

    def total_bytes(self, traffic_tag: Optional[str] = None) -> int:
        """Total DRAM traffic, optionally restricted to one tag."""
        if traffic_tag is None:
            return sum(self._bytes_by_tag.values())
        return self._bytes_by_tag.get(traffic_tag, 0)

    def total_mod_ops(self) -> int:
        return self._mod_muls + self._mod_adds

    def total_mod_muls(self) -> int:
        return self._mod_muls

    def total_mod_adds(self) -> int:
        return self._mod_adds

    def arithmetic_intensity(self) -> float:
        """Modular ops per DRAM byte — the paper's AI metric (Table II)."""
        total = self.total_bytes()
        if total == 0:
            return float("inf")
        return self.total_mod_ops() / total

    def kind_histogram(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for kind in self.kinds:
            hist[kind.value] = hist.get(kind.value, 0) + 1
        return hist

    # -- serialization -----------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """Plain-dict form for external tooling (schedule viewers, diffing)."""
        return {
            "name": self.name,
            "tasks": [
                {
                    "index": index,
                    "kind": kind.value,
                    "bytes": nbytes,
                    "muls": muls,
                    "adds": adds,
                    "deps": list(deps),
                    "label": label,
                    "tag": tag,
                }
                for index, (kind, nbytes, muls, adds, deps, label, tag)
                in enumerate(zip(self.kinds, self.bytes_moved, self.mod_muls,
                                 self.mod_adds, self.deps, self.labels,
                                 self.traffic_tags))
            ],
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "TaskGraph":
        """Inverse of :meth:`to_json`; validates as it rebuilds."""
        graph = cls(str(payload.get("name", "")))
        entries: Any = payload["tasks"]
        for entry in entries:
            graph.add(
                Kind(entry["kind"]),
                bytes_moved=int(entry["bytes"]),
                mod_muls=int(entry["muls"]),
                mod_adds=int(entry["adds"]),
                deps=entry["deps"],
                label=str(entry["label"]),
                traffic_tag=str(entry["tag"]),
            )
        graph.validate()
        return graph

    # -- validation ---------------------------------------------------------------------

    def validate(self) -> None:
        """Check the DAG is dependency-consistent (deps precede dependents)."""
        for index, deps in enumerate(self.deps):
            for d in deps:
                if d >= index:
                    raise ScheduleError(
                        f"task {index} depends on later task {d}"
                    )

    def __repr__(self) -> str:
        return (
            f"TaskGraph({self.name!r}, {len(self.compute_order)} compute + "
            f"{len(self.memory_order)} memory tasks, "
            f"{self.total_bytes() / (1 << 20):.1f} MB traffic)"
        )
