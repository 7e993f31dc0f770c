"""Dataflow scheduler base: on-chip residency tracking + schedule builder.

A dataflow (MP / DC / OC) is a *generation order* for HKS work.  The
builder below turns that order into the paper's two in-order task queues
while enforcing a hard on-chip data-memory budget:

* every operand of a compute task must be resident on-chip — touching an
  off-chip value emits a ``LOAD``;
* producing a value reserves SRAM — when the budget would overflow, the
  lowest-priority resident value is evicted, emitting a ``STORE`` if it has
  no up-to-date DRAM copy (a *spill*);
* spilled values are transparently reloaded at next use.

The traffic difference between the three dataflows is therefore an
*emergent* property of their operation orders under one shared memory
model, which is the paper's central methodological point.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.stages import OpCount
from repro.core.taskgraph import DATA_TAG, Kind, TaskGraph
from repro.errors import MemoryModelError
from repro.params import MB, BenchmarkSpec


@dataclass(frozen=True)
class DataflowConfig:
    """Memory configuration a schedule is generated for.

    ``data_sram_bytes`` is the on-chip memory available for inputs and
    intermediates (the paper's 32 MB).  When ``evk_on_chip`` is true, keys
    sit in a separate pre-loaded key region and cost no DRAM traffic;
    otherwise every evk tower is streamed from DRAM exactly once.

    ``key_compression`` models the seed-compressed keys of MAD (paper
    Section IV-D): only the ``b`` half of each evk pair is stored, the
    uniform ``a`` half is regenerated on-chip from a PRNG seed — halving
    streamed key traffic at the cost of one generation pass per tower.
    """

    data_sram_bytes: int = 32 * MB
    evk_on_chip: bool = True
    key_compression: bool = False


@dataclass(eq=False)
class _Value:
    """Residency bookkeeping for one named on-chip/DRAM buffer.

    ``seq`` numbers the definitions in order (a value redefined after a
    free gets a new one); it breaks eviction ties the way definition order
    always has.  ``eq=False`` keeps values identity-hashed, so the builder
    can hold the resident ones in a set.
    """

    name: str
    nbytes: int
    seq: int
    priority: int = 0
    on_chip: bool = False
    dirty: bool = False
    in_dram: bool = False
    producer: int = -1  # task index that made the current on-chip copy valid
    store_task: int = -1  # last STORE, for reload ordering
    last_use: int = 0
    locked: bool = False
    freed: bool = False
    traffic_tag: str = DATA_TAG


@dataclass
class BuilderStats:
    """Aggregates the builder tracks while emitting a schedule.

    ``evictions`` counts values pushed off-chip to make room, clean ones
    included.  A build with none never found ``used + nbytes`` above its
    budget, so it emits the same graph at every budget of at least
    ``peak_bytes`` that leaves the emitter's budget-derived integers
    (:func:`~repro.core.hks_ops.pin_capacity`, :func:`~repro.core.hks_ops.
    bconv_chunk_len`) unchanged.
    """

    peak_bytes: int = 0
    spill_stores: int = 0
    reloads: int = 0
    evictions: int = 0


class ScheduleBuilder:
    """Emits a :class:`TaskGraph` under an on-chip memory budget.

    Eviction candidates sit in a heap keyed ``(priority, last_use, seq)``
    with lazy invalidation.  An entry goes in when a value is admitted or
    its priority changes; a touch only raises ``last_use``, so each
    resident value keeps an entry at or before its current key.  An out
    of date top entry is dropped (the value left the chip) or re-filed
    under the current key, until the top is current: then no resident
    value's key is smaller.  Tasks are appended through
    :meth:`TaskGraph._append`: every dependency the builder records is an
    earlier task, and :meth:`Dataflow.build_with_stats` validates the
    finished graph once.
    """

    def __init__(self, name: str, budget_bytes: int):
        if budget_bytes <= 0:
            raise MemoryModelError("on-chip budget must be positive")
        self.graph = TaskGraph(name)
        self.budget = budget_bytes
        self.used = 0
        self.values: Dict[str, _Value] = {}
        #: The values with ``on_chip`` set — the only eviction candidates.
        self._resident: Set[_Value] = set()
        #: ``(priority, last_use, seq, value)``: each resident value has an
        #: entry at or before its current key.
        self._victims: List[Tuple[int, int, int, _Value]] = []
        self.stats = BuilderStats()
        self._clock = 0
        self._defined = 0

    # -- value lifecycle ----------------------------------------------------------

    def define_dram(self, name: str, nbytes: int, traffic_tag: str = DATA_TAG) -> None:
        """Declare a value that initially resides only in DRAM (inputs, evks)."""
        if name in self.values:
            raise MemoryModelError(f"value {name!r} already defined")
        v = self._define(name, nbytes)
        v.in_dram = True
        v.traffic_tag = traffic_tag

    def free(self, name: str) -> None:
        """Mark a value dead; its SRAM is released without a writeback."""
        v = self._get(name)
        if v.locked:
            raise MemoryModelError(f"cannot free locked value {name!r}")
        if v.on_chip:
            self._release(v)
        v.freed = True

    def set_priority(self, name: str, priority: int) -> None:
        v = self._get(name)
        v.priority = priority
        if v.on_chip:
            self._push(v)

    def is_resident(self, name: str) -> bool:
        v = self.values.get(name)
        return bool(v and v.on_chip and not v.freed)

    # -- task emission ------------------------------------------------------------

    def touch(self, name: str) -> List[int]:
        """Ensure a value is on-chip; returns dependency task indices."""
        deps: List[int] = []
        self._touch(self._get(name), deps)
        return deps

    def _touch(self, v: _Value, deps: List[int]) -> None:
        """Make ``v`` resident, appending what a reader must wait for."""
        self._clock += 1
        v.last_use = self._clock
        if v.on_chip:
            if v.producer >= 0:
                deps.append(v.producer)
            return
        if not v.in_dram:
            raise MemoryModelError(
                f"value {v.name!r} is neither on-chip nor in DRAM (lost)"
            )
        load_deps = self._make_room(v.nbytes)
        if v.store_task >= 0:
            load_deps.append(v.store_task)
            self.stats.reloads += 1
        load = self.graph._append(
            Kind.LOAD, True, v.nbytes, 0, 0, _normalised(load_deps),
            f"load {v.name}", v.traffic_tag,
        )
        self._admit(v)
        v.dirty = False
        v.producer = load
        deps.append(load)

    def compute(
        self,
        kind: Kind,
        inputs: Iterable[str],
        outputs: Iterable[Tuple[str, int]],
        ops: OpCount,
        label: str = "",
        output_priority: int = 0,
        extra_deps: Iterable[int] = (),
    ) -> int:
        """Emit a compute task reading ``inputs`` and producing ``outputs``.

        ``outputs`` pairs names with byte sizes; an output that already
        exists on-chip (an accumulator) is updated in place.
        """
        deps: List[int] = list(extra_deps)
        locked: List[_Value] = []
        values = self.values
        try:
            for name in inputs:
                v = values.get(name)
                if v is None or v.freed:
                    v = self._get(name)  # raises
                self._touch(v, deps)
                v.locked = True
                locked.append(v)
            out_values: List[_Value] = []
            for name, nbytes in outputs:
                v = values.get(name)
                if v is None or v.freed:
                    v = self._define(name, nbytes)
                    v.priority = output_priority
                if not v.on_chip:
                    deps.extend(self._make_room(v.nbytes))
                    self._admit(v)
                elif v.producer >= 0:
                    deps.append(v.producer)  # read-modify-write ordering
                v.locked = True
                locked.append(v)
                out_values.append(v)
            task = self.graph._append(
                kind, False, 0, ops.muls, ops.adds, _normalised(deps),
                label, DATA_TAG,
            )
            self._clock += 1
            clock = self._clock
            for v in out_values:
                v.dirty = True
                v.in_dram = False
                v.producer = task
                v.store_task = -1
                v.last_use = clock
            return task
        finally:
            for v in locked:
                v.locked = False

    def writeback(self, name: str) -> int:
        """Explicitly store a value to DRAM (kept on-chip, now clean)."""
        v = self._get(name)
        if not v.on_chip:
            raise MemoryModelError(f"cannot write back off-chip value {name!r}")
        store = self.graph._append(
            Kind.STORE, True, v.nbytes, 0, 0,
            (v.producer,) if v.producer >= 0 else (),
            f"store {name}", v.traffic_tag,
        )
        v.dirty = False
        v.in_dram = True
        v.store_task = store
        return store

    # -- eviction -----------------------------------------------------------------

    def _make_room(self, nbytes: int) -> List[int]:
        """Evict until ``nbytes`` fit; returns store-task dependencies."""
        if nbytes > self.budget:
            raise MemoryModelError(
                f"single value of {nbytes} bytes exceeds the "
                f"{self.budget}-byte on-chip budget"
            )
        deps: List[int] = []
        while self.used + nbytes > self.budget:
            victim = self._pick_victim()
            if victim is None:
                raise MemoryModelError(
                    "working set exceeds on-chip budget: all resident values "
                    "are locked by the current operation"
                )
            if victim.dirty:
                store = self.graph._append(
                    Kind.STORE, True, victim.nbytes, 0, 0,
                    (victim.producer,) if victim.producer >= 0 else (),
                    f"spill {victim.name}", victim.traffic_tag,
                )
                victim.dirty = False
                victim.in_dram = True
                victim.store_task = store
                self.stats.spill_stores += 1
                deps.append(store)
            self._release(victim)
            self.stats.evictions += 1
        return deps

    def _pick_victim(self) -> Optional[_Value]:
        """The unlocked resident value with the lowest priority, least
        recently used, earliest defined: the top current heap entry."""
        heap = self._victims
        locked = []
        victim: Optional[_Value] = None
        while heap:
            priority, last_use, seq, v = heap[0]
            if not v.on_chip:
                heapq.heappop(heap)
            elif v.priority != priority or v.last_use != last_use:
                heapq.heapreplace(heap, (v.priority, v.last_use, seq, v))
            elif v.locked:
                locked.append(heapq.heappop(heap))
            else:
                victim = v
                break
        for entry in locked:
            heapq.heappush(heap, entry)
        return victim

    # -- residency ----------------------------------------------------------------

    def _define(self, name: str, nbytes: int) -> _Value:
        """(Re)define ``name``; a freed value of that name is replaced."""
        self._defined += 1
        v = self.values[name] = _Value(name, nbytes, self._defined)
        return v

    def _push(self, v: _Value) -> None:
        """File resident ``v`` under its current key.  Entries of values
        that left the chip are dropped wholesale once they outnumber the
        resident values."""
        heap = self._victims
        if len(heap) > 2 * len(self._resident) + 64:
            heap[:] = [(r.priority, r.last_use, r.seq, r)
                       for r in self._resident]  # v among them
            heapq.heapify(heap)
        else:
            heapq.heappush(heap, (v.priority, v.last_use, v.seq, v))

    def _admit(self, v: _Value) -> None:
        v.on_chip = True
        self._resident.add(v)
        self._push(v)
        self.used += v.nbytes
        if self.used > self.stats.peak_bytes:
            self.stats.peak_bytes = self.used

    def _release(self, v: _Value) -> None:
        v.on_chip = False
        self._resident.discard(v)
        self.used -= v.nbytes

    def _get(self, name: str) -> _Value:
        v = self.values.get(name)
        if v is None:
            raise MemoryModelError(f"unknown value {name!r}")
        if v.freed:
            raise MemoryModelError(f"use after free of value {name!r}")
        return v


def _normalised(deps: List[int]) -> Tuple[int, ...]:
    """A dependency list as the sorted, de-duplicated tuple the graph's
    ``deps`` column holds."""
    if len(deps) < 2:
        return tuple(deps)
    return tuple(sorted(set(deps)))


class Dataflow(abc.ABC):
    """Base class for the three CiFlow dataflows."""

    #: Short id used in reports ("MP", "DC", "OC").
    name: str = "?"
    #: Long name as used in the paper.
    title: str = ""

    def build(self, spec: BenchmarkSpec, config: DataflowConfig) -> TaskGraph:
        """Emit the full HKS schedule for ``spec`` under ``config``."""
        graph, _ = self.build_with_stats(spec, config)
        return graph

    def build_with_stats(
        self, spec: BenchmarkSpec, config: DataflowConfig
    ) -> Tuple[TaskGraph, BuilderStats]:
        """Like :meth:`build` but also returns the builder statistics."""
        from repro.core.hks_ops import HKSEmitter  # local: avoids module cycle

        builder = ScheduleBuilder(f"{spec.name}/{self.name}", config.data_sram_bytes)
        self.schedule(HKSEmitter(builder, spec, config))
        builder.graph.validate()
        return builder.graph, builder.stats

    @abc.abstractmethod
    def schedule(self, em) -> None:
        """Drive an emitter through this dataflow's operation order.

        ``em`` is either an :class:`~repro.core.hks_ops.HKSEmitter`
        (producing a performance schedule) or a
        :class:`~repro.core.functional.FunctionalEmitter` (executing the
        same order on real RNS data) — the ordering logic is shared, which
        is what makes the functional equivalence tests meaningful.
        """

    def __repr__(self) -> str:
        return f"<Dataflow {self.name}>"
