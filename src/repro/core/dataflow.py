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
    """Aggregates the builder tracks while emitting a schedule."""

    peak_bytes: int = 0
    spill_stores: int = 0
    reloads: int = 0


class ScheduleBuilder:
    """Emits a :class:`TaskGraph` under an on-chip memory budget."""

    def __init__(self, name: str, budget_bytes: int):
        if budget_bytes <= 0:
            raise MemoryModelError("on-chip budget must be positive")
        self.graph = TaskGraph(name)
        self.budget = budget_bytes
        self.used = 0
        self.values: Dict[str, _Value] = {}
        #: The values with ``on_chip`` set — the only eviction candidates.
        self._resident: Set[_Value] = set()
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
        self._get(name).priority = priority

    def is_resident(self, name: str) -> bool:
        v = self.values.get(name)
        return bool(v and v.on_chip and not v.freed)

    # -- task emission ------------------------------------------------------------

    def touch(self, name: str) -> List[int]:
        """Ensure a value is on-chip; returns dependency task indices."""
        return self._touch(self._get(name))

    def _touch(self, v: _Value) -> List[int]:
        self._clock += 1
        v.last_use = self._clock
        if v.on_chip:
            return [v.producer] if v.producer >= 0 else []
        if not v.in_dram:
            raise MemoryModelError(
                f"value {v.name!r} is neither on-chip nor in DRAM (lost)"
            )
        deps = self._make_room(v.nbytes)
        if v.store_task >= 0:
            deps.append(v.store_task)
            self.stats.reloads += 1
        load = self.graph.add(
            Kind.LOAD,
            bytes_moved=v.nbytes,
            deps=deps,
            label=f"load {v.name}",
            traffic_tag=v.traffic_tag,
        )
        self._admit(v)
        v.dirty = False
        v.producer = load
        return [load]

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
        inputs = list(inputs)
        deps: List[int] = list(extra_deps)
        locked: List[_Value] = []
        try:
            for name in inputs:
                v = self._get(name)
                deps.extend(self._touch(v))
                v.locked = True
                locked.append(v)
            out_values: List[_Value] = []
            for name, nbytes in outputs:
                v = self.values.get(name)
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
            task = self.graph.add(
                kind,
                mod_muls=ops.muls,
                mod_adds=ops.adds,
                deps=deps,
                label=label,
            )
            self._clock += 1
            for v in out_values:
                v.dirty = True
                v.in_dram = False
                v.producer = task
                v.store_task = -1
                v.last_use = self._clock
            return task
        finally:
            for v in locked:
                v.locked = False

    def writeback(self, name: str) -> int:
        """Explicitly store a value to DRAM (kept on-chip, now clean)."""
        v = self._get(name)
        if not v.on_chip:
            raise MemoryModelError(f"cannot write back off-chip value {name!r}")
        deps = [v.producer] if v.producer >= 0 else []
        store = self.graph.add(
            Kind.STORE,
            bytes_moved=v.nbytes,
            deps=deps,
            label=f"store {name}",
            traffic_tag=v.traffic_tag,
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
                store = self.graph.add(
                    Kind.STORE,
                    bytes_moved=victim.nbytes,
                    deps=[victim.producer] if victim.producer >= 0 else [],
                    label=f"spill {victim.name}",
                    traffic_tag=victim.traffic_tag,
                )
                victim.dirty = False
                victim.in_dram = True
                victim.store_task = store
                self.stats.spill_stores += 1
                deps.append(store)
            self._release(victim)
        return deps

    def _pick_victim(self) -> Optional[_Value]:
        """The unlocked resident value with the lowest priority, least
        recently used, earliest defined."""
        victim: Optional[_Value] = None
        best = (0, 0, 0)
        for v in self._resident:
            if v.locked:
                continue
            key = (v.priority, v.last_use, v.seq)
            if victim is None or key < best:
                victim, best = v, key
        return victim

    # -- residency ----------------------------------------------------------------

    def _define(self, name: str, nbytes: int) -> _Value:
        """(Re)define ``name``; a freed value of that name is replaced."""
        self._defined += 1
        v = self.values[name] = _Value(name, nbytes, self._defined)
        return v

    def _admit(self, v: _Value) -> None:
        v.on_chip = True
        self._resident.add(v)
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
