"""The HKS schedule emitter: one memory model, one decision-driven order.

A dataflow is a *generation order* for HKS work.  :class:`Dataflow`
takes that order from one :class:`HKSDecision`: the paper's three
dataflows (MP / DC / OC) are its named points, and the solver's generic
family fills the space around them.  The builder below turns the order
into the paper's two in-order task queues while enforcing a hard on-chip
data-memory budget:

* every operand of a compute task must be resident on-chip — touching an
  off-chip value emits a ``LOAD``;
* producing a value reserves SRAM — when the budget would overflow, the
  lowest-priority resident value is evicted, emitting a ``STORE`` if it has
  no up-to-date DRAM copy (a *spill*);
* spilled values are transparently reloaded at next use.

The traffic difference between the dataflows is therefore an *emergent*
property of their operation orders under one shared memory model, which
is the paper's central methodological point.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.hks_ops import HALVES, PRI_ICOEF, PRI_ICOEF_LAST, HKSEmitter
from repro.core.stages import OpCount
from repro.core.taskgraph import DATA_TAG, Kind, TaskGraph
from repro.errors import MemoryModelError, ParameterError
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


#: Loop orders of the pinned sweep: output-tower-major or digit-major.
LOOP_ORDERS = ("tower", "digit")

#: Decision bases: the paper's three dataflows plus the generic family.
DECISION_BASES = ("MP", "DC", "OC", "GEN")


@dataclass(frozen=True)
class HKSDecision:
    """One candidate schedule for a single HKS under one memory config.

    ``base`` names the order: ``"MP"`` and ``"DC"`` are the paper's
    stage-major orders, ``"OC"`` is the pinned sweep at its own pin count
    (``dnum - 1``, at least 1), and ``"GEN"`` is the pinned sweep with the
    remaining knobs.  ``pinned_digits`` may exceed OC's ``dnum - 1`` —
    full pinning is a real candidate the paper's dataflows never try.
    ``tile_towers == 0`` means pure output-tower order (one tower at a
    time); a positive tile runs the ModUp stages stage-major inside tiles
    of that many extended towers, interpolating between OC (tile 1) and
    MP (tile = all).  ``reordered`` marks a schedule post-processed by the
    list scheduler.
    """

    base: str = "GEN"
    pinned_digits: int = 0
    loop: str = "tower"
    tile_towers: int = 0
    moddown_fused: bool = True
    bconv_chunk: int = 0
    evk_prefetch: bool = False
    reordered: bool = False

    def __post_init__(self) -> None:
        if self.base not in DECISION_BASES:
            raise ParameterError(
                f"unknown decision base {self.base!r}; "
                f"choose from {DECISION_BASES}"
            )
        if self.loop not in LOOP_ORDERS:
            raise ParameterError(
                f"unknown loop order {self.loop!r}; choose from {LOOP_ORDERS}"
            )
        if self.pinned_digits < 0 or self.tile_towers < 0 or self.bconv_chunk < 0:
            raise ParameterError("decision counts must be non-negative")

    @property
    def is_legacy(self) -> bool:
        return self.base != "GEN"

    def summary(self) -> str:
        """Short human-readable form for tables and ``--explain``."""
        if self.is_legacy:
            tag = self.base
        else:
            tag = (f"GEN(pin={self.pinned_digits},{self.loop}"
                   f"{',tile=' + str(self.tile_towers) if self.tile_towers else ''}"
                   f"{',md-fused' if self.moddown_fused else ',md-staged'}"
                   f"{',prefetch' if self.evk_prefetch else ''})")
        return tag + ("+reorder" if self.reordered else "")


#: The paper's dataflows as decision-space points, in presentation order.
LEGACY_DECISIONS: Tuple[HKSDecision, ...] = (
    HKSDecision(base="MP"),
    HKSDecision(base="DC"),
    HKSDecision(base="OC"),
)


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


# -- the orders ---------------------------------------------------------------------
#
# ``em`` is an :class:`~repro.core.hks_ops.HKSEmitter` (producing a
# performance schedule) or a :class:`~repro.core.functional.
# FunctionalEmitter` (executing the same order on real RNS data): the
# orders are shared, which is what makes the functional equivalence tests
# meaningful.


def max_parallel(em) -> None:
    """Max-Parallel (MP), paper Section IV-A: P1 for all, P2 for all, ...

    Stage by stage over *all* towers: every input tower is INTT'd, then
    every digit is fully base-converted, then everything is NTT'd, and so
    on.  This maximizes kernel-level parallelism (any two tasks within a
    stage are independent) but materializes the entire intermediate state
    of each stage at once, so under a finite on-chip budget the BConv
    expansion and the extended digits thrash through SRAM.  MP is the
    baseline used by prior accelerators (Cheetah, HEAX).
    """
    # ModUp P1: INTT every input tower.
    for t in range(em.kl):
        em.intt_input(t)

    # ModUp P2: full BConv expansion of every digit.
    for d in range(em.dnum):
        for j in em.all_ext():
            if em.digit_of[j] != d:
                em.bconv(d, j)

    # ModUp P3: NTT every converted tower.
    for d in range(em.dnum):
        for j in em.all_ext():
            if em.digit_of[j] != d:
                em.ntt_ext(d, j)
    for d in range(em.dnum):
        em.free_digit_icoef(d)

    # ModUp P4 + P5: apply the key digit by digit, accumulating.
    for d in range(em.dnum):
        for j in em.all_ext():
            em.mulkey(d, j)

    # ModDown, stage-ordered as well (one result polynomial at a time).
    moddown_staged(em)


def digit_centric(em) -> None:
    """Digit-Centric (DC), paper Section IV-B: all of P1-P5 for digit d,
    then digit d+1.

    "One digit at a time": each digit is loaded, INTT'd, fully expanded
    (P2 over all its target towers), NTT'd and multiplied with its evk
    slice before the next digit is touched.  Within a digit the schedule
    is still stage-ordered, so the digit's full ``beta``-tower expansion
    is live at once — smaller than MP's all-digit expansion, larger than
    OC's single output tower.  The per-digit partial products accumulate
    into ``acc``, which spills under small budgets (the paper: partial
    products "can either be stored on-chip for later reduction ... or
    sent off-chip").  This mirrors the dataflow of MAD (MICRO'23).
    """
    for d in range(em.dnum):
        # P1: INTT this digit's towers.
        for t in em.digit_towers(d):
            em.intt_input(t)
        # P2: expand the digit to its beta complement towers.
        for j in em.all_ext():
            if em.digit_of[j] != d:
                em.bconv(d, j)
        em.free_digit_icoef(d)
        # P3: NTT the expansion.
        for j in em.all_ext():
            if em.digit_of[j] != d:
                em.ntt_ext(d, j)
        # P4 + P5: apply this digit's evk slice, accumulate partials.
        for j in em.all_ext():
            em.mulkey(d, j)

    # ModDown (stage-ordered; digits play no role after the reduction).
    moddown_staged(em)


def pinned_sweep(em, decision: HKSDecision) -> None:
    """Output-Centric (OC), paper Section IV-C, and the generic family.

    One *output tower* at a time.  The INTT results of as many digits as
    fit (``dnum - 1`` under the paper's 32 MB budget) are pinned on-chip
    and reused for every output tower, so ModUp P2 only ever materializes
    a single converted tower; the per-tower partial sum is accumulated
    immediately and only the accumulator is ever written back.  Digits
    that do not fit are handled in tail passes ("the final digit is loaded
    to compute the last partial sum", Section IV-C) after the pinned INTT
    outputs are released — this keeps the pinned footprint at
    ``(dnum-1) * alpha`` towers for BTS3, the paper's "INTT is applied to
    30 towers [of 45]" on-chip reuse claim, and degrades gracefully to
    digit-major passes under smaller budgets.

    ModDown is equally output-centric: the ``K`` auxiliary INTTs are kept
    on-chip and each chain tower runs BConv -> NTT -> finish back-to-back,
    so the ModDown P2 expansion never exists in memory (the paper:
    "Calculating one output tower at a time eliminates the expansion of
    ModDown P2").

    A ``GEN`` decision sets the pin count (full pinning included), the
    loop order, stage-major tiles, the ModDown fusion and evk prefetch.
    """
    # OC pins up to dnum - 1 digits (the paper's BTS3 configuration: the
    # last digit is always streamed through a tail pass, which also keeps
    # memory traffic overlapping with compute).  Every pin count degrades
    # when the budget cannot hold that many INTT outputs.
    pins = (max(em.dnum - 1, 1) if decision.base == "OC"
            else decision.pinned_digits)
    pinned_count = min(pins, em.dnum, em.max_pinned_digits())
    pinned = list(range(pinned_count))
    tail = list(range(pinned_count, em.dnum))
    prefetch = decision.evk_prefetch

    # ModUp P1 for every pinned digit; resident for the whole sweep.
    for d in pinned:
        for t in em.digit_towers(d):
            em.intt_input(t, priority=PRI_ICOEF)

    if pinned:
        _sweep_pinned(em, decision, pinned)
        for d in pinned:
            em.free_digit_icoef(d)

    # Tail passes: one per remaining digit — load + INTT it, then finish
    # its contribution to every accumulator.
    for d in tail:
        for t in em.digit_towers(d):
            em.intt_input(t, priority=PRI_ICOEF_LAST)
        for j in em.all_ext():
            _contribute(em, d, j, prefetch)
        em.free_digit_icoef(d)

    if decision.moddown_fused:
        moddown_fused(em)
    else:
        moddown_staged(em)


def _sweep_pinned(em, decision: HKSDecision, pinned: List[int]) -> None:
    """Every pinned digit's contribution to every extended tower."""
    prefetch = decision.evk_prefetch
    if decision.loop == "digit":
        # Digit-major: each pinned digit finishes all its target towers
        # before the next digit starts (DC-like, but every pinned digit's
        # INTT outputs are already resident).  The bypass contribution
        # runs under its owning digit.
        for d in pinned:
            for j in em.all_ext():
                _contribute(em, d, j, prefetch)
        return
    tile = decision.tile_towers
    towers = list(em.all_ext())
    if tile <= 1:
        # Pure output-tower order: finish each tower before the next
        # (Section 1 = chain towers, Section 2 = auxiliary).
        for j in towers:
            owner = em.digit_of[j]
            if owner in pinned:
                _contribute(em, owner, j, prefetch)  # bypass: no BConv
            for d in pinned:
                if d != owner:
                    _contribute(em, d, j, prefetch)
        return
    # Stage-major inside tiles of `tile` extended towers: all BConvs, then
    # all NTTs, then all key multiplies.  Interpolates between OC (tile 1)
    # and MP (tile = all towers).
    for lo in range(0, len(towers), tile):
        block = towers[lo : lo + tile]
        work = []  # (d, j) pairs needing the full BConv path
        for j in block:
            owner = em.digit_of[j]
            for d in pinned:
                if d != owner:
                    work.append((d, j))
        if prefetch:
            # Issue the tile's key loads ahead of its compute chain so the
            # memory queue overlaps the BConv/NTT work.
            for d, j in work:
                em.prefetch_evk(d, j)
        for d, j in work:
            em.bconv(d, j)
        for d, j in work:
            em.ntt_ext(d, j)
        for j in block:
            owner = em.digit_of[j]
            if owner in pinned:
                em.mulkey(owner, j)
        for d, j in work:
            em.mulkey(d, j)


def _contribute(em, d: int, j: int, prefetch: bool) -> None:
    """Digit ``d``'s full contribution to extended tower ``j``."""
    if em.digit_of[j] != d:
        if prefetch:
            # Start the key load before the compute chain it feeds, so the
            # stream overlaps the BConv + NTT ahead of the mulkey.
            em.prefetch_evk(d, j)
        em.bconv(d, j)
        em.ntt_ext(d, j)
    em.mulkey(d, j)


def moddown_staged(em) -> None:
    """Stage-ordered ModDown (MP/DC): per half, P1 all, P2 all, P3 all, P4 all."""
    for h in HALVES:
        for j in em.p_region():
            em.md_intt(j, h)
        for i in em.q_region():
            em.md_bconv(i, h)
        for i in em.q_region():
            em.md_ntt(i, h)
        em.free_mdc(h)
        for i in em.q_region():
            em.md_finish(i, h)


def moddown_fused(em) -> None:
    """Output-centric ModDown: per half, fuse P2 -> P3 -> P4 per output tower."""
    for h in HALVES:
        for j in em.p_region():
            em.md_intt(j, h)
        for i in em.q_region():
            em.md_bconv(i, h)
            em.md_ntt(i, h)
            em.md_finish(i, h)
        em.free_mdc(h)


#: The paper's names of its dataflows.
_TITLES = {"MP": "Max-Parallel", "DC": "Digit-Centric", "OC": "Output-Centric"}


class Dataflow:
    """The HKS schedule one :class:`HKSDecision` denotes.

    A named decision builds its graph as ``{spec}/{base}`` (``"BTS3/OC"``);
    every ``GEN`` point is the solver's, ``{spec}/SOLVER``.
    """

    def __init__(self, decision: HKSDecision):
        self.decision = decision
        #: Short id used in reports and graph names.
        self.name = decision.base if decision.is_legacy else "SOLVER"
        #: Long name as used in the paper.
        self.title = _TITLES.get(decision.base, "Solver-selected")

    def build(self, spec: BenchmarkSpec, config: DataflowConfig) -> TaskGraph:
        """Emit the full HKS schedule for ``spec`` under ``config``."""
        graph, _ = self.build_with_stats(spec, config)
        return graph

    def build_with_stats(
        self, spec: BenchmarkSpec, config: DataflowConfig
    ) -> Tuple[TaskGraph, BuilderStats]:
        """Like :meth:`build` but also returns the builder statistics."""
        builder = ScheduleBuilder(f"{spec.name}/{self.name}", config.data_sram_bytes)
        self.schedule(HKSEmitter(builder, spec, config))
        builder.graph.validate()
        return builder.graph, builder.stats

    def schedule(self, em) -> None:
        """Drive an emitter through this decision's operation order."""
        decision = self.decision
        em.bconv_chunk = decision.bconv_chunk
        if decision.base == "MP":
            max_parallel(em)
        elif decision.base == "DC":
            digit_centric(em)
        else:
            pinned_sweep(em, decision)

    def __repr__(self) -> str:
        return f"<Dataflow {self.decision.summary()}>"
