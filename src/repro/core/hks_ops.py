"""Shared HKS emission helpers used by all three dataflow schedulers.

The emitter names every tower-granular buffer of the HKS pipeline
(paper Figure 1) and provides one method per stage kernel; the dataflows
differ *only* in the order they invoke these methods — which is exactly the
paper's definition of a dataflow ("differ in their sequence of
instructions, reuse of loaded and computed data, ...").

Buffer naming (extended tower index ``j`` runs ``0..kl+kp-1``; the first
``kl`` are chain towers, the rest are ``P`` towers; ``h`` is the ciphertext
half, 0 or 1):

==============  =============================================================
``in[t]``       input polynomial tower ``t`` (EVAL domain, lives in DRAM)
``icoef[t]``    INTT of input tower ``t`` (ModUp P1 output)
``bc[d][j]``    BConv output of digit ``d`` for target tower ``j`` (P2)
``ext[d][j]``   NTT'd extended tower (P3); bypass towers reuse ``in[t]``
``acc{h}[j]``   running ApplyKey/Reduce accumulators (one per half)
``evk[d][j]``   streamed key pair for (digit, tower), when keys are off-chip
``mdc{h}[j]``   ModDown P1 outputs (INTT of auxiliary accumulator towers)
``mdb{h}[i]``   ModDown P2 outputs (BConv ``P -> q_i``)
``mde{h}[i]``   ModDown P3 outputs (NTT of ``mdb``)
``out{h}[i]``   final output towers (stored to DRAM)
==============  =============================================================
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.core.dataflow import DataflowConfig, ScheduleBuilder
from repro.core.stages import (
    OpCount,
    bconv_tower_ops,
    ntt_tower_ops,
    pointwise_mac_ops,
)
from repro.core.taskgraph import EVK_TAG, Kind
from repro.errors import ScheduleError
from repro.params import BenchmarkSpec

# Eviction priorities: higher survives longer under memory pressure.
PRI_TRANSIENT = 10  # bc / mdb / mde: consumed immediately
PRI_EXT = 15        # extended towers awaiting ApplyKey
PRI_INPUT = 20      # input towers (clean in DRAM; cheap to re-fetch)
PRI_ACC = 40        # output accumulators
PRI_ICOEF_STAGE = 60  # INTT outputs while their digit's BConv is running
PRI_MDC = 80        # ModDown INTT results, reused by every output tower
PRI_ICOEF_LAST = 90  # tail digits' INTT outputs during the OC tail passes
PRI_ICOEF = 100     # pinned INTT outputs (OC's key reuse asset)

HALVES = (0, 1)

# -- the budget-derived integers ---------------------------------------------------
#
# Besides the eviction comparisons of :class:`ScheduleBuilder`, these two are
# the only readers of the on-chip budget: a build that evicts nothing is the
# same graph at every budget that gives the same two integers (the schedule
# store in :mod:`repro.sched.solver` keys its reuse by them).


def pin_capacity(spec: BenchmarkSpec, budget_bytes: int) -> int:
    """How many digits' INTT outputs fit on-chip alongside the working set
    (OC's adaptive pinning).  Counted over digit-size prefixes with a
    2-tower margin for accumulators, keys and transients.
    """
    margin_towers = 2
    avail = budget_bytes // spec.tower_bytes - margin_towers
    pinned = 0
    used = 0
    for size in spec.digit_sizes:
        if used + size > avail:
            break
        used += size
        pinned += 1
    return pinned


def bconv_chunk_len(spec: BenchmarkSpec, budget_bytes: int,
                    num_sources: int) -> int:
    """Largest source count whose towers fit on-chip alongside the output
    and some working margin.

    BConv is a sum of per-source scaled terms, so it can accumulate in
    chunks when the full source set exceeds the budget (small-SRAM
    configurations); each chunk is one partial-accumulation task.  With
    ``num_sources`` the largest source set of ``spec`` (a digit's towers,
    or the ``kp`` auxiliary towers), the result fixes every chunk of a
    build.
    """
    budget_towers = budget_bytes // spec.tower_bytes
    return min(num_sources, max(1, budget_towers - 4))


def max_bconv_sources(spec: BenchmarkSpec) -> int:
    """The largest source set any BConv of ``spec`` reads."""
    return max(max(spec.digit_sizes), spec.kp)


class _Names:
    """Every buffer name and stage label of one HKS geometry, formatted
    once: builds of the same geometry share them (and their cached string
    hashes, which the builder's residency lookups use)."""

    def __init__(self, kl: int, kp: int, digit_sizes: Tuple[int, ...]):
        ext = kl + kp
        digit_of: List[int] = []
        for d, size in enumerate(digit_sizes):
            digit_of.extend([d] * size)
        digit_of.extend([-1] * kp)
        dnum = len(digit_sizes)
        towers = range(ext)
        self.inp = [f"in[{t}]" for t in range(kl)]
        self.icoef = [f"icoef[{t}]" for t in range(kl)]
        self.intt = [f"ModUp.P1 intt t{t}" for t in range(kl)]
        self.bc = [[f"bc[{d}][{j}]" for j in towers] for d in range(dnum)]
        self.ext = [[f"ext[{d}][{j}]" for j in towers] for d in range(dnum)]
        self.evk = [[f"evk[{d}][{j}]" for j in towers] for d in range(dnum)]
        self.bconv = [[f"ModUp.P2 bconv d{d}->t{j}" for j in towers]
                      for d in range(dnum)]
        self.ntt = [[f"ModUp.P3 ntt d{d}->t{j}" for j in towers]
                    for d in range(dnum)]
        self.mulkey = [
            [f"ModUp.P4 mulkey d{d} t{j}"
             f"{' (bypass)' if digit_of[j] == d else ''}" for j in towers]
            for d in range(dnum)]
        self.acc = [[f"acc{h}[{j}]" for j in towers] for h in HALVES]
        self.mdc = [[f"mdc{h}[{j}]" for j in towers] for h in HALVES]
        self.mdb = [[f"mdb{h}[{i}]" for i in range(kl)] for h in HALVES]
        self.mde = [[f"mde{h}[{i}]" for i in range(kl)] for h in HALVES]
        self.out = [[f"out{h}[{i}]" for i in range(kl)] for h in HALVES]
        self.md_intt = [[f"ModDown.P1 intt h{h} t{j}" for j in towers]
                        for h in HALVES]
        self.md_bconv = [[f"ModDown.P2 bconv h{h} t{i}" for i in range(kl)]
                         for h in HALVES]
        self.md_ntt = [[f"ModDown.P3 ntt h{h} t{i}" for i in range(kl)]
                       for h in HALVES]
        self.md_finish = [[f"ModDown.P4 finish h{h} t{i}" for i in range(kl)]
                          for h in HALVES]
        #: BConv source lists: each digit's INTT outputs, each half's
        #: ModDown INTT outputs.
        self.digit_icoef: List[List[str]] = []
        start = 0
        for size in digit_sizes:
            self.digit_icoef.append(self.icoef[start:start + size])
            start += size
        self.mdc_sources = [row[kl:] for row in self.mdc]


@lru_cache(maxsize=None)
def _names(kl: int, kp: int, digit_sizes: Tuple[int, ...]) -> _Names:
    return _Names(kl, kp, digit_sizes)


class HKSEmitter:
    """Stage-kernel emission bound to one (benchmark, config, builder)."""

    def __init__(
        self, builder: ScheduleBuilder, spec: BenchmarkSpec, config: DataflowConfig
    ):
        self.b = builder
        self.spec = spec
        self.config = config
        self.tb = spec.tower_bytes
        self.n = spec.n
        #: BConv chunk-length override (0 = derive from the budget); the
        #: schedule solver sets this to explore accumulation granularity.
        self.bconv_chunk = 0
        #: extended index -> owning digit (or -1 for P towers), and each
        #: digit's global tower indices; the spec re-derives (and
        #: re-validates) its partition on every ``digit_sizes`` access, so
        #: the geometry is laid out once here.
        digit_sizes = spec.digit_sizes
        self.digit_of: List[int] = []
        self._digit_towers: List[range] = []
        for d, size in enumerate(digit_sizes):
            start = len(self.digit_of)
            self._digit_towers.append(range(start, start + size))
            self.digit_of.extend([d] * size)
        self.digit_of.extend([-1] * spec.kp)
        self._q_region = range(spec.kl)
        self._p_region = range(spec.kl, spec.extended_towers)
        self._all_ext = range(spec.extended_towers)
        self._names = _names(spec.kl, spec.kp, tuple(digit_sizes))
        # Op counts of the per-tower kernels, made once per build.
        n = self.n
        self._ntt_ops = ntt_tower_ops(n)
        self._finish_ops = pointwise_mac_ops(n)
        self._bconv_ops: Dict[int, OpCount] = {}
        # Regenerating the compressed a-half costs one PRNG pass per tower.
        compressed = config.key_compression and not config.evk_on_chip
        regen = n if compressed else 0
        #: mulkey ops, indexed by "accumulator already started".
        self._mulkey_ops = (OpCount(muls=2 * n + regen, adds=0),
                            OpCount(muls=2 * n + regen, adds=2 * n))
        #: per extended tower: has the accumulator been started yet?
        self.acc_started: Dict[int, bool] = {}
        names = self._names
        for t in range(spec.kl):
            builder.define_dram(names.inp[t], self.tb)
        if not config.evk_on_chip:
            # Seed-compressed keys stream only the b half (1 tower/pair).
            evk_bytes = self.tb if config.key_compression else 2 * self.tb
            for row in names.evk:
                for name in row:
                    builder.define_dram(name, evk_bytes, EVK_TAG)

    # -- geometry helpers (the generic emitter interface) --------------------------

    @property
    def dnum(self) -> int:
        return self.spec.dnum

    @property
    def kl(self) -> int:
        return self.spec.kl

    @property
    def kp(self) -> int:
        return self.spec.kp

    def digit_towers(self, d: int) -> List[int]:
        """Global tower indices of digit ``d``."""
        return list(self._digit_towers[d])

    def q_region(self) -> range:
        return self._q_region

    def p_region(self) -> range:
        return self._p_region

    def all_ext(self) -> range:
        return self._all_ext

    # -- ModUp kernels --------------------------------------------------------------

    def max_pinned_digits(self) -> int:
        """How many digits' INTT outputs fit on-chip: :func:`pin_capacity`
        at the builder's budget."""
        return pin_capacity(self.spec, self.b.budget)

    def intt_input(self, t: int, priority: int = PRI_ICOEF_STAGE) -> None:
        """ModUp P1 for input tower ``t`` -> ``icoef[t]``."""
        names = self._names
        self.b.compute(
            Kind.INTT,
            inputs=(names.inp[t],),
            outputs=((names.icoef[t], self.tb),),
            ops=self._ntt_ops,
            label=names.intt[t],
            output_priority=priority,
        )

    def _bconv_chunk_len(self, num_sources: int) -> int:
        if self.bconv_chunk:
            return min(num_sources, max(1, self.bconv_chunk))
        return bconv_chunk_len(self.spec, self.b.budget, num_sources)

    def _emit_bconv(self, sources: Sequence[str], out: str, label: str) -> None:
        count = len(sources)
        chunk = self._bconv_chunk_len(count)
        for lo in range(0, count, chunk):
            part = sources[lo : lo + chunk]
            size = len(part)
            ops = self._bconv_ops.get(size)
            if ops is None:
                ops = self._bconv_ops[size] = bconv_tower_ops(self.n, size)
            self.b.compute(
                Kind.BCONV,
                inputs=part,
                outputs=((out, self.tb),),
                ops=ops,
                label=(label if chunk >= count
                       else f"{label} [{lo}:{lo + size}]"),
                output_priority=PRI_TRANSIENT,
            )

    def bconv(self, d: int, j: int) -> None:
        """ModUp P2: digit ``d`` -> coefficient-domain tower ``j``."""
        if self.digit_of[j] == d:
            raise ScheduleError(f"tower {j} belongs to digit {d}: bypass, not BConv")
        names = self._names
        self._emit_bconv(names.digit_icoef[d], names.bc[d][j], names.bconv[d][j])

    def ntt_ext(self, d: int, j: int) -> None:
        """ModUp P3: NTT ``bc[d][j]`` -> ``ext[d][j]`` (frees the BConv buffer)."""
        names = self._names
        bc = names.bc[d][j]
        self.b.compute(
            Kind.NTT,
            inputs=(bc,),
            outputs=((names.ext[d][j], self.tb),),
            ops=self._ntt_ops,
            label=names.ntt[d][j],
            output_priority=PRI_EXT,
        )
        self.b.free(bc)

    def mulkey(self, d: int, j: int) -> None:
        """ModUp P4 (+ P5 accumulation) for digit ``d`` and tower ``j``.

        Multiplies the extended tower by both evk halves; the first digit to
        reach tower ``j`` initialises the accumulators, later digits
        accumulate.  Bypass towers (``j`` inside digit ``d``) read the
        original input tower instead of an extended one.
        """
        names = self._names
        bypass = self.digit_of[j] == d
        src = names.inp[j] if bypass else names.ext[d][j]
        streamed = not self.config.evk_on_chip
        inputs = (src, names.evk[d][j]) if streamed else (src,)
        started = self.acc_started.get(j, False)
        self.b.compute(
            Kind.MULKEY,
            inputs=inputs,
            outputs=((names.acc[0][j], self.tb), (names.acc[1][j], self.tb)),
            ops=self._mulkey_ops[started],
            label=names.mulkey[d][j],
            output_priority=PRI_ACC,
        )
        self.acc_started[j] = True
        if not bypass:
            self.b.free(src)
        if streamed:
            self.b.free(names.evk[d][j])

    def free_digit_icoef(self, d: int) -> None:
        """Release a digit's INTT outputs once no stage will read them again."""
        for name in self._names.digit_icoef[d]:
            self.b.free(name)

    # -- ModDown kernels ----------------------------------------------------------------

    def md_intt(self, j: int, h: int) -> None:
        """ModDown P1: INTT auxiliary accumulator tower ``j`` of half ``h``.

        ModDown processes the two result polynomials one after the other so
        that only one half's ``K`` INTT outputs need to stay resident.
        """
        if j not in self.p_region():
            raise ScheduleError(f"ModDown P1 applies to P towers, got {j}")
        names = self._names
        acc = names.acc[h][j]
        self.b.compute(
            Kind.INTT,
            inputs=(acc,),
            outputs=((names.mdc[h][j], self.tb),),
            ops=self._ntt_ops,
            label=names.md_intt[h][j],
            output_priority=PRI_MDC,
        )
        self.b.free(acc)

    def md_bconv(self, i: int, h: int) -> None:
        """ModDown P2: BConv all auxiliary towers -> chain tower ``i``."""
        names = self._names
        self._emit_bconv(names.mdc_sources[h], names.mdb[h][i],
                         names.md_bconv[h][i])

    def md_ntt(self, i: int, h: int) -> None:
        """ModDown P3: NTT of the converted tower."""
        names = self._names
        mdb = names.mdb[h][i]
        self.b.compute(
            Kind.NTT,
            inputs=(mdb,),
            outputs=((names.mde[h][i], self.tb),),
            ops=self._ntt_ops,
            label=names.md_ntt[h][i],
            output_priority=PRI_TRANSIENT,
        )
        self.b.free(mdb)

    def md_finish(self, i: int, h: int) -> None:
        """ModDown P4: subtract, scale by ``P^-1``, store output tower ``i``."""
        names = self._names
        acc, mde, out = names.acc[h][i], names.mde[h][i], names.out[h][i]
        b = self.b
        b.compute(
            Kind.PWISE,
            inputs=(acc, mde),
            outputs=((out, self.tb),),
            ops=self._finish_ops,
            label=names.md_finish[h][i],
            output_priority=PRI_TRANSIENT,
        )
        b.free(acc)
        b.free(mde)
        b.writeback(out)
        b.free(out)

    def free_mdc(self, h: int) -> None:
        for name in self._names.mdc_sources[h]:
            self.b.free(name)

    def moddown_staged(self) -> None:
        """Stage-ordered ModDown (MP/DC): per half, P1 all, P2 all, P3 all, P4 all."""
        for h in HALVES:
            for j in self.p_region():
                self.md_intt(j, h)
            for i in self.q_region():
                self.md_bconv(i, h)
            for i in self.q_region():
                self.md_ntt(i, h)
            self.free_mdc(h)
            for i in self.q_region():
                self.md_finish(i, h)

    def moddown_output_centric(self) -> None:
        """OC ModDown: per half, fuse P2 -> P3 -> P4 per output tower."""
        for h in HALVES:
            for j in self.p_region():
                self.md_intt(j, h)
            for i in self.q_region():
                self.md_bconv(i, h)
                self.md_ntt(i, h)
                self.md_finish(i, h)
            self.free_mdc(h)
