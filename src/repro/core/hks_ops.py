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

from typing import Dict, List

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
        self.digit_of: List[int] = []
        self._digit_towers: List[range] = []
        for d, size in enumerate(spec.digit_sizes):
            start = len(self.digit_of)
            self._digit_towers.append(range(start, start + size))
            self.digit_of.extend([d] * size)
        self.digit_of.extend([-1] * spec.kp)
        self._q_region = range(spec.kl)
        self._p_region = range(spec.kl, spec.extended_towers)
        self._all_ext = range(spec.extended_towers)
        #: per extended tower: has the accumulator been started yet?
        self.acc_started: Dict[int, bool] = {}
        for t in range(spec.kl):
            builder.define_dram(f"in[{t}]", self.tb)
        if not config.evk_on_chip:
            # Seed-compressed keys stream only the b half (1 tower/pair).
            evk_bytes = self.tb if config.key_compression else 2 * self.tb
            for d in range(spec.dnum):
                for j in range(spec.extended_towers):
                    builder.define_dram(f"evk[{d}][{j}]", evk_bytes, EVK_TAG)

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
        """How many digits' INTT outputs fit on-chip alongside the working
        set (OC's adaptive pinning).  Counted over digit-size prefixes with
        an 8-tower margin for accumulators, keys and transients.
        """
        margin_towers = 2
        avail = self.b.budget // self.tb - margin_towers
        pinned = 0
        used = 0
        for towers in self._digit_towers:
            if used + len(towers) > avail:
                break
            used += len(towers)
            pinned += 1
        return pinned

    def intt_input(self, t: int, priority: int = PRI_ICOEF_STAGE) -> None:
        """ModUp P1 for input tower ``t`` -> ``icoef[t]``."""
        self.b.compute(
            Kind.INTT,
            inputs=[f"in[{t}]"],
            outputs=[(f"icoef[{t}]", self.tb)],
            ops=ntt_tower_ops(self.n),
            label=f"ModUp.P1 intt t{t}",
            output_priority=priority,
        )

    def _bconv_chunk_len(self, num_sources: int) -> int:
        """Largest source count whose towers fit on-chip alongside the
        output and some working margin.

        BConv is a sum of per-source scaled terms, so it can accumulate in
        chunks when the full source set exceeds the budget (small-SRAM
        configurations); each chunk is one partial-accumulation task.
        """
        if self.bconv_chunk:
            return min(num_sources, max(1, self.bconv_chunk))
        budget_towers = self.b.budget // self.tb
        return min(num_sources, max(1, budget_towers - 4))

    def _emit_bconv(self, sources: List[str], out: str, label: str) -> None:
        chunk = self._bconv_chunk_len(len(sources))
        for lo in range(0, len(sources), chunk):
            part = sources[lo : lo + chunk]
            suffix = f" [{lo}:{lo + len(part)}]" if chunk < len(sources) else ""
            self.b.compute(
                Kind.BCONV,
                inputs=part,
                outputs=[(out, self.tb)],
                ops=bconv_tower_ops(self.n, len(part)),
                label=label + suffix,
                output_priority=PRI_TRANSIENT,
            )

    def bconv(self, d: int, j: int) -> None:
        """ModUp P2: digit ``d`` -> coefficient-domain tower ``j``."""
        if self.digit_of[j] == d:
            raise ScheduleError(f"tower {j} belongs to digit {d}: bypass, not BConv")
        sources = [f"icoef[{t}]" for t in self.digit_towers(d)]
        self._emit_bconv(sources, f"bc[{d}][{j}]", f"ModUp.P2 bconv d{d}->t{j}")

    def ntt_ext(self, d: int, j: int) -> None:
        """ModUp P3: NTT ``bc[d][j]`` -> ``ext[d][j]`` (frees the BConv buffer)."""
        self.b.compute(
            Kind.NTT,
            inputs=[f"bc[{d}][{j}]"],
            outputs=[(f"ext[{d}][{j}]", self.tb)],
            ops=ntt_tower_ops(self.n),
            label=f"ModUp.P3 ntt d{d}->t{j}",
            output_priority=PRI_EXT,
        )
        self.b.free(f"bc[{d}][{j}]")

    def mulkey(self, d: int, j: int) -> None:
        """ModUp P4 (+ P5 accumulation) for digit ``d`` and tower ``j``.

        Multiplies the extended tower by both evk halves; the first digit to
        reach tower ``j`` initialises the accumulators, later digits
        accumulate.  Bypass towers (``j`` inside digit ``d``) read the
        original input tower instead of an extended one.
        """
        bypass = self.digit_of[j] == d
        src = f"in[{j}]" if bypass else f"ext[{d}][{j}]"
        inputs = [src]
        if not self.config.evk_on_chip:
            inputs.append(f"evk[{d}][{j}]")
        first = not self.acc_started.get(j, False)
        # Regenerating the compressed a-half costs one PRNG pass per tower.
        compressed = self.config.key_compression and not self.config.evk_on_chip
        regen = self.n if compressed else 0
        ops = OpCount(muls=2 * self.n + regen, adds=0 if first else 2 * self.n)
        self.b.compute(
            Kind.MULKEY,
            inputs=inputs,
            outputs=[(f"acc0[{j}]", self.tb), (f"acc1[{j}]", self.tb)],
            ops=ops,
            label=f"ModUp.P4 mulkey d{d} t{j}{' (bypass)' if bypass else ''}",
            output_priority=PRI_ACC,
        )
        self.acc_started[j] = True
        if not bypass:
            self.b.free(src)
        if not self.config.evk_on_chip:
            self.b.free(f"evk[{d}][{j}]")

    def free_digit_icoef(self, d: int) -> None:
        """Release a digit's INTT outputs once no stage will read them again."""
        for t in self.digit_towers(d):
            self.b.free(f"icoef[{t}]")

    # -- ModDown kernels ----------------------------------------------------------------

    def md_intt(self, j: int, h: int) -> None:
        """ModDown P1: INTT auxiliary accumulator tower ``j`` of half ``h``.

        ModDown processes the two result polynomials one after the other so
        that only one half's ``K`` INTT outputs need to stay resident.
        """
        if j not in self.p_region():
            raise ScheduleError(f"ModDown P1 applies to P towers, got {j}")
        self.b.compute(
            Kind.INTT,
            inputs=[f"acc{h}[{j}]"],
            outputs=[(f"mdc{h}[{j}]", self.tb)],
            ops=ntt_tower_ops(self.n),
            label=f"ModDown.P1 intt h{h} t{j}",
            output_priority=PRI_MDC,
        )
        self.b.free(f"acc{h}[{j}]")

    def md_bconv(self, i: int, h: int) -> None:
        """ModDown P2: BConv all auxiliary towers -> chain tower ``i``."""
        sources = [f"mdc{h}[{j}]" for j in self.p_region()]
        self._emit_bconv(sources, f"mdb{h}[{i}]", f"ModDown.P2 bconv h{h} t{i}")

    def md_ntt(self, i: int, h: int) -> None:
        """ModDown P3: NTT of the converted tower."""
        self.b.compute(
            Kind.NTT,
            inputs=[f"mdb{h}[{i}]"],
            outputs=[(f"mde{h}[{i}]", self.tb)],
            ops=ntt_tower_ops(self.n),
            label=f"ModDown.P3 ntt h{h} t{i}",
            output_priority=PRI_TRANSIENT,
        )
        self.b.free(f"mdb{h}[{i}]")

    def md_finish(self, i: int, h: int) -> None:
        """ModDown P4: subtract, scale by ``P^-1``, store output tower ``i``."""
        self.b.compute(
            Kind.PWISE,
            inputs=[f"acc{h}[{i}]", f"mde{h}[{i}]"],
            outputs=[(f"out{h}[{i}]", self.tb)],
            ops=pointwise_mac_ops(self.n),
            label=f"ModDown.P4 finish h{h} t{i}",
            output_priority=PRI_TRANSIENT,
        )
        self.b.free(f"acc{h}[{i}]")
        self.b.free(f"mde{h}[{i}]")
        self.b.writeback(f"out{h}[{i}]")
        self.b.free(f"out{h}[{i}]")

    def free_mdc(self, h: int) -> None:
        for j in self.p_region():
            self.b.free(f"mdc{h}[{j}]")

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
