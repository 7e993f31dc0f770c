"""A decision-driven HKS dataflow: one emitter covering the whole space.

:class:`DecisionDataflow` turns an :class:`~repro.sched.space.HKSDecision`
into a concrete schedule through the same :class:`~repro.core.hks_ops.
HKSEmitter` stage kernels the hand-written dataflows use.  Legacy bases
(``MP``/``DC``/``OC``) delegate to the registered dataflow verbatim, so a
legacy decision reproduces the hand-written schedule *exactly* (same task
graph, same digest).  ``GEN`` decisions drive the generic pinned-digit
emitter below, whose family contains OC-like, DC-like and MP-like points
plus configurations the hand-written trio never tries (full pinning,
stage-major tiles, per-tower ModDown fusion under a digit loop, evk
prefetch).

The emitter works against either a schedule-building
:class:`~repro.core.hks_ops.HKSEmitter` or a functional
:class:`~repro.core.functional.FunctionalEmitter`; capacity and prefetch
logic degrade gracefully via ``hasattr`` exactly like the OC dataflow.
"""

from __future__ import annotations

from typing import List

from repro.core.dataflow import Dataflow
from repro.core.hks_ops import PRI_ICOEF, PRI_ICOEF_LAST
from repro.sched.space import HKSDecision


def _capacity(em) -> int:
    if hasattr(em, "max_pinned_digits"):
        return em.max_pinned_digits()
    return em.dnum  # functional emitter: memory is not modelled


class DecisionDataflow(Dataflow):
    """Schedule emitter parameterised by one :class:`HKSDecision`."""

    name = "SOLVER"
    title = "Solver-selected"

    def __init__(self, decision: HKSDecision):
        self.decision = decision
        if decision.is_legacy:
            # Resolved lazily to keep this importable before DATAFLOWS is.
            from repro.core import get_dataflow

            self._delegate = get_dataflow(decision.base)
            # Same graph name, hence same digest, as the hand-written
            # dataflow built directly.
            self.name = self._delegate.name
            self.title = self._delegate.title
        else:
            self._delegate = None

    def schedule(self, em) -> None:
        if self._delegate is not None:
            self._delegate.schedule(em)
            return
        decision = self.decision
        if decision.bconv_chunk and hasattr(em, "bconv_chunk"):
            em.bconv_chunk = decision.bconv_chunk
        pinned_count = min(decision.pinned_digits, em.dnum, _capacity(em))
        pinned = list(range(pinned_count))
        tail = list(range(pinned_count, em.dnum))
        prefetch = (
            decision.evk_prefetch
            and hasattr(em, "b")
            and hasattr(em, "config")
            and not em.config.evk_on_chip
        )

        # ModUp P1 for every pinned digit; resident for the whole sweep.
        for d in pinned:
            for t in em.digit_towers(d):
                em.intt_input(t, priority=PRI_ICOEF)

        if pinned:
            self._pinned_sweep(em, pinned, prefetch)
            for d in pinned:
                em.free_digit_icoef(d)

        # Tail passes: digits whose INTT outputs never fit on-chip are
        # loaded, transformed and fully consumed one digit at a time.
        for d in tail:
            for t in em.digit_towers(d):
                em.intt_input(t, priority=PRI_ICOEF_LAST)
            for j in em.all_ext():
                self._contribute(em, d, j, prefetch)
            em.free_digit_icoef(d)

        if decision.moddown_fused:
            em.moddown_output_centric()
        else:
            em.moddown_staged()

    # -- sweep orders ---------------------------------------------------------------

    def _pinned_sweep(self, em, pinned: List[int], prefetch: bool) -> None:
        if self.decision.loop == "digit":
            # Digit-major: each pinned digit finishes all its target
            # towers before the next digit starts (DC-like, but every
            # pinned digit's INTT outputs are already resident).  The
            # bypass contribution runs under its owning digit.
            for d in pinned:
                for j in em.all_ext():
                    self._contribute(em, d, j, prefetch)
            return
        tile = self.decision.tile_towers
        towers = list(em.all_ext())
        if tile <= 1:
            # Pure output-tower order: finish each tower before the next.
            for j in towers:
                self._tower_contributions(em, pinned, j, prefetch)
            return
        # Stage-major inside tiles of `tile` extended towers: all BConvs,
        # then all NTTs, then all key multiplies.  Interpolates between OC
        # (tile 1) and MP (tile = all towers).
        for lo in range(0, len(towers), tile):
            block = towers[lo : lo + tile]
            work = []  # (d, j) pairs needing the full BConv path
            for j in block:
                owner = em.digit_of[j]
                for d in pinned:
                    if d != owner:
                        work.append((d, j))
            if prefetch:
                # Issue the tile's key loads ahead of its compute chain so
                # the memory queue overlaps the BConv/NTT work.
                for d, j in work:
                    em.b.touch(f"evk[{d}][{j}]")
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

    def _tower_contributions(self, em, pinned: List[int], j: int,
                             prefetch: bool) -> None:
        owner = em.digit_of[j]
        if owner in pinned:
            self._contribute(em, owner, j, prefetch)
        for d in pinned:
            if d != owner:
                self._contribute(em, d, j, prefetch)

    def _contribute(self, em, d: int, j: int, prefetch: bool) -> None:
        """Digit ``d``'s full contribution to extended tower ``j``."""
        if em.digit_of[j] != d:
            if prefetch:
                # Start the key load before the compute chain it feeds, so
                # the stream overlaps the BConv + NTT ahead of the mulkey.
                em.b.touch(f"evk[{d}][{j}]")
            em.bconv(d, j)
            em.ntt_ext(d, j)
        em.mulkey(d, j)
