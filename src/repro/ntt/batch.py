"""Whole-matrix negacyclic NTT over an RNS tower stack.

:class:`NTTContext` transforms one tower at a time, so converting an
``(L, N)`` RNS polynomial between domains costs ``L * log2(N)`` numpy
passes — at the functional layer's small rings the interpreter overhead
of those ``L`` separate calls dominates the arithmetic.  This engine
stacks the per-tower twiddle tables into ``(L, N)`` matrices and keeps
the moduli as a column vector ``q[:, None]``, so one butterfly stage
updates *every* tower at once and a full transform is ``log2(N)``
vectorized passes total.

Three further tricks shave numpy passes off each stage:

- **lazy reduction, scheduled per tower run** — butterfly outputs are
  allowed to grow a few multiples of ``q`` beyond canonical before a
  ``% q`` pass reclaims them.  The growth cap is ``2**(62 - 2*bits)``
  per tower, so narrow scale primes (26-bit) ride out a whole transform
  without any mid-loop reduction while only the wide ``q0``/special
  rows (29-30 bit, cap 4) pay periodic row-sliced ``%`` passes.  All
  intermediates stay congruent mod ``q`` (signed values included), and
  the final canonicalization makes outputs bit-identical to the
  eagerly-reduced scalar network.
- **lazy signed Barrett** — the per-stage twiddle-product reduction
  replaces int64 division (which never vectorizes) with a float64
  multiply-by-inverse, ``rint`` and an exact int64 fixup, leaving a
  signed remainder in ``(-q, q)``.  The remainder magnitude matches the
  canonical one, so the lazy growth schedule is unchanged; below
  :data:`_BARRETT_MIN_ELEMS` elements per block the extra passes cost
  more than the division and the engine keeps ``%``.
- **preallocated scratch** — each stage writes the difference leg through
  reused buffers instead of allocating per call, and the input is
  canonical by the :class:`repro.rns.poly.RNSPoly` invariant so no
  ``% q`` validation pass is spent on entry.

The twiddle stacks are assembled from the per-``(N, q)``
:class:`NTTContext` tables, which persist across processes via
:mod:`repro.cache`; a warm cache makes both layers free to construct.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.ntt.transform import get_ntt_context

_INT64 = np.int64

_Bundle = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]

#: Distinct leading shapes whose ping-pong buffers an engine keeps alive.
#: Serving batches cluster around a handful of B values; anything rarer
#: allocates per call instead of pinning memory forever.
_MAX_CACHED_BATCH_SHAPES = 8

#: Smallest twiddle-product block (elements) for which the 5-pass float
#: Barrett reduction beats one int64 ``%`` pass.  Measured on the
#: functional ring sizes: division costs ~4.5ns/element while the float
#: passes cost ~0.7ns each, so the crossover sits near 8k elements.  The
#: block size is all that decides: an ``(L, N)`` matrix and a ``(1, L, N)``
#: stack of it take the same branch.
_BARRETT_MIN_ELEMS = 8192


class BatchNTT:
    """Batched negacyclic NTT for a fixed ordered tuple of moduli.

    Inputs/outputs are ``(..., L, N)`` int64 arrays of canonical
    residues, row ``i`` of the last two axes modulo ``moduli[i]``: one
    ``(L, N)`` matrix, a ``(B, L, N)`` stack of them (the
    cross-ciphertext batch axis), or both halves of such a stack, all
    transformed in one pass.  The twiddle tables stay ``(L, ...)`` and
    broadcast over the leading axes, so no per-``B`` table is ever built
    or cached.  Outputs are bit-identical to looping
    :meth:`NTTContext.forward` / :meth:`NTTContext.inverse` over the rows
    (and over the leading axes) — ``tests/test_kernel_equivalence.py``
    holds this as a hypothesis property.
    """

    def __init__(self, n: int, moduli: Tuple[int, ...]) -> None:
        contexts = [get_ntt_context(n, q) for q in moduli]
        self.n = n
        self.moduli = tuple(moduli)
        #: (L, 1) column vector of moduli — broadcasts against (L, m, t)
        #: butterfly legs as (L, 1, 1).
        self._q = np.array(self.moduli, dtype=_INT64)[:, None]
        self._q3 = self._q[:, :, None]
        self._qinv3 = 1.0 / self._q3
        self._psi_rev = np.stack([c._psi_rev for c in contexts])
        self._psi_inv_rev = np.stack([c._psi_inv_rev for c in contexts])
        self._n_inv = np.array([c._n_inv for c in contexts], dtype=_INT64)[:, None]
        #: Maximal runs of adjacent towers sharing a lazy growth cap
        #: (``2**(62 - 2*bits)`` multiples of q before a twiddle product
        #: could overflow int64).  Mid-loop reductions touch one run at
        #: a time, so 26-bit scale towers (cap 1024) never reduce while
        #: the wide q0/special rows (cap 4) reduce on their own beat.
        self._runs = self._build_runs()
        #: Buffer bundle per leading shape, allocated on first use:
        #: ping-pong work, twiddle-product scratch, and (only where the
        #: blocks are large enough to use it) the Barrett int/float pair.
        self._bufs: Dict[Tuple[int, ...], _Bundle] = {}
        # Per-stage twiddle slices, contiguous and pre-shaped for the
        # (L, m, t) butterfly blocks, so the hot loop does no slicing.
        self._fwd_tw = []
        m = 1
        while m < n:
            self._fwd_tw.append(
                np.ascontiguousarray(self._psi_rev[:, m : 2 * m])[:, :, None]
            )
            m *= 2
        self._inv_tw = []
        m = n
        while m > 1:
            h = m // 2
            self._inv_tw.append(
                np.ascontiguousarray(self._psi_inv_rev[:, h : 2 * h])[:, :, None]
            )
            m = h
        # The stacked tables are only needed to build the per-stage slices;
        # engines live forever in the lru cache, so drop the duplicates.
        del self._psi_rev
        del self._psi_inv_rev

    # -- public API ---------------------------------------------------------

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """COEFF -> EVAL for every ``(L, N)`` matrix of the input at once.

        Residues must already be canonical (``[0, q_i)`` per row) — the
        callers inside :class:`repro.rns.poly.RNSPoly` maintain that
        invariant, so no ``% q`` canonicalization pass is spent on entry.
        Each butterfly stage reads one ping-pong buffer and writes the
        other (twiddle multiply, reduce, sum leg, difference leg);
        intermediates run signed and lazily reduced, and the final
        canonicalization restores exact agreement with the
        eagerly-reduced scalar network.
        """
        src, dst, spare, tmp, ired, fred = self._buffers(coeffs)
        if dst is None or spare is None or tmp is None:
            return src
        original = src
        towers = len(self.moduli)
        lead = src.shape[:-2]
        q3 = self._q3
        runs = self._runs
        bounds = [1] * len(runs)
        stage = 0
        m, t = 1, self.n
        while m < self.n:
            t //= 2
            for i, (sl, q_run, cap) in enumerate(runs):
                if bounds[i] > cap:
                    src[..., sl, :] %= q_run
                    bounds[i] = 1
            blk = src.reshape(*lead, towers, m, 2 * t)
            out_blk = dst.reshape(*lead, towers, m, 2 * t)
            lo = blk[..., :t]
            whi = tmp.reshape(*lead, towers, m, t)
            np.multiply(blk[..., t:], self._fwd_tw[stage], out=whi)
            if ired is not None and fred is not None:
                self._barrett(whi, ired, fred, lead + (towers, m, t))
            else:
                whi %= q3
            np.add(lo, whi, out=out_blk[..., :t])
            np.subtract(lo, whi, out=out_blk[..., t:])
            bounds = [b + 1 for b in bounds]
            stage += 1
            src, dst = dst, (spare if src is original else src)
            m *= 2
        src %= self._q
        return src

    def inverse(self, evals: np.ndarray) -> np.ndarray:
        """EVAL (bit-reversed) -> COEFF, same shapes as :meth:`forward`."""
        src, dst, spare, tmp, ired, fred = self._buffers(evals)
        if dst is None or spare is None or tmp is None:
            return src
        original = src
        towers = len(self.moduli)
        lead = src.shape[:-2]
        q3 = self._q3
        runs = self._runs
        bounds = [1] * len(runs)
        stage = 0
        t, m = 1, self.n
        while m > 1:
            h = m // 2
            for i, (sl, q_run, cap) in enumerate(runs):
                if bounds[i] > cap:
                    src[..., sl, :] %= q_run
                    bounds[i] = 1
            blk = src.reshape(*lead, towers, h, 2 * t)
            out_blk = dst.reshape(*lead, towers, h, 2 * t)
            lo = blk[..., :t]
            hi = blk[..., t:]
            # GS butterfly: (lo', hi') = (lo + hi, (lo - hi) * w mod q).
            # The signed difference stays within +/- bound * q, so its
            # twiddle product fits int64 and the reduction (either % or
            # signed Barrett) leaves a congruent value smaller than q.
            diff = tmp.reshape(*lead, towers, h, t)
            np.subtract(lo, hi, out=diff)
            np.add(lo, hi, out=out_blk[..., :t])
            prod = out_blk[..., t:]
            np.multiply(diff, self._inv_tw[stage], out=prod)
            if ired is not None and fred is not None:
                self._barrett(prod, ired, fred, lead + (towers, h, t))
            else:
                prod %= q3
            bounds = [b * 2 for b in bounds]
            stage += 1
            src, dst = dst, (spare if src is original else src)
            t *= 2
            m = h
        for (sl, q_run, cap), bound in zip(runs, bounds):
            if bound > cap:
                src[..., sl, :] %= q_run
        src *= self._n_inv
        src %= self._q
        return src

    # -- helpers ------------------------------------------------------------

    def _barrett(
        self,
        prod: np.ndarray,
        ired: np.ndarray,
        fred: np.ndarray,
        shape: Tuple[int, ...],
    ) -> None:
        """Reduce ``prod`` in place to a signed remainder in ``(-q, q)``.

        ``round(prod / q) * q`` is subtracted exactly in int64; the
        quotient comes from a float64 multiply-by-inverse whose error is
        far below 1/2 for 62-bit products and 25+-bit moduli, so the
        remainder magnitude never exceeds the canonical one and the
        caller's lazy growth schedule is unchanged.  Values stay
        congruent mod q — the transform's final ``%`` canonicalizes.
        """
        q3 = self._q3
        fblk = fred.reshape(shape)
        iblk = ired.reshape(shape)
        np.multiply(prod, self._qinv3, out=fblk)
        np.rint(fblk, out=fblk)
        np.copyto(iblk, fblk, casting="unsafe")
        np.multiply(iblk, q3, out=iblk)
        np.subtract(prod, iblk, out=prod)

    def _build_runs(self) -> List[Tuple[slice, np.ndarray, int]]:
        """Adjacent towers bucketed by bit width into (slice, q, cap)."""
        caps = [
            max(1, 1 << max(0, 62 - 2 * q.bit_length())) for q in self.moduli
        ]
        runs: List[Tuple[slice, np.ndarray, int]] = []
        start = 0
        for i in range(1, len(caps) + 1):
            if i == len(caps) or caps[i] != caps[start]:
                runs.append((slice(start, i), self._q[start:i], caps[start]))
                start = i
        if len(runs) > 4:
            # Pathological interleaving: fall back to one global run so
            # the hot loop never pays per-run bookkeeping.
            return [(slice(0, len(caps)), self._q, min(caps))]
        return runs

    def _bundle(self, lead: Tuple[int, ...]) -> _Bundle:
        """(work, scratch, barrett-int, barrett-float) for ``lead + (L, N)``."""
        bufs = self._bufs.get(lead)
        if bufs is None:
            towers = len(self.moduli)
            block = lead + (towers, max(1, self.n // 2))
            barrett = math.prod(block) >= _BARRETT_MIN_ELEMS
            bufs = (
                np.empty(lead + (towers, self.n), dtype=_INT64),
                np.empty(block, dtype=_INT64),
                np.empty(block, dtype=_INT64) if barrett else None,
                np.empty(block, dtype=np.float64) if barrett else None,
            )
            if len(self._bufs) < _MAX_CACHED_BATCH_SHAPES:
                self._bufs[lead] = bufs
        return bufs

    def _buffers(
        self, arr: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray],
               Optional[np.ndarray], Optional[np.ndarray],
               Optional[np.ndarray]]:
        """Validate input and set up the ping-pong buffer pair.

        The input array is only ever *read* (stage 1 writes into a
        buffer), and the buffer parity is arranged so the final stage
        lands in a freshly allocated caller-owned array, never in the
        engine's reusable scratch.  The Barrett pair comes back ``None``
        when the twiddle-product blocks are too small for the float
        reduction to win.
        """
        arr = np.asarray(arr, dtype=_INT64)
        expected = (len(self.moduli), self.n)
        if arr.ndim < 2 or arr.shape[-2:] != expected:
            raise ParameterError(
                f"batched NTT expects shape (..., {expected[0]}, "
                f"{expected[1]}), got {arr.shape}"
            )
        stages = self.n.bit_length() - 1
        if stages == 0:
            return arr.copy(), None, None, None, None, None
        work, scratch, ired, fred = self._bundle(arr.shape[:-2])
        result = np.empty(arr.shape, dtype=_INT64)
        if stages % 2 == 1:
            return arr, result, work, scratch, ired, fred
        return arr, work, result, scratch, ired, fred

    def __repr__(self) -> str:
        return f"BatchNTT(n={self.n}, towers={len(self.moduli)})"


@lru_cache(maxsize=None)
def get_batch_ntt(n: int, moduli: Tuple[int, ...]) -> BatchNTT:
    """Shared per-``(N, moduli)`` engine, assembled from cached contexts.

    Key switching walks a fixed set of level/digit bases, so the number of
    distinct stacks is small; each holds two ``(L, N)`` int64 tables plus
    the work buffers of the shapes it has transformed.
    """
    return BatchNTT(n, tuple(int(q) for q in moduli))
