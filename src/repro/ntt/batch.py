"""Whole-stack negacyclic NTT as two exact float64 matrix products.

:class:`NTTContext` runs ``log2(N)`` butterfly stages per tower; each
stage is a handful of strided numpy passes, so a transform is bound by
pass count, not arithmetic.  This engine computes the *same*
bit-reversed negacyclic transform of an ``(..., L, N)`` stack with the
four-step (Bailey) factorisation, whose arithmetic is two dense matrix
products that run in the BLAS numpy already ships.

**Index maps.**  Write ``N = n1 * n2`` with ``n1 = 2**ceil(log2(N)/2)``
and view a tower as an ``(n1, n2)`` matrix in natural row-major layout:
input index ``j = j1*n2 + j2``, output slot ``i = i1*n2 + i2``.  Slot
``i`` of the bit-reversed forward transform holds
``sum_j a[j] * psi**(j * (2*rev_N(i) + 1))`` and
``rev_N(i) = rev(i2)*n1 + rev(i1)``, so the exponent splits into four
terms of which one is a multiple of ``2N`` (``psi**(2N) = 1``)::

    out = ((F1 @ A) * T) @ F2            # forward, per tower
    F1[i1, j1] = psi**(n2 * j1 * (2*rev(i1) + 1))      (n1, n1)
    T [i1, j2] = psi**(     j2 * (2*rev(i1) + 1))      (n1, n2)
    F2[j2, i2] = psi**(2 * n1 * j2 * rev(i2))          (n2, n2)

and the inverse is the mirror image with ``psi**-1`` and ``N**-1``
folded into the last factor: ``G1 @ ((E @ G2) * T')`` with
``G2 = F2'.T`` and ``G1 = N**-1 * F1'.T``.  The ``psi`` pre-twist, the
bit-reversed output order and the ``N**-1`` scaling all live in the
constant matrices, and the left product mixes rows while the right
product mixes columns — so input and output stay in natural layout and
there is no transpose, permutation or twist pass anywhere.

**Exactness.**  Residues are below ``2**30`` and float64 represents
every integer up to ``2**53``, so each constant matrix is split into a
balanced low limb in ``[-2**14, 2**14)`` and a high limb in
``[0, 2**15]`` (``M = lo + 2**15 * hi``).  A limb product sums at most
``n1`` terms below ``2**15 * 2**30``: every partial sum is an integer of
magnitude below ``n1 * 2**45 <= 2**53`` for ``n1 <= 256``, hence exactly
representable *whatever order BLAS adds them in* (an FMA is exact too).
The limbs are recombined by floor-multiply-subtract reductions on
integer-valued floats below ``2**53`` (see :meth:`BatchNTT._fold`), the
one element-wise twiddle product runs in int64 with the float-Barrett
:func:`repro.ntt.modmath.reduce_signed`, and the last fold is followed
by one conditional subtract — so outputs are canonical and bit-identical
to looping :meth:`NTTContext.forward` / :meth:`NTTContext.inverse` over
the rows.  Construction refuses a ring whose ``n1`` would break the
bound (``N > 2**16``).

**Memory.**  The stack is processed in cache-sized chunks — one tower
(or a few, on small rings) across as many stack members as fit — so a
tower's matrices are streamed once per transform, and every engine
shares one small per-thread scratch arena instead of pinning buffers
per engine and per input shape.  The matrices are gathered, vectorised,
from the per-``(N, q)`` :class:`NTTContext` power tables (which persist
across processes via :mod:`repro.cache`) the first time a direction is
used: the stacked-complement engines of ModUp only ever run forward.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.ntt.modmath import (
    MAX_MODULUS_BITS,
    reduce_signed,
    scratch,
    stack_chunks,
)
from repro.ntt.transform import (
    bit_reverse_indices,
    get_ntt_context,
    is_power_of_two,
)

_INT64 = np.int64
_FLOAT64 = np.float64

#: Width of a constant-matrix limb (``M = lo + 2**15 * hi``).
_LIMB_BITS = 15

#: Largest row count ``n1``: ``n1`` terms of high limb (``<= 2**15``)
#: times residue (``< 2**MAX_MODULUS_BITS``) must sum below ``2**53``.
_MAX_ROWS = 1 << (53 - _LIMB_BITS - MAX_MODULUS_BITS)

#: Downward bias on float quotients before ``floor``: above the float
#: error (``< 2**-28`` for the ``< 2**24`` quotients here), so the
#: floored quotient never overshoots and remainders land in ``[0, 2q)``.
_FLOOR_BIAS = 2.0 ** -20


class _Tables(NamedTuple):
    """One direction's constants, each stacked over the towers: the two
    limbs of the first product's matrix, the int64 twiddles, the two
    limbs of the second product's matrix, and which side the first
    matrix multiplies from (forward ``F1 @ A``, inverse ``E @ G2``)."""

    left_first: bool
    first_lo: np.ndarray
    first_hi: np.ndarray
    twiddle: np.ndarray
    second_lo: np.ndarray
    second_hi: np.ndarray


def _limbs(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split into float64 ``(lo, hi * 2**15)`` with ``lo`` balanced.

    The high limb is stored pre-scaled: scaling by a power of two is
    exact in float64, so its matrix product comes out as ``2**15`` times
    the exact integer sum with no extra pass.
    """
    half = 1 << (_LIMB_BITS - 1)
    lo = ((matrix + half) & ((1 << _LIMB_BITS) - 1)) - half
    return (
        np.ascontiguousarray(lo, dtype=_FLOAT64),
        np.ascontiguousarray(matrix - lo, dtype=_FLOAT64),
    )


class BatchNTT:
    """Batched negacyclic NTT for a fixed ordered tuple of moduli.

    Inputs/outputs are ``(..., L, N)`` int64 arrays of canonical
    residues, row ``i`` of the last two axes modulo ``moduli[i]``: one
    ``(L, N)`` matrix, a ``(B, L, N)`` stack of them (the
    cross-ciphertext batch axis), or both halves of such a stack, all
    transformed in one call.  The constant matrices stay ``(L, ...)`` and
    broadcast over the leading axes, so no per-``B`` table is ever built
    or cached.  Outputs are bit-identical to looping
    :meth:`NTTContext.forward` / :meth:`NTTContext.inverse` over the rows
    (and over the leading axes) — ``tests/test_kernel_equivalence.py``
    holds this as a hypothesis property.
    """

    def __init__(self, n: int, moduli: Tuple[int, ...]) -> None:
        if not is_power_of_two(n):
            raise ParameterError(f"ring degree must be a power of two, got {n}")
        log_n = n.bit_length() - 1
        rows = 1 << ((log_n + 1) // 2)
        if rows > _MAX_ROWS:
            raise ParameterError(
                f"N={n} needs {rows}-term limb products, which can exceed "
                f"2**53 and lose float64 exactness; the matrix NTT "
                f"supports N <= {_MAX_ROWS * _MAX_ROWS}"
            )
        self.n = n
        self.moduli = tuple(moduli)
        self._rows = rows
        self._cols = n // rows
        self._contexts = [get_ntt_context(n, q) for q in self.moduli]
        #: Moduli as (L, 1, 1) columns broadcasting over (..., L, n1, n2).
        self._q_int = np.array(self.moduli, dtype=_INT64)[:, None, None]
        self._q = self._q_int.astype(_FLOAT64)
        self._q_inv = 1.0 / self._q
        self._q_hi = self._q * (1 << _LIMB_BITS)
        self._q_hi_inv = self._q_inv / (1 << _LIMB_BITS)
        self._forward: Optional[_Tables] = None
        self._inverse: Optional[_Tables] = None

    # -- public API ---------------------------------------------------------

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """COEFF -> EVAL for every ``(L, N)`` matrix of the input at once.

        Residues must already be canonical (``[0, q_i)`` per row) — the
        callers inside :class:`repro.rns.poly.RNSPoly` maintain that
        invariant, so no ``% q`` canonicalization pass is spent on entry.
        The input is only read; the result is a fresh caller-owned array.
        """
        if self._forward is None:
            self._forward = self._build_tables(inverse=False)
        return self._transform(coeffs, self._forward)

    def inverse(self, evals: np.ndarray) -> np.ndarray:
        """EVAL (bit-reversed) -> COEFF, same shapes as :meth:`forward`."""
        if self._inverse is None:
            self._inverse = self._build_tables(inverse=True)
        return self._transform(evals, self._inverse)

    # -- helpers ------------------------------------------------------------

    def _build_tables(self, inverse: bool) -> _Tables:
        """Gather one direction's matrices from the cached power tables.

        ``NTTContext`` stores ``psi**(+-rev(k))`` at index ``k``; undoing
        the bit reversal gives ``psi**(+-k)`` for ``k < N``, and
        ``psi**N = -1`` extends it to every exponent mod ``2N``.
        """
        n, rows, cols = self.n, self._rows, self._cols
        q = self._q_int[:, :, 0]
        table = "_psi_inv_rev" if inverse else "_psi_rev"
        powers = np.stack([getattr(c, table) for c in self._contexts])
        powers = powers[:, bit_reverse_indices(n)]
        powers = np.concatenate([powers, q - powers], axis=1)
        odd = 2 * bit_reverse_indices(rows) + 1
        row_index = np.arange(rows, dtype=_INT64)
        col_index = np.arange(cols, dtype=_INT64)
        left = powers[:, np.outer(odd, cols * row_index) % (2 * n)]
        twiddle = powers[:, np.outer(odd, col_index) % (2 * n)]
        right = powers[
            :,
            np.outer(col_index, 2 * rows * bit_reverse_indices(cols)) % (2 * n),
        ]
        if not inverse:
            first, second = left, right
        else:
            n_inv = np.array(
                [c._n_inv for c in self._contexts], dtype=_INT64
            )[:, None, None]
            first = right.transpose(0, 2, 1)
            second = left.transpose(0, 2, 1) * n_inv % self._q_int
        return _Tables(
            not inverse,
            *_limbs(first),
            np.ascontiguousarray(twiddle),
            *_limbs(second),
        )

    def _transform(self, arr: np.ndarray, tables: _Tables) -> np.ndarray:
        arr = np.asarray(arr, dtype=_INT64)
        towers = len(self.moduli)
        if arr.ndim < 2 or arr.shape[-2:] != (towers, self.n):
            raise ParameterError(
                f"batched NTT expects shape (..., {towers}, {self.n}), "
                f"got {arr.shape}"
            )
        out = np.empty(arr.shape, dtype=_INT64)
        # Natural layout: splitting the last axis is a view, as is
        # merging the leading ones (a copy only for exotic strides).
        src = arr.reshape(-1, towers, self._rows, self._cols)
        dst = out.reshape(src.shape)
        for block in stack_chunks(src.shape[0], towers, self.n):
            self._chunk(src[block], dst[block], block[1], tables)
        return out

    def _chunk(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        rows: slice,
        tables: _Tables,
    ) -> None:
        """Transform one ``(members, towers, n1, n2)`` block into ``dst``."""
        floats, ints = scratch(src.size)
        data, lo, hi = (buf.reshape(src.shape) for buf in floats)
        prod, quot = (buf.reshape(src.shape) for buf in ints)
        q_int = self._q_int[rows]
        left_first = tables.left_first
        np.copyto(data, src)
        self._matmul(tables.first_lo[rows], data, lo, left_first)
        self._matmul(tables.first_hi[rows], data, hi, left_first)
        self._fold(lo, hi, data, rows)
        # The one element-wise product: [0, 2q) times a residue fits
        # int64; the signed Barrett leaves |value| < q for the next GEMM.
        np.copyto(prod, hi, casting="unsafe")
        np.multiply(prod, tables.twiddle[rows], out=prod)
        reduce_signed(prod, q_int, self._q_inv[rows], data, quot)
        np.copyto(data, prod)
        self._matmul(tables.second_lo[rows], data, lo, not left_first)
        self._matmul(tables.second_hi[rows], data, hi, not left_first)
        self._fold(lo, hi, data, rows)
        # [0, 2q) -> [0, q): as unsigned, ``x - q`` wraps above ``x``
        # exactly when ``x < q``, so the minimum picks the canonical one.
        np.copyto(dst, hi, casting="unsafe")
        np.subtract(dst, q_int, out=quot)
        unsigned = dst.view(np.uint64)
        np.minimum(unsigned, quot.view(np.uint64), out=unsigned)

    @staticmethod
    def _matmul(
        matrix: np.ndarray, data: np.ndarray, out: np.ndarray, left: bool
    ) -> None:
        if left:
            np.matmul(matrix, data, out=out)
        else:
            np.matmul(data, matrix, out=out)

    def _fold(
        self, lo: np.ndarray, hi: np.ndarray, tmp: np.ndarray, rows: slice
    ) -> None:
        """``hi <- (lo + hi) mod q`` in ``[0, 2q)``, all in exact float64.

        ``hi`` holds ``2**15`` times an integer below ``2**53`` and ``lo``
        an integer of magnitude at most ``2**52``.  First ``hi`` is
        reduced modulo ``2**15 * q`` (quotient ``k`` off by at most one,
        ``k * q <= |hi|/2**15 + q`` still exact), leaving magnitude below
        ``2**46``; then ``lo + hi`` is an exact integer below ``2**53``
        and one biased floor-multiply-subtract brings it into
        ``[0, 2q)`` (see :data:`_FLOOR_BIAS`).
        """
        np.multiply(hi, self._q_hi_inv[rows], out=tmp)
        np.floor(tmp, out=tmp)
        np.multiply(tmp, self._q_hi[rows], out=tmp)
        np.subtract(hi, tmp, out=hi)
        np.add(hi, lo, out=hi)
        np.multiply(hi, self._q_inv[rows], out=tmp)
        np.subtract(tmp, _FLOOR_BIAS, out=tmp)
        np.floor(tmp, out=tmp)
        np.multiply(tmp, self._q[rows], out=tmp)
        np.subtract(hi, tmp, out=hi)

    def __repr__(self) -> str:
        return f"BatchNTT(n={self.n}, towers={len(self.moduli)})"


@lru_cache(maxsize=64)
def get_batch_ntt(n: int, moduli: Tuple[int, ...]) -> BatchNTT:
    """Shared per-``(N, moduli)`` engine, assembled from cached contexts.

    Key switching walks a fixed set of level/digit bases, so the number
    of distinct stacks is small: an ``n7_boot`` bootstrap touches 33, the
    N=2**12 depth-2 circuit 9.  The bound is twice the larger working
    set; an evicted engine only costs a vectorised table gather.
    """
    return BatchNTT(n, tuple(int(q) for q in moduli))
