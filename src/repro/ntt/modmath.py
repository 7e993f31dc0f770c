"""Vectorized modular arithmetic over word-sized primes.

All functions operate on ``numpy.int64`` arrays holding canonical residues
in ``[0, q)``.  The library restricts moduli to at most
:data:`MAX_MODULUS_BITS` bits so that the product of two residues fits in a
signed 64-bit integer (``2 * MAX_MODULUS_BITS <= 62``), which lets every
kernel stay in fast native numpy arithmetic with an explicit ``%`` reduction
instead of emulated 128-bit math.

The element-wise helpers at the top are the per-tower oracles.  The
whole-stack kernels (:mod:`repro.ntt.batch`, :func:`mul_sum_mod`) avoid
int64 ``%``, which numpy cannot vectorize: they reduce with
:func:`reduce_signed` in cache-sized chunks (:func:`stack_chunks`)
through one small per-thread scratch arena (:func:`scratch`).

The *performance* model elsewhere in the library always accounts for
8-byte machine words per coefficient (as the paper does); the narrower
functional moduli here only affect numerical tests, not size accounting.
"""

from __future__ import annotations

import threading
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError

#: Largest supported modulus width, in bits.  Chosen so that products of two
#: residues fit in int64 (30 + 30 < 63) with headroom for one addition.
MAX_MODULUS_BITS = 30

_INT64 = np.int64


def check_modulus(q: int) -> None:
    """Validate that ``q`` is usable as a functional RNS modulus.

    Raises :class:`ParameterError` if ``q`` is too small, too large or even.
    """
    if q < 3:
        raise ParameterError(f"modulus must be >= 3, got {q}")
    if q.bit_length() > MAX_MODULUS_BITS:
        raise ParameterError(
            f"modulus {q} has {q.bit_length()} bits; functional kernels "
            f"support at most {MAX_MODULUS_BITS}-bit moduli"
        )
    if q % 2 == 0:
        raise ParameterError(f"modulus must be odd, got {q}")


def to_residues(values, q: int) -> np.ndarray:
    """Reduce an integer array (any dtype / python ints) into ``[0, q)``."""
    arr = np.asarray(values)
    if arr.dtype == object:
        return np.array([int(v) % q for v in arr.ravel()], dtype=_INT64).reshape(arr.shape)
    return np.mod(arr.astype(_INT64, copy=False), q)


def add_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Element-wise ``(a + b) mod q`` without overflow for q < 2**30."""
    s = a + b
    return np.where(s >= q, s - q, s)


def sub_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Element-wise ``(a - b) mod q``."""
    d = a - b
    return np.where(d < 0, d + q, d)


def neg_mod(a: np.ndarray, q: int) -> np.ndarray:
    """Element-wise ``(-a) mod q``."""
    return np.where(a == 0, a, q - a)


def mul_mod(a: np.ndarray, b, q: int) -> np.ndarray:
    """Element-wise ``(a * b) mod q``; ``b`` may be a scalar or array."""
    return (a * b) % q


def reduce_signed(
    prod: np.ndarray,
    q: np.ndarray,
    q_inv: np.ndarray,
    quot_f: np.ndarray,
    quot_i: np.ndarray,
) -> None:
    """Reduce int64 ``prod`` in place to a signed remainder in ``(-q, q)``.

    int64 ``%`` never vectorizes; this is the float-Barrett replacement:
    ``rint(prod / q) * q`` is subtracted exactly in int64, with the
    quotient taken from a float64 multiply by ``q_inv = 1.0 / q``.  While
    ``|prod| / q < 2**48`` (any product of two residues, however lazily
    reduced, is far inside) the float quotient's error is far below 1/2,
    so it is off by at most one, and only next to a half-integer: the
    remainder stays within ``q/2`` plus a sliver — congruent to ``prod``
    and never reaching ``q`` in magnitude.  ``q`` (int64) and ``q_inv``
    (float64) broadcast against ``prod``; ``quot_f`` (float64) and
    ``quot_i`` (int64) are caller-provided scratch of ``prod``'s shape,
    overwritten.
    """
    np.copyto(quot_f, prod)
    np.multiply(quot_f, q_inv, out=quot_f)
    np.rint(quot_f, out=quot_f)
    np.copyto(quot_i, quot_f, casting="unsafe")
    np.multiply(quot_i, q, out=quot_i)
    np.subtract(prod, quot_i, out=prod)


#: Elements per chunk of a chunked whole-stack kernel.  The float
#: reduction is a handful of cheap passes, which only beats one int64
#: ``%`` pass while every pass hits cache: five scratch rows of this size
#: (1.25 MiB) plus one tower's constants stay L2-resident.  Measured on
#: the N=2**12 NTT: flat between 2**14 and 2**15, ~25 % slower at 2**16.
CHUNK_ELEMS = 1 << 15


class _Arena(threading.local):
    """Per-thread scratch shared by every chunked kernel: three float64
    and two int64 rows, grown to the largest chunk seen — never beyond
    ``max(CHUNK_ELEMS, N)`` elements per row."""

    def __init__(self) -> None:
        self.floats = np.empty((3, 0), dtype=np.float64)
        self.ints = np.empty((2, 0), dtype=_INT64)

    @property
    def nbytes(self) -> int:
        return int(self.floats.nbytes + self.ints.nbytes)


_ARENA = _Arena()


def scratch(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(3, size)`` float64 and ``(2, size)`` int64 scratch rows.

    Contents are garbage and the next call hands out the same memory, so
    a kernel takes its rows once per chunk and keeps nothing.
    """
    if _ARENA.floats.shape[1] < size:
        _ARENA.floats = np.empty((3, size), dtype=np.float64)
        _ARENA.ints = np.empty((2, size), dtype=_INT64)
    return _ARENA.floats[:, :size], _ARENA.ints[:, :size]


def stack_chunks(
    members: int, towers: int, n: int
) -> Iterator[Tuple[slice, slice]]:
    """``(member, tower)`` slices cutting a ``(members, towers, n)``
    stack into blocks of at most :data:`CHUNK_ELEMS` elements (one tower
    of one member when ``n`` alone exceeds that).

    Towers are outermost and a block takes as few of them as it can, so
    a tower's constants are read once and reused across every stack
    member before the next tower's are touched.
    """
    tower_step = max(1, min(towers, CHUNK_ELEMS // max(1, members * n)))
    member_step = max(1, CHUNK_ELEMS // (tower_step * n))
    for t0 in range(0, towers, tower_step):
        for m0 in range(0, members, member_step):
            yield slice(m0, m0 + member_step), slice(t0, t0 + tower_step)


def mul_sum_mod(
    xs: Sequence[np.ndarray], ys: Sequence[np.ndarray], q: np.ndarray
) -> np.ndarray:
    """Canonical ``sum_d xs[d] * ys[d] mod q`` over a tower stack.

    Every ``xs[d]`` is an ``(..., L, N)`` int64 array of one shape with
    entries of magnitude below ``q``; every ``ys[d]`` is a per-tower
    ``(L, 1)`` column or ``(L, N)`` table of residues; ``q`` is the
    ``(L, 1)`` modulus column.  Equal to reducing each product and the
    sum with ``%``, but chunked (see :func:`stack_chunks`) so that the
    float reductions of :func:`reduce_signed` run in cache.
    """
    shape = xs[0].shape
    towers, n = shape[-2:]
    out = np.empty(shape, dtype=_INT64)
    flat = [x.reshape(-1, towers, n) for x in xs]
    dst = out.reshape(flat[0].shape)
    q_inv = 1.0 / q
    for block in stack_chunks(dst.shape[0], towers, n):
        rows = block[1]
        q_rows, q_inv_rows = q[rows], q_inv[rows]
        acc = dst[block]
        floats, ints = scratch(acc.size)
        quot_f = floats[0].reshape(acc.shape)
        term, quot_i = (buf.reshape(acc.shape) for buf in ints)
        # The first product stays unreduced (< 2**60); each further one
        # is brought below q first, so the sum cannot overflow.
        np.multiply(flat[0][block], ys[0][rows], out=acc)
        for x, y in zip(flat[1:], ys[1:]):
            np.multiply(x[block], y[rows], out=term)
            reduce_signed(term, q_rows, q_inv_rows, quot_f, quot_i)
            acc += term
        reduce_signed(acc, q_rows, q_inv_rows, quot_f, quot_i)
        # (-q, q) -> [0, q): as unsigned, a negative value sits above
        # its ``+ q`` twin and a non-negative one below it.
        np.add(acc, q_rows, out=term)
        unsigned = acc.view(np.uint64)
        np.minimum(unsigned, term.view(np.uint64), out=unsigned)
    return out


def pow_mod(base: int, exp: int, q: int) -> int:
    """Scalar modular exponentiation (delegates to python's pow)."""
    return pow(int(base), int(exp), int(q))


def inv_mod(a: int, q: int) -> int:
    """Scalar modular inverse of ``a`` modulo ``q`` (``q`` need not be prime,
    e.g. digit products ``Q_d`` in the key-switching gadget)."""
    a = int(a) % int(q)
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse modulo {q}")
    return pow(a, -1, int(q))


def centered(a: np.ndarray, q: int) -> np.ndarray:
    """Map residues in ``[0, q)`` to the centered interval ``(-q/2, q/2]``."""
    half = q // 2
    return np.where(a > half, a - q, a)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit integers.

    Uses the well-known witness set that is exact for ``n < 3.3 * 10**24``.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
