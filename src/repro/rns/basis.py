"""Residue Number System bases and CRT composition/decomposition.

An :class:`RNSBasis` is an ordered tuple of pairwise-coprime moduli
``(q_0, ..., q_{L})``.  Big integers modulo ``Q = prod(q_i)`` are
represented as matrices of residues; this module provides the exact CRT
maps between the two representations plus the precomputed constants
(``Q_hat_i = Q / q_i`` and its inverse) that both CRT and the approximate
basis conversion of :mod:`repro.rns.bconv` rely on.

The CRT maps run on the vectorized limb engine of :mod:`repro.rns.crt`;
the original per-coefficient python-int implementations are retained as
``*_reference`` methods so equivalence is a testable property, not an
assumption.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.ntt.modmath import check_modulus, inv_mod

_INT64 = np.int64


@lru_cache(maxsize=None)
def get_basis(moduli: Tuple[int, ...]) -> "RNSBasis":
    """Process-wide :class:`RNSBasis` cache keyed by the moduli tuple.

    A basis is immutable after construction, but constructing one runs
    O(L^2) pairwise-coprimality checks plus a modular inverse per tower.
    Key switching derives a digit/complement basis per call, so the
    derivation helpers (``subbasis``/``prefix``/``concat``) all route
    through this cache — the same ``lru_cache`` pattern as the NTT
    twiddle tables in :mod:`repro.rns.poly`.
    """
    return RNSBasis(moduli)


class RNSBasis:
    """An ordered set of pairwise-coprime word-sized moduli."""

    def __init__(self, moduli: Iterable[int]):
        moduli = tuple(int(q) for q in moduli)
        if not moduli:
            raise ParameterError("an RNS basis needs at least one modulus")
        for q in moduli:
            check_modulus(q)
        if len(set(moduli)) != len(moduli):
            raise ParameterError(f"duplicate moduli in basis: {moduli}")
        for i, a in enumerate(moduli):
            for b in moduli[i + 1 :]:
                if math.gcd(a, b) != 1:
                    raise ParameterError(f"moduli {a} and {b} are not coprime")
        self.moduli: Tuple[int, ...] = moduli
        #: Full product Q as an exact python integer.
        self.product: int = math.prod(moduli)
        #: Q / q_i as exact python integers.
        self.hats: Tuple[int, ...] = tuple(self.product // q for q in moduli)
        #: (Q / q_i)^-1 mod q_i.
        self.hat_invs: Tuple[int, ...] = tuple(
            inv_mod(h, q) for h, q in zip(self.hats, moduli)
        )
        #: (L, 1) int64 column of the moduli — the broadcast shape every
        #: whole-matrix kernel reduces against.
        self.q_column: np.ndarray = np.array(moduli, dtype=_INT64)[:, None]

    def __len__(self) -> int:
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)

    def __eq__(self, other) -> bool:
        return isinstance(other, RNSBasis) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"RNSBasis({len(self.moduli)} moduli, ~2^{self.product.bit_length()})"

    # -- structure ----------------------------------------------------------

    def subbasis(self, indices: Sequence[int]) -> "RNSBasis":
        """Basis restricted to ``moduli[i] for i in indices`` (in order)."""
        return get_basis(tuple(self.moduli[i] for i in indices))

    def prefix(self, count: int) -> "RNSBasis":
        """Basis of the first ``count`` moduli."""
        if not 1 <= count <= len(self.moduli):
            raise ParameterError(f"prefix length {count} out of range")
        return get_basis(self.moduli[:count])

    def concat(self, other: "RNSBasis") -> "RNSBasis":
        """Union basis ``self ++ other`` (moduli must stay distinct)."""
        return get_basis(self.moduli + other.moduli)

    # -- CRT maps ------------------------------------------------------------

    def _crt_engine(self):
        from repro.rns.crt import get_engine

        return get_engine(self)

    def decompose(self, values) -> np.ndarray:
        """Exact integers (any magnitude, possibly negative) -> residue matrix.

        ``values`` is a length-``N`` sequence; the result has shape
        ``(len(basis), N)`` with canonical residues.  Integer-dtyped numpy
        input takes a single vectorized ``np.mod`` pass; python big
        integers go through the limb engine of :mod:`repro.rns.crt`.
        """
        arr = np.asarray(values)
        if arr.ndim > 1:
            arr = arr.ravel()
        if (
            arr.dtype != object
            and np.issubdtype(arr.dtype, np.integer)
            and not (arr.dtype.kind == "u" and arr.dtype.itemsize == 8)
        ):
            # int64-representable plaintexts: no object round-trip.
            # (uint64 is excluded: values >= 2**63 would wrap in the cast.)
            return np.mod(arr.astype(_INT64, copy=False)[None, :], self.q_column)
        return self._crt_engine().decompose_ints(arr)

    def decompose_reference(self, values) -> np.ndarray:
        """Per-coefficient python-int decomposition (scalar reference)."""
        vals = [int(v) for v in np.asarray(values, dtype=object).ravel()]
        out = np.empty((len(self.moduli), len(vals)), dtype=_INT64)
        for row, q in enumerate(self.moduli):
            out[row] = [v % q for v in vals]
        return out

    def convert_centered(self, residues: np.ndarray, target: "RNSBasis") -> np.ndarray:
        """Exact basis extension via the centered representative.

        Interprets ``residues`` (shape ``(len(self), N)``) as integers in
        ``(-Q/2, Q/2]`` and re-decomposes them into ``target``.  This is
        the ModRaise entry point of bootstrapping: a level-0 ciphertext's
        towers are lifted into the full chain, which changes its value by
        a multiple-of-``Q`` overflow polynomial that EvalMod later removes.
        Unlike :mod:`repro.rns.bconv` this conversion is exact, not
        approximate — but since PR 4 it is also fully vectorized (limb
        matrices end to end, no per-coefficient python ints).
        """
        residues = np.asarray(residues)
        if len(self.moduli) == 1:
            # Fast path for the common level-0 lift: no CRT needed.
            q = self.moduli[0]
            half = q // 2
            centered_row = np.where(residues[0] > half, residues[0] - q, residues[0])
            out = np.empty((len(target.moduli), residues.shape[1]), dtype=_INT64)
            for row, t in enumerate(target.moduli):
                out[row] = centered_row % t
            return out
        return self._crt_engine().convert_centered(residues, target)

    def compose(self, residues: np.ndarray, centered: bool = True) -> np.ndarray:
        """Residue matrix ``(len(basis), N)`` -> exact integers (object array).

        With ``centered=True`` the result lies in ``(-Q/2, Q/2]``, which is
        the representative CKKS decoding needs.
        """
        residues = np.asarray(residues)
        if residues.shape[0] != len(self.moduli):
            raise ParameterError(
                f"residue matrix has {residues.shape[0]} rows, "
                f"basis has {len(self.moduli)} moduli"
            )
        return self._crt_engine().compose_ints(residues, centered=centered)

    def compose_real(self, residues: np.ndarray) -> np.ndarray:
        """Centered composition straight to ``float64`` (CKKS decode path).

        Avoids materializing python big integers entirely; the centered
        magnitude is computed exactly in limb space before the single
        float conversion, so small decode outputs lose no precision.
        """
        residues = np.asarray(residues)
        if residues.shape[0] != len(self.moduli):
            raise ParameterError(
                f"residue matrix has {residues.shape[0]} rows, "
                f"basis has {len(self.moduli)} moduli"
            )
        return self._crt_engine().compose_float(residues)

    def compose_reference(self, residues: np.ndarray, centered: bool = True) -> np.ndarray:
        """Per-coefficient python-bigint CRT (scalar reference)."""
        residues = np.asarray(residues)
        if residues.shape[0] != len(self.moduli):
            raise ParameterError(
                f"residue matrix has {residues.shape[0]} rows, "
                f"basis has {len(self.moduli)} moduli"
            )
        q_total = self.product
        n = residues.shape[1]
        acc = [0] * n
        # CRT: x = sum_i [x_i * hat_inv_i]_{q_i} * hat_i  (mod Q)
        for row, (hat, hat_inv, q) in enumerate(
            zip(self.hats, self.hat_invs, self.moduli)
        ):
            scaled = (residues[row].astype(object) * hat_inv) % q
            # Exact bigint reference path (the fast path is the limb
            # engine in repro.rns.crt); arbitrary-precision sums cannot
            # vectorize.
            for j in range(n):  # lint: allow-coeff-loop
                acc[j] += int(scaled[j]) * hat
        out = np.empty(n, dtype=object)
        half = q_total // 2
        for j in range(n):  # lint: allow-coeff-loop
            v = acc[j] % q_total
            if centered and v > half:
                v -= q_total
            out[j] = v
        return out
