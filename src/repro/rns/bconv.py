"""Fast (approximate) RNS basis conversion — the HKS ``BConv`` kernel.

Given residues of ``x`` in a source basis ``B = {q_i}`` with product ``Q_B``,
the conversion computes, for each target modulus ``t``:

    conv(x) = sum_i ( [x_i * (Q_B/q_i)^-1]_{q_i} ) * (Q_B/q_i)   mod t

This equals ``x + u * Q_B (mod t)`` for some integer ``0 <= u < |B|`` — the
well-known *approximate* lift of Bajard/Halevi-Polyakov-Shoup used by
full-RNS CKKS.  Hybrid key switching tolerates the ``u * Q_B`` slack because
the subsequent evk multiplication scales genuine data by ``P`` while the
slack stays ``P``-free (ModUp) or is divided away (ModDown).

Cost: ``N * |B| * |T|`` modular multiply-accumulates, exactly the count the
paper charges for ModUp/ModDown P2 (Section III-B).  The default kernel
performs them as a blocked integer matmul — ``|B| / chunk`` tensordot
passes with one reduction per chunk, where the chunk size is chosen so the
unreduced partial sums provably fit in int64; the original
``|B| x |T|`` accumulate-and-reduce loop is retained as the reference
path and proven bit-identical by ``tests/test_kernel_equivalence.py``
(modular reduction is associative, so reducing once per chunk instead of
once per term cannot change the result).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro import cache
from repro.errors import ParameterError
from repro.ntt.modmath import MAX_MODULUS_BITS
from repro.rns.basis import RNSBasis

_INT64 = np.int64

#: Process-wide count of hat-table builds (disk-cache misses), mirroring
#: ``repro.ntt.transform.POWER_TABLE_BUILDS``.
HAT_TABLE_BUILDS = 0


class BasisConverter:
    """Precomputed approximate conversion from ``source`` to ``target``.

    The two bases must be disjoint (no shared modulus), as in HKS where a
    digit is extended to the *complement* basis.
    """

    def __init__(self, source: RNSBasis, target: RNSBasis):
        global HAT_TABLE_BUILDS
        shared = set(source.moduli) & set(target.moduli)
        if shared:
            raise ParameterError(f"source and target bases share moduli: {shared}")
        self.source = source
        self.target = target
        key = cache.fingerprint(("bconv", source.moduli, target.moduli))
        cached = cache.load("bconv", key)
        if cached is not None and "hat_mod" in cached:
            # hat_mod[i, j] = (Q_B / q_i) mod t_j
            self._hat_mod = cached["hat_mod"].astype(_INT64, copy=False)
        else:
            HAT_TABLE_BUILDS += 1
            self._hat_mod = np.array(
                [[hat % t for t in target.moduli] for hat in source.hats],
                dtype=_INT64,
            )
            cache.store("bconv", key, {"hat_mod": self._hat_mod})
        self._hat_invs = np.array(source.hat_invs, dtype=_INT64)
        # Each unreduced term is below (max_q - 1) * (max_t - 1) < 2**60;
        # chunk so ``chunk * term_bound`` plus a reduced carry stays under
        # 2**63.  At the 30-bit modulus cap this is 8 source towers per
        # tensordot pass.
        term_bound = (max(source.moduli) - 1) * (max(target.moduli) - 1)
        self._chunk = max(1, ((1 << 63) - (1 << (MAX_MODULUS_BITS + 1))) // term_bound)

    def convert(self, residues: np.ndarray) -> np.ndarray:
        """Convert ``(|B|, N)`` residues to ``(|T|, N)`` residues.

        Runs as a blocked integer matmul: ``ceil(|B| / chunk)`` tensordot
        passes with a single ``% t`` per chunk — bit-identical to the
        per-tower running reduction of :meth:`convert_reference`.

        A stack of ``(..., |B|, N)`` residue matrices (the
        cross-ciphertext batch axis) converts in the same number of
        matmul passes — the hat table broadcasts over the leading axes,
        and the unreduced sum per element is the same as in the 2-D case,
        so the bound argument (and hence bit-identity with the
        per-ciphertext result) carries over unchanged.
        """
        y = self._scaled_sources(residues)
        t_col = self.target.q_column
        out = np.zeros(
            y.shape[:-2] + (len(self.target), y.shape[-1]), dtype=_INT64
        )
        for start in range(0, len(self.source), self._chunk):
            block = slice(start, start + self._chunk)
            out += self._hat_mod[block].T @ y[..., block, :]
            out %= t_col
        return out

    def convert_reference(self, residues: np.ndarray) -> np.ndarray:
        """Original ``|B| x |T|`` accumulate-and-reduce loop (reference)."""
        residues = np.asarray(residues, dtype=_INT64)
        if residues.shape[0] != len(self.source):
            raise ParameterError(
                f"expected {len(self.source)} source towers, got {residues.shape[0]}"
            )
        n = residues.shape[1]
        # y_i = [x_i * hat_inv_i]_{q_i}
        y = np.empty_like(residues)
        for i, q in enumerate(self.source.moduli):
            y[i] = residues[i] * self._hat_invs[i] % q
        out = np.zeros((len(self.target), n), dtype=_INT64)
        for j, t in enumerate(self.target.moduli):
            acc = np.zeros(n, dtype=_INT64)
            for i in range(len(self.source)):
                acc = (acc + y[i] * self._hat_mod[i, j]) % t
            out[j] = acc
        return out

    def _scaled_sources(self, residues: np.ndarray) -> np.ndarray:
        """``y_i = [x_i * hat_inv_i]_{q_i}`` for all towers in one pass."""
        residues = np.asarray(residues, dtype=_INT64)
        if residues.shape[-2] != len(self.source):
            raise ParameterError(
                f"expected {len(self.source)} source towers, "
                f"got {residues.shape[-2]}"
            )
        return residues * self._hat_invs[:, None] % self.source.q_column

    def exact_value_bound(self) -> int:
        """Upper bound on the lift slack multiplier ``u`` (exclusive)."""
        return len(self.source)

    def __repr__(self) -> str:
        return f"BasisConverter({len(self.source)} -> {len(self.target)} moduli)"


@lru_cache(maxsize=None)
def get_converter(source: RNSBasis, target: RNSBasis) -> BasisConverter:
    """Cached :class:`BasisConverter` per ``(source, target)`` basis pair.

    The same ``lru_cache`` pattern as the NTT twiddle tables
    (:func:`repro.ntt.transform.get_ntt_context`): :class:`RNSBasis` hashes
    by its moduli tuple, so every level/digit combination builds its hat
    tables exactly once per process no matter how many HKS calls a
    large-ring functional run performs — and, via :mod:`repro.cache`,
    at most once per machine.
    """
    return BasisConverter(source, target)
