"""Negacyclic Number Theoretic Transform over ``Z_q[X]/(X^N + 1)``.

The forward transform is a Cooley-Tukey decimation-in-time network with the
``psi`` (2N-th root of unity) powers merged into the twiddles, following
Longa-Naehrig; the inverse is the matching Gentleman-Sande network.  The
forward output is in bit-reversed order and the inverse consumes that order,
so the pair composes to the identity and point-wise operations in the
evaluation domain are order-agnostic — exactly how HE libraries use it.

Every stage is a single vectorized numpy expression, so a transform of an
``(L, N)`` tower matrix costs ``log2(N)`` numpy passes per tower (see
:mod:`repro.ntt.batch` for the engine that computes the same transform
of a whole stack as two matrix products per tower; this network is the
oracle it is tested against).  Twiddle tables persist across processes
through :mod:`repro.cache`, so only the first interpreter to see an
``(N, q)`` pair ever builds them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro import cache
from repro.errors import ParameterError
from repro.ntt.modmath import check_modulus, inv_mod, mul_mod, pow_mod
from repro.ntt.primes import root_of_unity

_INT64 = np.int64

#: Process-wide count of twiddle-table builds (cache misses).  Tests use it
#: to prove that a warm ``REPRO_CACHE_DIR`` start regenerates nothing.
POWER_TABLE_BUILDS = 0


def is_power_of_two(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def bit_reverse_indices(n: int) -> np.ndarray:
    """Permutation array mapping index ``i`` to its bit-reversal over log2(n) bits."""
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


class NTTContext:
    """Precomputed twiddle tables for one (N, q) pair.

    Parameters
    ----------
    n:
        Power-of-two ring degree.
    q:
        Prime modulus with ``q = 1 (mod 2n)``.
    """

    def __init__(self, n: int, q: int):
        if not is_power_of_two(n):
            raise ParameterError(f"ring degree must be a power of two, got {n}")
        check_modulus(q)
        if (q - 1) % (2 * n) != 0:
            raise ParameterError(f"q={q} is not NTT-friendly for N={n}")
        self.n = n
        self.q = q
        cached = cache.load("ntt", f"n{n}-q{q}")
        if cached is not None and {"psi_rev", "psi_inv_rev"} <= set(cached):
            self._psi_rev = cached["psi_rev"].astype(_INT64, copy=False)
            self._psi_inv_rev = cached["psi_inv_rev"].astype(_INT64, copy=False)
        else:
            psi = root_of_unity(2 * n, q)
            psi_inv = inv_mod(psi, q)
            rev = bit_reverse_indices(n)
            powers = self._power_table(psi)
            powers_inv = self._power_table(psi_inv)
            #: psi^bitrev(i): per-stage twiddles for the forward CT network.
            self._psi_rev = powers[rev]
            #: psi^-bitrev(i): per-stage twiddles for the inverse GS network.
            self._psi_inv_rev = powers_inv[rev]
            cache.store(
                "ntt",
                f"n{n}-q{q}",
                {"psi_rev": self._psi_rev, "psi_inv_rev": self._psi_inv_rev},
            )
        self._n_inv = inv_mod(n, q)
        self._scratch: dict = {}

    def _power_table(self, base: int) -> np.ndarray:
        """``[base^0, ..., base^(n-1)] mod q`` by vectorized log-doubling.

        Each pass appends ``table * base^len(table)`` to the table, so the
        whole thing is ``log2(n)`` numpy multiplies instead of an
        ``n``-iteration python loop.
        """
        global POWER_TABLE_BUILDS
        POWER_TABLE_BUILDS += 1
        q = self.q
        table = np.array([1], dtype=_INT64)
        while table.size < self.n:
            stride = pow_mod(base, table.size, q)
            table = np.concatenate([table, table * stride % q])
        return table[: self.n]

    # -- public API ---------------------------------------------------------

    def forward(self, coeffs: np.ndarray, assume_canonical: bool = False) -> np.ndarray:
        """Coefficient domain -> evaluation domain (bit-reversed order).

        Accepts a 1-D ``(N,)`` array or a 2-D ``(rows, N)`` stack and
        transforms along the last axis, returning a new array.  Pass
        ``assume_canonical=True`` to skip the ``% q`` canonicalization of
        the input copy when residues are already in ``[0, q)``.
        """
        a = self._validated_copy(coeffs, assume_canonical)
        self._ct_network(a)
        return a.reshape(coeffs.shape)

    def inverse(self, evals: np.ndarray, assume_canonical: bool = False) -> np.ndarray:
        """Evaluation domain (bit-reversed order) -> coefficient domain."""
        a = self._validated_copy(evals, assume_canonical)
        q = self.q
        t, m = 1, self.n
        while m > 1:
            h = m // 2
            block = a.reshape(-1, h, 2 * t)
            twiddle = self._psi_inv_rev[h : 2 * h].reshape(1, h, 1)
            upper = block[:, :, :t].copy()
            lower = block[:, :, t:]
            block[:, :, :t] = (upper + lower) % q
            block[:, :, t:] = mul_mod((upper - lower) % q, twiddle, q)
            t *= 2
            m = h
        a = mul_mod(a, self._n_inv, q)
        return a.reshape(evals.shape)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Polynomial product in ``Z_q[X]/(X^N+1)`` via NTT round trip.

        The two forward transforms run in preallocated per-context scratch
        buffers (keyed by operand shape) so repeated products at the same
        shape allocate nothing on the hot path.
        """
        fa = self._forward_into(a, slot=0)
        fb = self._forward_into(b, slot=1)
        np.multiply(fa, fb, out=fa)
        fa %= self.q
        return self.inverse(fa, assume_canonical=True)

    # -- helpers ------------------------------------------------------------

    def _ct_network(self, a: np.ndarray) -> None:
        """Run the forward CT butterfly stages in place on ``a``.

        Shared by :meth:`forward` (fresh copy) and :meth:`_forward_into`
        (reused scratch buffer) so the network exists exactly once.
        """
        q = self.q
        m, t = 1, self.n
        while m < self.n:
            t //= 2
            block = a.reshape(-1, m, 2 * t)
            twiddle = self._psi_rev[m : 2 * m].reshape(1, m, 1)
            upper = block[:, :, :t].copy()
            lower = mul_mod(block[:, :, t:], twiddle, q)
            block[:, :, :t] = (upper + lower) % q
            block[:, :, t:] = (upper - lower) % q
            m *= 2

    def _forward_into(self, arr: np.ndarray, slot: int) -> np.ndarray:
        """Forward transform through a reused top-level buffer (contents
        are overwritten by the next call with the same shape and slot)."""
        arr = np.asarray(arr)
        if arr.shape[-1] != self.n:
            raise ParameterError(
                f"last axis must have length N={self.n}, got shape {arr.shape}"
            )
        key = (slot, arr.shape)
        buf = self._scratch.get(key)
        if buf is None:
            buf = self._scratch[key] = np.empty(arr.shape, dtype=_INT64)
        np.copyto(buf, arr, casting="unsafe")
        buf %= self.q
        self._ct_network(buf)
        return buf

    def _validated_copy(self, arr: np.ndarray, assume_canonical: bool = False) -> np.ndarray:
        a = np.array(arr, dtype=_INT64, copy=True)
        if a.shape[-1] != self.n:
            raise ParameterError(
                f"last axis must have length N={self.n}, got shape {a.shape}"
            )
        if assume_canonical:
            return a
        return a % self.q

    def __repr__(self) -> str:
        return f"NTTContext(n={self.n}, q={self.q})"


@lru_cache(maxsize=None)
def galois_eval_permutation(n: int, galois_element: int) -> np.ndarray:
    """Evaluation-domain gather realizing the automorphism ``X -> X^g``.

    The CT forward network emits evaluations in bit-reversed order:
    output slot ``i`` holds ``p(psi**(2*brv(i)+1))``.  Applying
    ``X -> X^g`` in the coefficient domain re-evaluates ``p`` at the
    ``g``-th powers of the same points — still odd exponents of ``psi``,
    so in EVAL domain the automorphism is the pure permutation
    ``out[..., i] = in[..., perm[i]]``: no transforms, no negations, and
    bit-identical to the INTT -> permute -> NTT round trip.  The slot
    ordering never depends on the modulus (only on the bit-reversal
    layout), so one table serves every tower of a stack.
    """
    if galois_element % 2 == 0:
        raise ParameterError(
            f"Galois element must be odd, got {galois_element}"
        )
    rev = bit_reverse_indices(n)
    exponents = 2 * rev + 1
    perm = rev[((exponents * galois_element) % (2 * n) - 1) // 2]
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=None)
def get_ntt_context(n: int, q: int) -> NTTContext:
    """Shared per-(N, q) twiddle tables; building them is the expensive part.

    Within a process this is an ``lru_cache``; across processes the tables
    themselves come back from :mod:`repro.cache`, so only the very first
    interpreter ever runs :meth:`NTTContext._power_table`.
    """
    return NTTContext(n, q)
