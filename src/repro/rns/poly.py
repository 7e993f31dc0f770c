"""RNS polynomials: ``N x L`` tower matrices with domain tracking.

An :class:`RNSPoly` is the object the paper draws in Figure 1 — a matrix
with one row ("tower") per RNS modulus, each row holding the residues of a
degree-``N`` negacyclic polynomial.  Rows live either in the coefficient
domain or the (bit-reversed) evaluation domain; the per-tower NTTs that move
between the two are exactly the P1/P3 stages of HKS.

The residue array is ``(L, N)`` for one polynomial or ``(B, L, N)`` for a
stack of ``B`` same-basis polynomials (the cross-ciphertext batch axis).
Rank is the only difference between the two: towers are always axis −2,
every operation is one whole-array numpy pass against the basis'
``(L, 1)`` modulus column (which broadcasts over the batch axis, so no
per-``B`` table exists), and a stacked result is bit-identical to
stacking the per-member results.  The per-tower oracles the whole-array
kernels are property-tested against are :class:`NTTContext` and
:mod:`repro.ntt.modmath`.
"""

from __future__ import annotations

import enum
from typing import Iterable, List, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.ntt.batch import get_batch_ntt
from repro.ntt.transform import galois_eval_permutation, get_ntt_context
from repro.rns.basis import RNSBasis

_INT64 = np.int64

__all__ = [
    "Domain",
    "RNSPoly",
    "automorphism_stacked",
    "get_ntt_context",
]


class Domain(enum.Enum):
    """Representation domain of every tower of a polynomial."""

    COEFF = "coeff"
    EVAL = "eval"


class RNSPoly:
    """A polynomial in ``prod_i Z_{q_i}[X]/(X^N+1)``, or a stack of them.

    Attributes
    ----------
    basis:
        The :class:`RNSBasis` listing the tower moduli, in row order.
    data:
        ``(len(basis), N)`` int64 matrix of canonical residues, or a
        ``(B, len(basis), N)`` stack of ``B`` such matrices.
    domain:
        Whether rows are coefficients or NTT evaluations.
    """

    __slots__ = ("basis", "data", "domain")

    def __init__(self, basis: RNSBasis, data: np.ndarray, domain: Domain):
        data = np.asarray(data, dtype=_INT64)
        if data.ndim not in (2, 3) or data.shape[-2] != len(basis):
            raise ParameterError(
                f"data shape {data.shape} does not match ({len(basis)}, N) or "
                f"(B, {len(basis)}, N) for a basis of {len(basis)} moduli"
            )
        self.basis = basis
        self.data = data
        self.domain = domain

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, basis: RNSBasis, n: int, domain: Domain = Domain.EVAL) -> "RNSPoly":
        return cls(basis, np.zeros((len(basis), n), dtype=_INT64), domain)

    @classmethod
    def from_integers(
        cls, basis: RNSBasis, coeffs: Sequence[int], domain: Domain = Domain.COEFF
    ) -> "RNSPoly":
        """Build from exact integer coefficients (reduced into every tower)."""
        poly = cls(basis, basis.decompose(coeffs), Domain.COEFF)
        return poly.to_domain(domain)

    @classmethod
    def random_uniform(
        cls, basis: RNSBasis, n: int, rng: np.random.Generator,
        domain: Domain = Domain.EVAL,
    ) -> "RNSPoly":
        """Uniform polynomial: independent uniform residues per tower.

        Sampling each tower independently is the standard RNS shortcut for a
        uniform element of ``R_Q`` (CRT is a bijection).
        """
        rows = [rng.integers(0, q, n, dtype=_INT64) for q in basis.moduli]
        return cls(basis, np.stack(rows), domain)

    @classmethod
    def stack(cls, polys: Sequence["RNSPoly"]) -> "RNSPoly":
        """Stack same-basis/domain/degree polynomials into one ``(B, L, N)``.

        Mismatches are rejected with the index of the offending member —
        the located-diagnostic style of :mod:`repro.analysis`.
        """
        polys = list(polys)
        if not polys:
            raise ParameterError("RNSPoly.stack needs at least one polynomial")
        head = polys[0]
        for i, p in enumerate(polys):
            if p.data.ndim != 2:
                raise ParameterError(
                    f"batch[{i}]: already a stack of {p.batch_size} — "
                    f"members of a batch are single (L, N) polynomials"
                )
            if p.basis != head.basis:
                raise ParameterError(
                    f"batch[{i}]: basis has {p.num_towers} towers "
                    f"(~2^{p.basis.product.bit_length()}), batch[0] has "
                    f"{head.num_towers} — members of a batch must share a level"
                )
            if p.domain is not head.domain:
                raise ParameterError(
                    f"batch[{i}]: domain {p.domain.value} != batch[0] "
                    f"domain {head.domain.value}"
                )
            if p.n != head.n:
                raise ParameterError(
                    f"batch[{i}]: ring degree {p.n} != batch[0] degree {head.n}"
                )
        return cls(head.basis, np.stack([p.data for p in polys]), head.domain)

    def member(self, b: int) -> "RNSPoly":
        """Member ``b`` as an independent ``(L, N)`` copy (a single
        polynomial is its own member 0)."""
        stacked = self.data.reshape(-1, self.num_towers, self.n)
        return RNSPoly(self.basis, stacked[b].copy(), self.domain)

    def unstack(self) -> List["RNSPoly"]:
        """The member polynomials, as independent copies."""
        return [self.member(b) for b in range(self.batch_size)]

    # -- basic properties ----------------------------------------------------

    @property
    def n(self) -> int:
        return int(self.data.shape[-1])

    @property
    def num_towers(self) -> int:
        return int(self.data.shape[-2])

    @property
    def batch_size(self) -> int:
        """Members in the stack; 1 for a single ``(L, N)`` polynomial."""
        return int(self.data.shape[0]) if self.data.ndim == 3 else 1

    def copy(self) -> "RNSPoly":
        return RNSPoly(self.basis, self.data.copy(), self.domain)

    def __repr__(self) -> str:
        batch = f"batch={self.batch_size}, " if self.data.ndim == 3 else ""
        return (
            f"RNSPoly({batch}towers={self.num_towers}, n={self.n}, "
            f"domain={self.domain.value})"
        )

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "RNSPoly") -> None:
        """A single polynomial (e.g. a shared plaintext) broadcasts across
        a stack; two stacks must agree on ``B``."""
        if self.basis != other.basis:
            raise ParameterError("operands have different RNS bases")
        if self.domain is not other.domain:
            raise ParameterError(
                f"operands in different domains: {self.domain} vs {other.domain}"
            )
        if self.n != other.n:
            raise ParameterError("operands have different ring degrees")
        if (self.data.ndim == other.data.ndim == 3
                and self.batch_size != other.batch_size):
            raise ParameterError(
                f"operand batch sizes differ: {self.batch_size} vs "
                f"{other.batch_size}"
            )

    def __add__(self, other: "RNSPoly") -> "RNSPoly":
        self._check_compatible(other)
        s = self.data + other.data
        # Conditional correction via a bool-scaled subtract: measurably
        # cheaper than np.where (one temp, no select pass).
        s -= self.basis.q_column * (s >= self.basis.q_column)
        return RNSPoly(self.basis, s, self.domain)

    def __sub__(self, other: "RNSPoly") -> "RNSPoly":
        self._check_compatible(other)
        d = self.data - other.data
        d += self.basis.q_column * (d < 0)
        return RNSPoly(self.basis, d, self.domain)

    def __neg__(self) -> "RNSPoly":
        out = np.where(self.data == 0, self.data, self.basis.q_column - self.data)
        return RNSPoly(self.basis, out, self.domain)

    def __mul__(self, other: "RNSPoly") -> "RNSPoly":
        """Point-wise product; both operands must be in the EVAL domain."""
        self._check_compatible(other)
        if self.domain is not Domain.EVAL:
            raise ParameterError("polynomial product requires EVAL domain")
        out = self.data * other.data % self.basis.q_column
        return RNSPoly(self.basis, out, self.domain)

    def scale_by(self, scalars: Sequence[int]) -> "RNSPoly":
        """Multiply tower ``i`` by scalar ``scalars[i] mod q_i`` (any domain)."""
        if len(scalars) != self.num_towers:
            raise ParameterError("need one scalar per tower")
        col = np.array(
            [int(s) % q for s, q in zip(scalars, self.basis.moduli)],
            dtype=_INT64,
        )[:, None]
        out = self.data * col % self.basis.q_column
        return RNSPoly(self.basis, out, self.domain)

    # -- domain changes (HKS P1/P3) -------------------------------------------

    def to_eval(self) -> "RNSPoly":
        if self.domain is Domain.EVAL:
            return self.copy()
        out = get_batch_ntt(self.n, self.basis.moduli).forward(self.data)
        return RNSPoly(self.basis, out, Domain.EVAL)

    def to_coeff(self) -> "RNSPoly":
        if self.domain is Domain.COEFF:
            return self.copy()
        out = get_batch_ntt(self.n, self.basis.moduli).inverse(self.data)
        return RNSPoly(self.basis, out, Domain.COEFF)

    def to_domain(self, domain: Domain) -> "RNSPoly":
        return self.to_eval() if domain is Domain.EVAL else self.to_coeff()

    # -- tower structure (digit decomposition) ---------------------------------

    def select_towers(self, indices: Sequence[int]) -> "RNSPoly":
        """Sub-polynomial restricted to the given tower rows."""
        indices = list(indices)
        return RNSPoly(
            self.basis.subbasis(indices), self.data[..., indices, :], self.domain
        )

    def drop_last_tower(self) -> "RNSPoly":
        """Remove the highest tower (used by rescale)."""
        if self.num_towers < 2:
            raise ParameterError("cannot drop the only tower")
        return RNSPoly(
            self.basis.prefix(self.num_towers - 1),
            self.data[..., :-1, :].copy(),
            self.domain,
        )

    @staticmethod
    def concat(parts: Iterable["RNSPoly"]) -> "RNSPoly":
        """Stack tower groups into one polynomial over the union basis."""
        parts = list(parts)
        if not parts:
            raise ParameterError("concat needs at least one part")
        domain = parts[0].domain
        basis = parts[0].basis
        for p in parts[1:]:
            if p.domain is not domain:
                raise ParameterError("concat parts must share a domain")
            basis = basis.concat(p.basis)
        data = np.concatenate([p.data for p in parts], axis=-2)
        return RNSPoly(basis, data, domain)

    # -- Galois automorphism ----------------------------------------------------

    def automorphism(self, galois_element: int) -> "RNSPoly":
        """Apply ``X -> X^g`` for odd ``g``, staying in the current domain."""
        return automorphism_stacked([self], galois_element)[0]


def automorphism_stacked(
    polys: Sequence[RNSPoly], galois_element: int
) -> List[RNSPoly]:
    """Apply one Galois map to several polynomials in a single pass.

    The polynomials may sit over different bases (e.g. a ciphertext half
    plus the ModUp digit extensions during hoisting) but must share ring
    degree, domain and batch shape.

    In the evaluation domain the automorphism only re-labels the
    evaluation points, so each array moves in one gather with no
    transforms at all (see :func:`galois_eval_permutation`).  In the
    coefficient domain ``a_j`` moves to exponent ``j*g mod 2N``, and
    exponents that land in ``[N, 2N)`` wrap with a sign flip because
    ``X^N = -1``; the permutation and sign mask depend only on ``(N, g)``,
    so the arrays are concatenated along the tower axis and moved in one
    fancy-indexed assignment — ``dest`` is a permutation of ``0..N-1``, so
    every output slot is written and no zero-fill pass is needed.
    """
    polys = list(polys)
    if not polys:
        return []
    g = int(galois_element)
    if g % 2 == 0:
        raise ParameterError(f"Galois element must be odd, got {g}")
    head = polys[0]
    n, domain, lead = head.n, head.domain, head.data.shape[:-2]
    for p in polys[1:]:
        if p.n != n or p.domain is not domain or p.data.shape[:-2] != lead:
            raise ParameterError(
                "stacked automorphism needs a shared n, domain and batch size"
            )
    if domain is Domain.EVAL:
        perm = galois_eval_permutation(n, g)
        return [RNSPoly(p.basis, p.data[..., perm], domain) for p in polys]
    moduli = tuple(m for p in polys for m in p.basis.moduli)
    q_col = np.array(moduli, dtype=_INT64)[:, None]
    coeff = np.concatenate([p.data for p in polys], axis=-2)
    j = np.arange(n, dtype=np.int64)
    e = (j * g) % (2 * n)
    dest = np.where(e < n, e, e - n)
    flip = e >= n
    vals = np.where(flip, np.where(coeff == 0, coeff, q_col - coeff), coeff)
    out = np.empty_like(coeff)
    out[..., dest] = vals
    results: List[RNSPoly] = []
    row = 0
    for p in polys:
        block = out[..., row : row + p.num_towers, :]
        row += p.num_towers
        results.append(RNSPoly(p.basis, block.copy(), domain))
    return results
