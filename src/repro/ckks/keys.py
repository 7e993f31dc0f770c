"""Key material: secret/public keys and hybrid key-switching keys.

A :class:`KeySwitchKey` holds ``dnum`` pairs over the extended basis
``Q ++ P`` — the ``evk`` of the paper, whose size
``dnum x 2 x N x (l+K)`` words drives the entire CiFlow analysis.  The
hidden plaintext of digit ``d`` is ``P * T_d * s_from`` with the gadget
factor ``T_d`` from :meth:`CKKSContext.digit_gadget_scalars`, so that

    sum_d ModUp(c_d) . evk_d  =  P * c * s_from  + noise   (mod PQ)

which ModDown divides back by ``P``.  ModUp's centred BConv lift leaves
each digit ``c_d + u * Q_d`` with ``|u| <= (alpha + 1) // 2`` and ``u``
symmetric around 0, so neither the slack nor ModDown's rounding gives
the noise a constant mean per coefficient (see :mod:`repro.rns.bconv`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.ckks.context import CKKSContext
from repro.errors import KeySwitchError
from repro.rns.basis import RNSBasis
from repro.rns.poly import Domain, RNSPoly


def sample_ternary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform ternary coefficients in {-1, 0, 1}."""
    return rng.integers(-1, 2, n, dtype=np.int64)


def sample_sparse_ternary(n: int, weight: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Ternary coefficients with exactly ``weight`` non-zeros (signs uniform).

    Sparse secrets bound the ModRaise overflow polynomial: after lifting a
    level-0 ciphertext to the full chain, ``c0 + c1*s = m + e + q_0*I``
    with ``|I| <= (weight + 1) / 2`` — the interval EvalMod's sine
    approximation must cover during bootstrapping.
    """
    coeffs = np.zeros(n, dtype=np.int64)
    support = rng.choice(n, size=weight, replace=False)
    coeffs[support] = rng.choice(np.array([-1, 1], dtype=np.int64), size=weight)
    return coeffs


def sample_error(n: int, std: float, rng: np.random.Generator) -> np.ndarray:
    """Rounded Gaussian error coefficients."""
    return np.round(rng.normal(0.0, std, n)).astype(np.int64)


@dataclass
class SecretKey:
    """Ternary secret ``s`` stored both as raw coefficients and per-basis polys."""

    coeffs: np.ndarray
    context: CKKSContext

    def poly(self, basis: RNSBasis) -> RNSPoly:
        """The secret embedded in ``basis`` (EVAL domain)."""
        return RNSPoly.from_integers(basis, list(self.coeffs), domain=Domain.EVAL)


@dataclass
class PublicKey:
    """Encryption key ``(b, a) = (-a*s + e, a)`` over the chain basis."""

    b: RNSPoly
    a: RNSPoly


@dataclass
class KeySwitchKey:
    """Hybrid evk: per-digit pairs ``(b_d, a_d)`` over the full basis ``Q ++ P``."""

    digit_pairs: List[Tuple[RNSPoly, RNSPoly]]

    @property
    def dnum(self) -> int:
        return len(self.digit_pairs)

    def restricted(self, context: CKKSContext, level: int) -> List[Tuple[RNSPoly, RNSPoly]]:
        """Digit pairs restricted to the active towers at ``level``.

        Selects rows ``q_0..q_level`` plus all ``p`` rows from each pair and
        drops digits that have no active tower at this level.
        """
        num_q = context.params.num_levels
        rows = list(range(level + 1)) + [num_q + j for j in range(len(context.p_basis))]
        active_digits = context.num_digits(level)
        if active_digits > self.dnum:
            raise KeySwitchError("key has fewer digits than the level requires")
        return [
            (b.select_towers(rows), a.select_towers(rows))
            for b, a in self.digit_pairs[:active_digits]
        ]


class KeyGenerator:
    """Samples all key material for one context."""

    def __init__(self, context: CKKSContext, seed: int | None = None):
        self.context = context
        self.rng = np.random.default_rng(seed)
        n = context.params.n
        weight = context.params.hamming_weight
        coeffs = (
            sample_ternary(n, self.rng) if weight is None
            else sample_sparse_ternary(n, weight, self.rng)
        )
        self.secret_key = SecretKey(coeffs, context)

    # -- encryption keys ---------------------------------------------------------

    def public_key(self) -> PublicKey:
        ctx = self.context
        basis = ctx.q_basis
        n = ctx.params.n
        a = RNSPoly.random_uniform(basis, n, self.rng, domain=Domain.EVAL)
        e = RNSPoly.from_integers(
            basis,
            list(sample_error(n, ctx.params.error_std, self.rng)),
            domain=Domain.EVAL,
        )
        s = self.secret_key.poly(basis)
        return PublicKey(b=(-(a * s)) + e, a=a)

    # -- switching keys -----------------------------------------------------------

    def switch_key(self, s_from_coeffs: np.ndarray) -> KeySwitchKey:
        """Key converting ciphertext parts under ``s_from`` back to ``s``.

        ``s_from_coeffs`` are integer coefficients of the source secret
        (e.g. ``s^2`` for relinearisation, ``kappa_g(s)`` for rotation).
        """
        ctx = self.context
        basis = ctx.full_basis
        n = ctx.params.n
        s = self.secret_key.poly(basis)
        s_from = RNSPoly.from_integers(basis, list(s_from_coeffs), domain=Domain.EVAL)
        pairs: List[Tuple[RNSPoly, RNSPoly]] = []
        for digit in range(ctx.params.dnum):
            a_d = RNSPoly.random_uniform(basis, n, self.rng, domain=Domain.EVAL)
            e_d = RNSPoly.from_integers(
                basis,
                list(sample_error(n, ctx.params.error_std, self.rng)),
                domain=Domain.EVAL,
            )
            gadget = ctx.digit_gadget_scalars(digit)
            b_d = (-(a_d * s)) + e_d + s_from.scale_by(gadget)
            pairs.append((b_d, a_d))
        return KeySwitchKey(pairs)

    def relinearization_key(self) -> KeySwitchKey:
        """evk for ``s^2 -> s`` (used after ciphertext-ciphertext multiply)."""
        s = self.secret_key.poly(self.context.q_basis)
        s_sq = s * s
        coeffs = s_sq.basis.compose(s_sq.to_coeff().data, centered=True)
        return self.switch_key(np.array([int(c) for c in coeffs], dtype=object))

    def galois_key(self, galois_element: int) -> KeySwitchKey:
        """evk for ``kappa_g(s) -> s`` (used after slot rotation by ``g``)."""
        s = RNSPoly.from_integers(
            self.context.q_basis, list(self.secret_key.coeffs), domain=Domain.COEFF
        )
        rotated = s.automorphism(galois_element)
        coeffs = rotated.basis.compose(rotated.data, centered=True)
        return self.switch_key(np.array([int(c) for c in coeffs], dtype=object))

    def rotation_key(self, steps: int) -> KeySwitchKey:
        """Galois key for a cyclic slot rotation by ``steps``."""
        return self.galois_key(rotation_galois_element(steps, self.context.params.n))

    def conjugation_key(self) -> KeySwitchKey:
        """Galois key for complex conjugation (``g = 2N - 1``)."""
        return self.galois_key(2 * self.context.params.n - 1)


def rotation_galois_element(steps: int, n: int) -> int:
    """Galois element ``5^steps mod 2N`` implementing a rotation by ``steps``."""
    return pow(5, steps % (n // 2), 2 * n)
