"""ModRaise: re-embed an exhausted ciphertext in the full modulus chain.

A level-0 ciphertext's towers are residues modulo ``q_0`` alone.  Lifting
the centered representatives of ``(c0, c1)`` into the full chain basis
(:meth:`repro.rns.basis.RNSBasis.convert_centered`) produces a level-``L``
ciphertext that decrypts to

    ``m + e + q_0 * I(X)``

where the overflow polynomial ``I`` collects the ``mod q_0`` wraps of
``c0 + c1*s``; with a sparse ternary secret of Hamming weight ``h``,
``|I| <= (h + 1) / 2``.  Removing ``q_0 * I`` homomorphically is EvalMod's
job — ModRaise itself costs no key switch and no level.
"""

from __future__ import annotations

import numpy as np

from repro.ckks.context import CKKSContext
from repro.ckks.encrypt import Ciphertext
from repro.errors import ParameterError
from repro.rns.poly import Domain, RNSPoly


def mod_raise(context: CKKSContext, ct: Ciphertext) -> Ciphertext:
    """Lift a level-0 ciphertext to the top of the chain (scale preserved)."""
    if ct.level != 0:
        raise ParameterError(
            f"ModRaise expects a level-0 ciphertext, got level {ct.level} "
            "(mod-switch down first)"
        )
    target = context.q_basis

    def lift(poly: RNSPoly) -> RNSPoly:
        # convert_centered is exact and column-independent, so a
        # (B, L0, N) stack lifts as one wide (L0, B*N) matrix laid side
        # by side — same arithmetic per column as per member.
        coeff = poly.to_coeff().data
        wide = np.moveaxis(coeff, -2, 0).reshape(coeff.shape[-2], -1)
        raised = poly.basis.convert_centered(wide, target)
        stacked = np.moveaxis(
            raised.reshape((len(target),) + poly.data.shape[:-2] + (poly.n,)),
            0, -2,
        )
        return RNSPoly(
            target, np.ascontiguousarray(stacked), Domain.COEFF
        ).to_eval()

    return Ciphertext(
        lift(ct.c0), lift(ct.c1), context.params.max_level, ct.scale
    )


def overflow_bound(context: CKKSContext) -> float:
    """Worst-case ``|I|`` after ModRaise: ``(h + 1) / 2`` for weight-``h``
    secrets (``h = N`` for dense ternary — why bootstrapping wants sparse).
    """
    weight = context.params.hamming_weight
    if weight is None:
        weight = context.params.n
    return (weight + 1) / 2.0
