"""The bootstrap pipeline: ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff.

:class:`Bootstrapper` composes the library's existing building blocks —
BSGS linear transforms with hoisted rotations, conjugation, the Chebyshev
evaluator — into the full CKKS bootstrapping circuit:

1. **ModRaise** lifts the exhausted level-0 ciphertext into the whole
   chain; it now decrypts to ``m + q_0 * I`` for a small-integer overflow
   polynomial ``I``.
2. **CoeffToSlot** applies the factored inverse special-DFT so each slot
   holds a folded pair of *coefficients* ``(u_k - i*u_{k+N/2}) / 2``.
3. A conjugation splits real and imaginary parts, **EvalMod** removes
   ``q_0 * I`` from each via the Chebyshev sine approximation (the
   imaginary branch folds ``-i`` into its normalization constant and
   ``i`` into its combine coefficients, so recombining is a plain add).
4. **SlotToCoeff** applies the forward factors, turning the cleaned
   coefficients back into slot values: a fresh encryption of the original
   message with the level budget restored.

Everything routes through the :class:`~repro.ckks.evaluator.Evaluator`
passed per call, so instrumented evaluators observe the exact circuit,
and every rotation key is requested through :class:`BootstrapKeys` —
mirroring how the facade stages evks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.ckks.batch import (
    is_batched,
    stack_ciphertexts,
    unstack_ciphertexts,
)
from repro.ckks.bootstrap.dft import (
    coeff_to_slot_matrices,
    slot_to_coeff_matrices,
)
from repro.ckks.bootstrap.evalmod import (
    choose_sine_degree,
    sine_chebyshev_coeffs,
    sine_fit_error,
)
from repro.ckks.bootstrap.modraise import mod_raise, overflow_bound
from repro.ckks.bootstrap.plan import BootstrapPlan
from repro.ckks.context import CKKSContext
from repro.ckks.encoding import Encoder
from repro.ckks.encrypt import Ciphertext
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator, KeySwitchKey
from repro.ckks.linear import LinearTransform
from repro.ckks.polyeval import (
    _encode_constant,
    _stack_plaintexts,
    evaluate_chebyshev_rows,
)
from repro.errors import ParameterError


@dataclass(frozen=True)
class BootstrapConfig:
    """Tunable shape of the pipeline.

    ``cts_stages`` / ``stc_stages`` split the DFT into that many grouped
    factors: more stages means fewer rotations per factor but one level
    each.  ``sine_periods`` must cover the ModRaise overflow bound
    ``(h+1)/2`` (default: bound + 1); ``sine_degree`` defaults to the
    smallest fit under ``sine_tol``.
    """

    cts_stages: int = 1
    stc_stages: int = 1
    sine_periods: Optional[int] = None
    sine_degree: Optional[int] = None
    #: Max fit error of the sine series (in units of sin/2pi).  The slot
    #: error budget sees this scaled by q_0/Delta and amplified ~sqrt(slots)
    #: by SlotToCoeff, so it is kept well below the 1e-2 headline target.
    sine_tol: float = 1e-5


@dataclass
class BootstrapKeys:
    """Evaluation keys one bootstrap call consumes."""

    relin: KeySwitchKey
    conjugation: KeySwitchKey
    rotations: Dict[int, KeySwitchKey] = field(default_factory=dict)


class Bootstrapper:
    """A bootstrap circuit specialized to one context (reusable)."""

    def __init__(self, context: CKKSContext,
                 config: Optional[BootstrapConfig] = None):
        self.context = context
        self.config = config or BootstrapConfig()
        self.encoder = Encoder(context)
        params = context.params

        bound = overflow_bound(context)
        periods = self.config.sine_periods
        if periods is None:
            if params.hamming_weight is None:
                raise ParameterError(
                    "bootstrapping needs a sparse secret (set "
                    "CKKSParams.hamming_weight) or an explicit sine_periods"
                )
            periods = int(np.ceil(bound)) + 1
        if periods < bound:
            raise ParameterError(
                f"sine_periods={periods} does not cover the ModRaise "
                f"overflow bound {bound:g}"
            )
        self.sine_periods = periods
        degree = self.config.sine_degree
        if degree is None:
            degree = choose_sine_degree(periods, self.config.sine_tol)
        self.sine_degree = degree
        #: Chebyshev series of sin(2*pi*periods*x)/(2*pi); scaled by
        #: q_tilde per call (the input's scale fixes q_tilde).
        self.sine_coeffs = sine_chebyshev_coeffs(periods, degree)
        self.sine_error = sine_fit_error(periods, self.sine_coeffs)

        slots = params.n // 2
        self.cts_transforms = [
            LinearTransform(self.encoder, m)
            for m in coeff_to_slot_matrices(slots, self.config.cts_stages)
        ]
        self.stc_transforms = [
            LinearTransform(self.encoder, m)
            for m in slot_to_coeff_matrices(slots, self.config.stc_stages)
        ]
        self.plan = self._build_plan()
        needed = self.plan.levels_consumed()
        if params.max_level < needed + 1:
            raise ParameterError(
                f"bootstrapping needs {needed} levels plus headroom; "
                f"the chain has only {params.max_level} "
                "(increase num_levels)"
            )

    # -- structure -------------------------------------------------------------

    def _build_plan(self) -> BootstrapPlan:
        """Plan from the *materialized* transforms' non-zero diagonals."""
        from repro.ckks.polyeval import chebyshev_ladder_order

        def diag_set(transform: LinearTransform) -> frozenset:
            return frozenset(
                i * transform.baby + j
                for (i, j), diag in transform._diagonals.items()
                if diag is not None
            )

        return BootstrapPlan(
            num_slots=self.context.params.n // 2,
            cts_diagonals=tuple(diag_set(t) for t in self.cts_transforms),
            stc_diagonals=tuple(diag_set(t) for t in self.stc_transforms),
            sine_periods=self.sine_periods,
            sine_degree=self.sine_degree,
            ladder=tuple(chebyshev_ladder_order(self.sine_coeffs)),
        )

    def required_rotation_steps(self) -> List[int]:
        steps = set()
        for transform in self.cts_transforms + self.stc_transforms:
            needed = transform.required_rotations()
            steps.update(needed["baby"])
            steps.update(needed["giant"])
        return sorted(steps)

    def levels_consumed(self) -> int:
        return self.plan.levels_consumed()

    # -- execution --------------------------------------------------------------

    def bootstrap(self, evaluator: Evaluator, ct: Ciphertext,
                  keys: BootstrapKeys) -> Ciphertext:
        """Refresh ``ct``: same message, level budget restored.

        Accepts a ciphertext at any level (it is mod-switched to 0 first —
        bootstrapping is only worth its key switches when the budget is
        gone, and EvalMod's modulus is ``q_0``).
        """
        if evaluator.context is not self.context:
            raise ParameterError("evaluator belongs to a different context")
        missing = [s for s in self.required_rotation_steps()
                   if s not in keys.rotations]
        if missing:
            raise ParameterError(f"missing bootstrap rotation keys: {missing}")

        if ct.level != 0:
            ct = evaluator.mod_switch_to_level(ct, 0)
        q_tilde = self.context.q_basis.moduli[0] / ct.scale
        if q_tilde < 2.0:
            raise ParameterError(
                f"q_0/scale = {q_tilde:.2f} leaves EvalMod no headroom "
                "(use a wider q0_bits or a smaller scale)"
            )

        raised = mod_raise(self.context, ct)

        folded = self._apply_transforms(evaluator, raised,
                                        self.cts_transforms, keys)

        conj = evaluator.conjugate(folded, keys.conjugation)
        real_part = evaluator.add(folded, conj)     # slots: Re(v)
        imag_part = evaluator.sub(folded, conj)     # slots: i * Im(v)

        cleaned = self._eval_mod(evaluator, real_part, imag_part, q_tilde,
                                 keys)

        return self._apply_transforms(evaluator, cleaned,
                                      self.stc_transforms, keys)

    def _apply_transforms(self, evaluator: Evaluator, ct: Ciphertext,
                          transforms: List[LinearTransform],
                          keys: BootstrapKeys) -> Ciphertext:
        for transform in transforms:
            needed = transform.required_rotations()
            baby = {s: keys.rotations[s] for s in needed["baby"]}
            giant = {s: keys.rotations[s] for s in needed["giant"]}
            ct = transform.evaluate(evaluator, ct, baby, giant)
        return ct

    def _eval_mod(self, evaluator: Evaluator, real_part: Ciphertext,
                  imag_part: Ciphertext, q_tilde: float,
                  keys: BootstrapKeys) -> Ciphertext:
        """Both EvalMod branches through one stacked Chebyshev ladder.

        Each branch normalizes into [-1, 1] (folding the doubling for the
        Chebyshev ladder) and evaluates the sine series.  The branches
        differ only in their normalization constant and combine
        coefficients (by the exact factor ``-1j`` / ``1j``), so the B
        real members and the B imaginary ones run as one ``2B``-member
        ciphertext: per-row prescale and combine plaintexts, one shared
        ladder — half the ladder's kernel calls, each member's arithmetic
        unchanged.  Returns the recombined ``real + imag`` sum, stacked
        (or not) like the inputs.
        """
        members = (unstack_ciphertexts(real_part)
                   + unstack_ciphertexts(imag_part))
        bsz = len(members) // 2
        both = stack_ciphertexts(members)
        norm = 2.0 / (self.sine_periods * q_tilde)
        q_top = float(self.context.q_basis.moduli[both.level])
        pts = [
            _encode_constant(self.encoder, normalize, both.level, q_top)
            for normalize in (norm, -1j * norm)
        ]
        pt = _stack_plaintexts(pts, [bsz, bsz])
        prescaled = evaluator.rescale(
            evaluator.multiply_plain(both, pt, plain_scale=q_top)
        )
        modded = evaluate_chebyshev_rows(
            evaluator, self.encoder, prescaled,
            [q_tilde * self.sine_coeffs, 1j * q_tilde * self.sine_coeffs],
            [bsz, bsz], keys.relin, prescaled=True,
        )
        halves = unstack_ciphertexts(modded)
        if is_batched(real_part):
            real_mod = stack_ciphertexts(halves[:bsz])
            imag_mod = stack_ciphertexts(halves[bsz:])
        else:
            real_mod, imag_mod = halves
        return evaluator.add(real_mod, imag_mod)


def generate_bootstrap_keys(keygen: KeyGenerator,
                            bootstrapper: Bootstrapper) -> BootstrapKeys:
    """All evks one bootstrapper needs, fresh from a key generator."""
    return BootstrapKeys(
        relin=keygen.relinearization_key(),
        conjugation=keygen.conjugation_key(),
        rotations={
            s: keygen.rotation_key(s)
            for s in bootstrapper.required_rotation_steps()
        },
    )
