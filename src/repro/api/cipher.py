"""Fluent ciphertext wrapper: operator overloading with automatic
level and scale management.

``CipherVector`` wraps a raw :class:`~repro.ckks.encrypt.Ciphertext`
together with the owning :class:`~repro.api.session.FHESession`, so user
code composes homomorphic programs the way it composes numpy expressions::

    z = (x * y + 0.5) << 3        # multiply, add a constant, rotate left

Every operation delegates to the session's :class:`Evaluator` — a
``CipherVector`` expression produces bit-identical polynomials to the
equivalent hand-written ``Evaluator`` calls.  What the wrapper adds is the
bookkeeping the seed quickstart forced on users:

* ciphertext-ciphertext operands are auto-aligned: the shallower level
  wins (exact tower drop), and mismatched scales are corrected with the
  multiply-by-one trick :mod:`repro.ckks.polyeval` uses internally;
* products are auto-rescaled; plaintext factors are encoded at the
  current top prime's scale so ciphertext-plaintext multiplies preserve
  the operand's scale *exactly* (the running scale stays within 0.5 of
  ``params.scale`` along plaintext chains);
* rotation (``<<`` / ``>>``) and conjugation fetch their Galois keys from
  the session's lazy cache — no key juggling at call sites.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ckks.batch import (
    is_batched,
    stack_ciphertexts,
    unstack_ciphertexts,
)
from repro.ckks.encrypt import Ciphertext
from repro.ckks.noise import NoiseEstimate
from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.session import FHESession
    from repro.ckks.context import CKKSContext
    from repro.ckks.evaluator import Evaluator
    from repro.rns.poly import RNSPoly

#: Things accepted as plaintext operands: scalars and slot vectors.
PlainOperand = Union[int, float, complex, np.ndarray, list, tuple]

#: Scales differing by no more than this are treated as equal (the same
#: tolerance Evaluator._check_aligned uses).
SCALE_TOL = 0.5

#: Alignment rounds before giving up (each round can drop one level).
_MAX_ALIGN_ROUNDS = 4


class CipherVector:
    """An encrypted slot vector bound to its session."""

    __array_priority__ = 1000  # numpy defers binary ops to us

    def __init__(self, session: "FHESession", ciphertext: Ciphertext,
                 noise: Optional[NoiseEstimate] = None):
        self.session = session
        self.ciphertext = ciphertext
        #: Tracked heuristic noise bound (``None`` when the session's
        #: ``noise_policy`` is ``"off"`` or the handle was built from a
        #: raw ciphertext of unknown history).  Propagated through every
        #: operation and checked at decryption.
        self.noise = noise

    # -- metadata ----------------------------------------------------------------

    @property
    def level(self) -> int:
        return self.ciphertext.level

    @property
    def scale(self) -> float:
        return self.ciphertext.scale

    @property
    def num_slots(self) -> int:
        return self.session.num_slots

    def copy(self) -> "CipherVector":
        return CipherVector(self.session, self.ciphertext.copy(), self.noise)

    def decrypt(self) -> np.ndarray:
        """Decrypt and decode back to the complex slot vector."""
        return self.session.decrypt(self)

    def __repr__(self) -> str:
        return (
            f"CipherVector(slots={self.num_slots}, level={self.level}, "
            f"scale=2^{np.log2(self.scale):.2f})"
        )

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: Union[PlainOperand, "CipherVector"]) -> "CipherVector":
        if isinstance(other, CipherVector):
            a, b = self._aligned_with(other)
            pair = self._pair_noise(other, a, b)
            noise = None if pair is None \
                else self.session.noise_model.add(*pair)
            return self._wrap(self._ev.add(a, b), noise)
        pt = self._encode_at(other, self.level, self.scale)
        noise = None if self.noise is None else NoiseEstimate(
            # Plaintext addition only contributes encoding rounding; one
            # conservative bit covers it.
            self.noise.log2_noise + 1.0, self.level, self.scale
        )
        return self._wrap(self._ev.add_plain(self.ciphertext, pt,
                                             plain_scale=self.scale), noise)

    def __radd__(self, other: Union[PlainOperand, "CipherVector"]) -> "CipherVector":
        return self.__add__(other)

    def __sub__(self, other: Union[PlainOperand, "CipherVector"]) -> "CipherVector":
        if isinstance(other, CipherVector):
            a, b = self._aligned_with(other)
            pair = self._pair_noise(other, a, b)
            noise = None if pair is None \
                else self.session.noise_model.add(*pair)
            return self._wrap(self._ev.sub(a, b), noise)
        return self.__add__(_negated(other))

    def __rsub__(self, other: Union[PlainOperand, "CipherVector"]) -> "CipherVector":
        return (-self).__add__(other)

    def __neg__(self) -> "CipherVector":
        return self._wrap(self._ev.negate(self.ciphertext), self.noise)

    def __mul__(self, other: Union[PlainOperand, "CipherVector"]) -> "CipherVector":
        if isinstance(other, CipherVector):
            a, b = self._aligned_with(other, for_multiply=True)
            product = self._ev.multiply(a, b, self.session.relin_key)
            pair = self._pair_noise(other, a, b)
            noise = None
            if pair is not None:
                model = self.session.noise_model
                noise = model.rescale(model.multiply(*pair))
            return self._wrap(self._ev.rescale(product), noise)
        # Plaintext factor: encode at the top prime's scale so the rescale
        # cancels it exactly and the ciphertext scale is preserved.
        if self.level == 0:
            raise ParameterError("out of levels: cannot rescale below level 0")
        plain_scale = float(self._ctx.q_basis.moduli[self.level])
        pt = self._encode_at(other, self.level, plain_scale)
        product = self._ev.multiply_plain(self.ciphertext, pt,
                                          plain_scale=plain_scale)
        noise = None
        if self.noise is not None:
            model = self.session.noise_model
            noise = model.rescale(model.multiply_plain(
                self._pin(self.noise, self.ciphertext),
                plain_scale=plain_scale,
            ))
        return self._wrap(self._ev.rescale(product), noise)

    def __rmul__(self, other: Union[PlainOperand, "CipherVector"]) -> "CipherVector":
        return self.__mul__(other)

    def square(self) -> "CipherVector":
        return self.__mul__(self)

    # -- rotations ---------------------------------------------------------------

    def rotate(self, steps: int) -> "CipherVector":
        """Cyclic rotation: slot ``i`` receives the value of slot ``i+steps``."""
        steps %= self.num_slots
        if steps == 0:
            return self.copy()
        key = self.session.rotation_key(steps)
        return self._wrap(self._ev.rotate(self.ciphertext, steps, key),
                          self._turned_noise())

    def __lshift__(self, steps: int) -> "CipherVector":
        return self.rotate(steps)

    def __rshift__(self, steps: int) -> "CipherVector":
        return self.rotate(-steps)

    def conjugate(self) -> "CipherVector":
        return self._wrap(
            self._ev.conjugate(self.ciphertext, self.session.conjugation_key),
            self._turned_noise(),
        )

    def bootstrap(self) -> "CipherVector":
        """Refresh this ciphertext: same message, level budget restored.

        Runs the full ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff
        pipeline (~100 hybrid key switches); the session builds and caches
        the circuit and its keys on first use.  Requires bootstrappable
        parameters (e.g. the ``n7_boot`` preset).
        """
        return self.session.bootstrap(self)

    def sum_slots(self, width: int) -> "CipherVector":
        """Fold the first ``width`` (power-of-two) slots into slot 0.

        The classic rotate-and-sum reduction: ``log2(width)`` rotations,
        each one a hybrid key switch served from the session's key cache.
        """
        if width < 1 or width & (width - 1):
            raise ParameterError(f"width must be a positive power of two, got {width}")
        out = self
        step = width // 2
        while step >= 1:
            out = out + out.rotate(step)
            step //= 2
        return out

    # -- helpers ------------------------------------------------------------------

    @property
    def _ev(self) -> "Evaluator":
        return self.session.evaluator

    @property
    def _ctx(self) -> "CKKSContext":
        return self.session.context

    def _wrap(self, ct: Ciphertext,
              noise: Optional[NoiseEstimate] = None) -> "CipherVector":
        if noise is not None:
            noise = self._pin(noise, ct)
        # A single ciphertext combined with a batch broadcasts across it.
        handle = CipherBatch if is_batched(ct) else CipherVector
        return handle(self.session, ct, noise)

    @staticmethod
    def _pin(noise: NoiseEstimate, ct: Ciphertext) -> NoiseEstimate:
        """Re-pin a tracked bound onto a ciphertext's actual level/scale
        (alignment may have dropped levels or corrected scales; the
        log2 bound itself is conservative either way)."""
        if noise.level == ct.level and abs(noise.scale - ct.scale) <= SCALE_TOL:
            return noise
        return NoiseEstimate(noise.log2_noise, ct.level, ct.scale)

    def _pair_noise(
        self, other: "CipherVector", a: Ciphertext, b: Ciphertext
    ) -> Optional[Tuple[NoiseEstimate, NoiseEstimate]]:
        """Both operands' bounds pinned to their aligned ciphertexts, or
        ``None`` when either side is untracked."""
        if self.noise is None or other.noise is None:
            return None
        return self._pin(self.noise, a), self._pin(other.noise, b)

    def _turned_noise(self) -> Optional[NoiseEstimate]:
        """Noise after one key-switched automorphism (rotate/conjugate)."""
        if self.noise is None:
            return None
        return self.session.noise_model.rotate(
            self._pin(self.noise, self.ciphertext)
        )

    def _encode_at(self, values: PlainOperand, level: int,
                   scale: float) -> "RNSPoly":
        if isinstance(values, CipherVector):  # defensive: callers filter first
            raise ParameterError("expected a plaintext operand")
        arr = np.atleast_1d(np.asarray(values, dtype=np.complex128))
        if arr.size == 1:
            arr = np.full(self.num_slots, arr[0])
        return self.session.encode(arr, level=level, scale=scale)

    def _aligned_with(self, other: "CipherVector",
                      for_multiply: bool = False) -> Tuple[Ciphertext, Ciphertext]:
        """Equalize levels (and, for addition, scales) of the two operands."""
        if other.session is not self.session:
            raise ParameterError("cannot combine CipherVectors from different sessions")
        a, b = self.ciphertext, other.ciphertext
        for _ in range(_MAX_ALIGN_ROUNDS):
            level = min(a.level, b.level)
            if a.level > level:
                a = self._ev.mod_switch_to_level(a, level)
            if b.level > level:
                b = self._ev.mod_switch_to_level(b, level)
            if for_multiply or abs(a.scale - b.scale) <= SCALE_TOL:
                return a, b
            if a.scale < b.scale:
                a = self._scale_correct(a, b.scale)
            else:
                b = self._scale_correct(b, a.scale)
        raise ParameterError("could not align ciphertext scales")

    def _scale_correct(self, ct: Ciphertext, target_scale: float) -> Ciphertext:
        """Bring ``ct`` to exactly ``target_scale`` (costs one level)."""
        if ct.level == 0:
            raise ParameterError("out of levels while aligning scales")
        q_next = self._ctx.q_basis.moduli[ct.level]
        corr = target_scale * q_next / ct.scale
        if corr < 1.0:
            raise ParameterError(
                f"cannot correct scale {ct.scale:g} up to {target_scale:g}"
            )
        pt = self._encode_at(1.0, ct.level, corr)
        bumped = Ciphertext(ct.c0 * pt, ct.c1 * pt, ct.level, ct.scale * corr)
        return self._ev.rescale(bumped)


class CipherBatch(CipherVector):
    """B encrypted slot vectors evaluated as one stacked ciphertext.

    The cross-ciphertext batch axis surfaced as a fluent handle: the
    wrapped :class:`~repro.ckks.encrypt.Ciphertext` holds ``(B, L, N)``
    :class:`~repro.rns.poly.RNSPoly` halves, which the session's one
    :class:`~repro.ckks.evaluator.Evaluator` runs as one stacked kernel
    pass per operation instead of B.  The expression surface is inherited from
    :class:`CipherVector` unchanged — plaintext operands broadcast across
    the batch, alignment/rescale bookkeeping applies to all members at
    once — and every result is bit-identical to running the same
    expression member by member.

    Build one with :meth:`FHESession.encrypt_batch` or
    :meth:`from_vectors`; get the per-user results back with
    :meth:`decrypt` (a ``(B, slots)`` array) or :meth:`members`.
    """

    def __init__(self, session: "FHESession", ciphertext: Ciphertext,
                 noise: Optional[NoiseEstimate] = None):
        if not is_batched(ciphertext):
            raise ParameterError(
                "CipherBatch wraps a batched ciphertext ((B, L, N) "
                "halves); use CipherVector for a single ciphertext"
            )
        super().__init__(session, ciphertext, noise)

    @classmethod
    def from_vectors(cls, vectors: "Sequence[CipherVector]") -> "CipherBatch":
        """Stack same-level :class:`CipherVector` handles into a batch."""
        vectors = list(vectors)
        if not vectors:
            raise ParameterError("cannot batch zero CipherVectors")
        session = vectors[0].session
        for i, vec in enumerate(vectors[1:], start=1):
            if vec.session is not session:
                raise ParameterError(
                    f"batch[{i}]: belongs to a different session"
                )
        # The batch's tracked bound is the worst member's — conservative
        # for everyone; untracked members disable tracking for the batch.
        tracked = [v.noise for v in vectors if v.noise is not None]
        noise = max(tracked, key=lambda n: n.log2_noise) \
            if len(tracked) == len(vectors) else None
        return cls(
            session, stack_ciphertexts([v.ciphertext for v in vectors]),
            noise,
        )

    # -- metadata ----------------------------------------------------------------

    @property
    def batch_size(self) -> int:
        return self.ciphertext.c0.batch_size

    def members(self) -> "List[CipherVector]":
        """Split back into per-user :class:`CipherVector` handles."""
        return [
            CipherVector(self.session, ct, self.noise)
            for ct in unstack_ciphertexts(self.ciphertext)
        ]

    def member(self, b: int) -> "CipherVector":
        ct = self.ciphertext
        return CipherVector(
            self.session,
            Ciphertext(ct.c0.member(b), ct.c1.member(b), ct.level, ct.scale),
            self.noise,
        )

    def copy(self) -> "CipherBatch":
        return CipherBatch(self.session, self.ciphertext.copy(), self.noise)

    def decrypt(self) -> np.ndarray:
        """Decrypt all members: a ``(B, num_slots)`` complex array."""
        self.session.check_noise(self.noise)
        raw = self.ciphertext
        dec = self.session.decryptor.decrypt(raw)  # (B, L, N)
        return np.stack([
            self.session.decode(poly, scale=raw.scale)
            for poly in dec.unstack()
        ])

    def __repr__(self) -> str:
        return (
            f"CipherBatch(B={self.batch_size}, slots={self.num_slots}, "
            f"level={self.level}, scale=2^{np.log2(self.scale):.2f})"
        )

    # -- batched rotations -------------------------------------------------------

    def rotate_many(self, steps: "Sequence[int]") -> "Dict[int, CipherBatch]":
        """Hoisted rotations of the whole batch: one shared ModUp for all
        B members, one stacked automorphism/ApplyKey/ModDown per step."""
        rotated = self.session.rotate_many(self, steps)
        return {
            s: CipherBatch(self.session, cv.ciphertext)
            for s, cv in rotated.items()
        }


def _negated(value: PlainOperand) -> PlainOperand:
    arr = np.asarray(value)
    return -arr if arr.ndim else -arr.item()
