"""Cross-ciphertext batching: stack B same-level ciphertexts into one.

A batched ciphertext is an ordinary :class:`~repro.ckks.encrypt.Ciphertext`
whose halves are ``(B, L, N)`` :class:`~repro.rns.poly.RNSPoly` stacks —
the dataclass's structural invariants (shared basis, ``level + 1``
towers) hold unchanged, and every kernel indexes towers from the right,
so the one :class:`~repro.ckks.evaluator.Evaluator` and the generic
circuit code (BSGS linear transforms, the Chebyshev ladder, the whole
bootstrap pipeline) run on a batch without modification, one kernel pass
per stage for all B members.

Because every kernel on a stack is bit-identical to looping it over the
members, an entire batched circuit is bit-identical to running the
circuit B times — which is exactly what ``tests/test_batch.py`` asserts,
end to end through bootstrapping.

The same axis also carries independent work *within* one circuit:
:func:`repro.ckks.evaluator.concat_members` joins several same-level
ciphertexts, batched or not, into one stack (``k`` items of ``B``
members flatten to ``k*B``, since an :class:`RNSPoly` is at most 3-D),
which is how the Chebyshev ladder's generations and the BSGS giant-step
rotations share key switches.  Unlike :func:`stack_ciphertexts`, the
items' scales may differ; the callers keep each one's own.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ckks.encrypt import Ciphertext
from repro.ckks.evaluator import Evaluator
from repro.errors import ParameterError
from repro.rns.poly import RNSPoly

__all__ = [
    "BatchShapeError",
    "stack_ciphertexts",
    "unstack_ciphertexts",
    "is_batched",
    "batch_size",
]


class BatchShapeError(ParameterError):
    """Members of a ciphertext batch do not share level/scale/degree.

    The message is located like an analysis diagnostic —
    ``batch[i]: ...`` names the first offending member — so callers can
    tell *which* submission broke a coalesced group.
    """


def stack_ciphertexts(cts: Sequence[Ciphertext]) -> Ciphertext:
    """Stack B same-level ciphertexts into one batched ciphertext.

    All members must share level, scale (within the 0.5 addition
    tolerance) and ring degree; a mismatch raises :class:`BatchShapeError`
    naming the offending index.
    """
    cts = list(cts)
    if not cts:
        raise BatchShapeError("cannot stack an empty ciphertext batch")
    head = cts[0]
    for i, ct in enumerate(cts[1:], start=1):
        if ct.level != head.level:
            raise BatchShapeError(
                f"batch[{i}]: level {ct.level} != batch[0] level "
                f"{head.level} — mod-switch members to a shared level "
                f"before batching"
            )
        if abs(ct.scale - head.scale) > 0.5:
            raise BatchShapeError(
                f"batch[{i}]: scale {ct.scale:g} != batch[0] scale "
                f"{head.scale:g} — rescale/align members before batching"
            )
        if ct.n != head.n:
            raise BatchShapeError(
                f"batch[{i}]: ring degree {ct.n} != batch[0] degree {head.n}"
            )
    return Ciphertext(
        RNSPoly.stack([ct.c0 for ct in cts]),
        RNSPoly.stack([ct.c1 for ct in cts]),
        head.level,
        head.scale,
    )


def unstack_ciphertexts(ct: Ciphertext) -> List[Ciphertext]:
    """Split a batched ciphertext back into its B members (a plain
    ciphertext comes back as a one-element list holding a copy)."""
    return [
        Ciphertext(a, b, ct.level, ct.scale)
        for a, b in zip(ct.c0.unstack(), ct.c1.unstack())
    ]


def is_batched(ct: Ciphertext) -> bool:
    return ct.c0.data.ndim == 3


def batch_size(ct: Ciphertext) -> int:
    return ct.c0.batch_size


class BatchEvaluator(Evaluator):
    # bench/tracing.py (frozen for this PR) patches
    # ``BatchEvaluator.__dict__["rescale"]`` for --trace runs; that is the
    # only reason this class exists.  The library only ever builds
    # :class:`Evaluator`, so a rescale still opens one span, not two.
    def rescale(self, x: Ciphertext) -> Ciphertext:
        return super().rescale(x)
