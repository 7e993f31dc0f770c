"""Homomorphic evaluator: add, multiply, rescale, relinearize, rotate.

Multiplication and rotation are the two operations that trigger hybrid key
switching — the paper's motivating observation is that this key switching
dominates end-to-end runtime (~70% for private inference).

Independent same-level work runs as one stacked call: :func:`concat_members`
joins several ciphertexts into one whose members are all of theirs, any
operation then costs one kernel pass per stage for the whole group, and
:func:`split_members` hands each item its own result back.  A group holds
at most :data:`MAX_STACK_MEMBERS` members (:func:`member_groups`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.ckks.context import CKKSContext
from repro.ckks.encrypt import Ciphertext
from repro.ckks.keys import KeySwitchKey, rotation_galois_element
from repro.ckks.keyswitch import key_switch, key_switch_each
from repro.errors import KeySwitchError, ParameterError
from repro.ntt.batch import get_batch_ntt
from repro.ntt.modmath import mul_sum_mod
from repro.rns.poly import Domain, RNSPoly, automorphism_stacked


#: Most ciphertext members one stacked call of independent items holds.
#: Measured on ``fhe_boot`` (``n7_boot`` bootstraps), peak RSS against
#: 62.3 MB for one item per call: 62.4-62.5 MB at 8, 64.2 MB at 16, and
#: 67.5 MB unbounded (28 members in EvalMod's widest ladder generation),
#: at one speed within the runs' spread.
MAX_STACK_MEMBERS = 8


def member_groups(items: Sequence[Ciphertext],
                  limit: int = MAX_STACK_MEMBERS) -> List[range]:
    """Consecutive runs of whole ``items`` holding at most ``limit``
    members each (an item larger than ``limit`` runs alone)."""
    runs: List[range] = []
    start, members = 0, 0
    for i, ct in enumerate(items):
        size = ct.c0.batch_size
        if i > start and members + size > limit:
            runs.append(range(start, i))
            start, members = i, 0
        members += size
    if items:
        runs.append(range(start, len(items)))
    return runs


def concat_polys(polys: Sequence[RNSPoly]) -> RNSPoly:
    """Same-basis polynomials joined along the member axis, each
    ``(L, N)`` one counting as one member (one comes back unchanged)."""
    if len(polys) == 1:
        return polys[0]
    n = polys[0].n
    data = np.concatenate([p.data.reshape(-1, p.num_towers, n) for p in polys])
    return RNSPoly(polys[0].basis, data, polys[0].domain)


def concat_members(cts: Sequence[Ciphertext]) -> Ciphertext:
    """One ciphertext holding every member of ``cts``, in order.

    A ``(B, L, N)`` item contributes its ``B`` members, so ``k`` such
    items flatten to ``(k*B, L, N)`` (an :class:`RNSPoly` is at most
    3-D).  Levels must match; scales need not: the kernels never read a
    scale, so the stack carries ``cts[0]``'s and each caller keeps its
    items' own scales (see :func:`split_members`).  One item comes back
    unchanged.
    """
    head = cts[0]
    for i, ct in enumerate(cts):
        if ct.level != head.level:
            raise ParameterError(
                f"stack[{i}]: level {ct.level} != stack[0] level {head.level}"
            )
    if len(cts) == 1:
        return head
    return Ciphertext(concat_polys([ct.c0 for ct in cts]),
                      concat_polys([ct.c1 for ct in cts]),
                      head.level, head.scale)


def split_members(ct: Ciphertext, like: Sequence[Ciphertext],
                  scales: Sequence[float]) -> List[Ciphertext]:
    """Undo :func:`concat_members`: the items of ``ct``, shaped as the
    items of ``like`` were, with ``scales[i]`` as item ``i``'s scale.
    The items are views of ``ct``."""
    if len(like) == 1:
        return [Ciphertext(ct.c0, ct.c1, ct.level, scales[0])]
    out: List[Ciphertext] = []
    row = 0
    for item, scale in zip(like, scales):
        size = item.c0.batch_size
        halves = []
        for half in (ct.c0, ct.c1):
            data = half.data[row:row + size]
            if item.c0.data.ndim == 2:
                data = data[0]
            halves.append(RNSPoly(half.basis, data, half.domain))
        out.append(Ciphertext(halves[0], halves[1], ct.level, scale))
        row += size
    return out


class Evaluator:
    """Stateless homomorphic operations over one context.

    Keys are passed per call (relinearisation / Galois) so callers control
    which keys exist — mirroring how accelerator runtimes stage ``evks``.
    """

    def __init__(self, context: CKKSContext):
        self.context = context

    # -- linear operations ------------------------------------------------------

    def add(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._check_aligned(x, y)
        return Ciphertext(x.c0 + y.c0, x.c1 + y.c1, x.level, x.scale)

    def sub(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._check_aligned(x, y)
        return Ciphertext(x.c0 - y.c0, x.c1 - y.c1, x.level, x.scale)

    def negate(self, x: Ciphertext) -> Ciphertext:
        return Ciphertext(-x.c0, -x.c1, x.level, x.scale)

    def add_plain(self, x: Ciphertext, plaintext: RNSPoly,
                  plain_scale: float | None = None) -> Ciphertext:
        """Add an encoded plaintext (which must share the ciphertext's scale).

        ``plain_scale`` is the scale the plaintext was encoded at; it is
        validated against ``x.scale`` exactly as :meth:`_check_aligned`
        validates ciphertext pairs — adding a plaintext encoded at a
        different scale silently corrupts the message.  ``None`` asserts
        the plaintext was encoded at ``x.scale``.
        """
        if plain_scale is not None and abs(plain_scale - x.scale) > 0.5:
            raise ParameterError(
                f"plaintext scale mismatch: {plain_scale} vs ciphertext "
                f"{x.scale} (re-encode at the ciphertext's scale)"
            )
        pt = self._align_plain(x, plaintext)
        return Ciphertext(x.c0 + pt, x.c1.copy(), x.level, x.scale)

    def multiply_plain(self, x: Ciphertext, plaintext: RNSPoly,
                       plain_scale: float | None = None) -> Ciphertext:
        """Scale multiplies; callers usually follow with :meth:`rescale`."""
        pt = self._align_plain(x, plaintext)
        if plain_scale is None:
            plain_scale = self.context.params.scale
        if plain_scale <= 0:
            raise ParameterError(
                f"plaintext scale must be positive, got {plain_scale}"
            )
        return Ciphertext(x.c0 * pt, x.c1 * pt, x.level, x.scale * plain_scale)

    def dot_plain(self, cts: Sequence[Ciphertext],
                  plaintexts: Sequence[RNSPoly]) -> Ciphertext:
        """``sum_i cts[i] * plaintexts[i]``, one fused multiply-accumulate
        per half.

        Bit-identical to folding :meth:`multiply_plain` (at the default
        plaintext scale) with :meth:`add`: both leave the canonical
        residue of the same sum.  The operands must share a level and
        scale, as :meth:`add` requires.
        """
        head = cts[0]
        for ct in cts[1:]:
            self._check_aligned(head, ct)
        pts = [self._align_plain(head, pt).data for pt in plaintexts]
        q_col = head.c0.basis.q_column
        c0, c1 = (
            RNSPoly(head.c0.basis,
                    mul_sum_mod([getattr(ct, half).data for ct in cts], pts,
                                q_col),
                    Domain.EVAL)
            for half in ("c0", "c1")
        )
        return Ciphertext(c0, c1, head.level,
                          head.scale * self.context.params.scale)

    # -- multiplication ---------------------------------------------------------

    def multiply(self, x: Ciphertext, y: Ciphertext,
                 relin_key: KeySwitchKey) -> Ciphertext:
        """Ciphertext-ciphertext multiply, relinearised via hybrid KS.

        The tensor product leaves a degree-2 part ``d2`` decryptable only by
        ``s^2``; ``relin_key`` switches it back under ``s`` (this is one of
        the two HKS call sites the paper analyses).  Operands must share a
        level; scales need not match (the product's scale is their product).
        Like every operation here, a ciphertext whose halves are
        ``(B, L, N)`` stacks runs each kernel stage once for all B members.
        """
        self._check_levels(x, y)
        d0 = x.c0 * y.c0
        d1 = x.c0 * y.c1 + x.c1 * y.c0
        d2 = x.c1 * y.c1
        ks0, ks1 = key_switch(self.context, d2, relin_key, x.level)
        return Ciphertext(d0 + ks0, d1 + ks1, x.level, x.scale * y.scale)

    def square(self, x: Ciphertext, relin_key: KeySwitchKey) -> Ciphertext:
        return self.multiply(x, x, relin_key)

    def rescale(self, x: Ciphertext) -> Ciphertext:
        """Drop the top tower and divide by ``q_level`` (scale management)."""
        level = x.level
        if level == 0:
            raise ParameterError("cannot rescale a level-0 ciphertext")
        q_last = self.context.q_basis.moduli[level]
        inv = self.context.rescale_inverses(level)
        # Both halves (of every stack member) share every constant, and
        # the whole rescale happens in the EVAL domain: the NTT is a ring
        # homomorphism, so
        # ``NTT((c_i - centered) * inv) == (NTT(c_i) - NTT(centered)) * inv``
        # exactly.  Only the dropped top towers round-trip to COEFF (one
        # INTT) to produce the centered correction polynomial, whose
        # per-modulus NTT images are then subtracted from the retained
        # EVAL rows — bit-identical to :meth:`_rescale_poly` on each half.
        n = x.c0.n
        basis = self.context.level_basis(level - 1)
        both = np.stack([
            h.data if h.domain is Domain.EVAL else h.to_eval().data
            for h in (x.c0, x.c1)
        ])
        last_coeff = get_batch_ntt(n, (q_last,)).inverse(both[..., level:, :])
        half = q_last // 2
        # Conditional corrections as bool-scaled adds: every difference
        # below stays in (-q, q), so one add of q*(mask) replaces a full
        # int64 ``%`` pass (which numpy cannot vectorize).
        centered = last_coeff - q_last * (last_coeff > half)
        # broadcast to (2, ..., level, N); |centered| <= q_last/2 < q_i
        correction = centered + basis.q_column * (centered < 0)
        corr_eval = get_batch_ntt(n, basis.moduli).forward(correction)
        # (c_i - corr) * inv, as c_i * inv + corr * (-inv).
        inv_col = np.array(list(inv), dtype=np.int64)[:, None]
        rows = mul_sum_mod(
            [both[..., :level, :], corr_eval],
            [inv_col, basis.q_column - inv_col],
            basis.q_column,
        )
        c0 = RNSPoly(basis, rows[0], Domain.EVAL)
        c1 = RNSPoly(basis, rows[1], Domain.EVAL)
        return Ciphertext(c0, c1, level - 1, x.scale / q_last)

    def _rescale_poly(self, poly: RNSPoly, level: int, inv_scalars) -> RNSPoly:
        """Per-tower COEFF-domain rescale of one ``(L, N)`` half — the
        oracle the tests hold :meth:`rescale` bit-identical to."""
        coeff = poly.to_coeff()
        q_last = self.context.q_basis.moduli[level]
        last = coeff.data[level]
        half = q_last // 2
        centered_last = np.where(last > half, last - q_last, last)
        rows = []
        for i in range(level):
            q_i = self.context.q_basis.moduli[i]
            diff = (coeff.data[i] - centered_last) % q_i
            rows.append(diff * inv_scalars[i] % q_i)
        out = RNSPoly(
            self.context.level_basis(level - 1), np.stack(rows), Domain.COEFF
        )
        return out.to_eval()

    def mod_switch_to_level(self, x: Ciphertext, level: int) -> Ciphertext:
        """Drop towers down to ``level`` (exact, scale-preserving).

        Unlike :meth:`rescale` this does not divide the message; it only
        aligns levels so ciphertexts produced at different depths can be
        combined.
        """
        if level > x.level:
            raise ParameterError(
                f"cannot mod-switch up: {x.level} -> {level}"
            )
        if level == x.level:
            return x.copy()
        rows = range(level + 1)
        return Ciphertext(
            x.c0.select_towers(rows), x.c1.select_towers(rows), level, x.scale
        )

    # -- rotations ---------------------------------------------------------------

    def rotate(self, x: Ciphertext, steps: int,
               galois_key: KeySwitchKey | None) -> Ciphertext:
        """Cyclic slot rotation by ``steps`` (the other HKS call site).

        ``steps`` is reduced modulo the slot count (``N/2``); a rotation
        that normalizes to zero returns a copy without touching the key —
        the Galois element would be 1, so a full hybrid key switch would
        only add noise for a no-op.  ``galois_key`` may be ``None`` in
        that case.
        """
        return self._rotate_items([x], [steps], [galois_key])[0]

    def rotate_each(self, cts: Sequence[Ciphertext], steps: Sequence[int],
                    keys: Sequence[Optional[KeySwitchKey]]
                    ) -> List[Ciphertext]:
        """``[rotate(ct, s, key) ...]`` over same-level ciphertexts with
        one key switch: an automorphism per item, one ModUp over the
        stacked ``c1``s, ApplyKey with each item's own key and one
        ModDown.  Each result is bit-identical to its :meth:`rotate`.
        """
        return self._rotate_items(cts, steps, keys)

    def _rotate_items(self, cts: Sequence[Ciphertext], steps: Sequence[int],
                      keys: Sequence[Optional[KeySwitchKey]]
                      ) -> List[Ciphertext]:
        """The body of :meth:`rotate` and :meth:`rotate_each`: items whose
        step normalizes to zero come back as copies, the rest share one
        :meth:`_galois_each`."""
        n = self.context.params.n
        out: List[Optional[Ciphertext]] = [None] * len(cts)
        live, elements, live_keys = [], [], []
        for i, (ct, step, key) in enumerate(zip(cts, steps, keys)):
            step %= n // 2
            if step == 0:
                out[i] = ct.copy()
                continue
            if key is None:
                raise KeySwitchError(
                    f"rotation by {step} steps needs a Galois key"
                )
            live.append(i)
            elements.append(rotation_galois_element(step, n))
            live_keys.append(key)
        if live:
            rotated = self._galois_each([cts[i] for i in live], elements,
                                        live_keys)
            for i, item in zip(live, rotated):
                out[i] = item
        return out

    def hoisted_rotations(self, x: Ciphertext,
                          galois_keys: Dict[int, KeySwitchKey]
                          ) -> Dict[int, Ciphertext]:
        """Rotate ``x`` by every step in ``galois_keys`` sharing one ModUp.

        Forwards to :func:`repro.ckks.hoisting.hoisted_rotations`; routing
        it through the evaluator lets instrumentation (and subclasses)
        observe hoisted rotations the same way as single ones.
        """
        from repro.ckks.hoisting import hoisted_rotations
        return hoisted_rotations(self.context, x, galois_keys)

    def conjugate(self, x: Ciphertext, conj_key: KeySwitchKey) -> Ciphertext:
        return self.apply_galois(x, 2 * self.context.params.n - 1, conj_key)

    def apply_galois(self, x: Ciphertext, galois_element: int,
                     key: KeySwitchKey) -> Ciphertext:
        """Apply ``X -> X^g`` then key-switch the rotated ``c1`` back to ``s``."""
        return self._galois_each([x], [galois_element], [key])[0]

    def _galois_each(self, cts: Sequence[Ciphertext],
                     elements: Sequence[int],
                     keys: Sequence[KeySwitchKey]) -> List[Ciphertext]:
        """:meth:`apply_galois` per item, same-level items sharing one key
        switch (:func:`key_switch_each` gives each key an equal run of
        members, so the items must share a batch size)."""
        if len({ct.c0.batch_size for ct in cts}) != 1:
            raise ParameterError("stacked Galois items need one batch size")
        rotated = [
            Ciphertext(*automorphism_stacked([ct.c0, ct.c1], g), ct.level,
                       ct.scale)
            for ct, g in zip(cts, elements)
        ]
        stacked = concat_members(rotated)
        ks0, ks1 = key_switch_each(self.context, stacked.c1, keys,
                                   stacked.level)
        switched = Ciphertext(stacked.c0 + ks0, ks1, stacked.level,
                              stacked.scale)
        return split_members(switched, rotated, [ct.scale for ct in rotated])

    # -- helpers -------------------------------------------------------------------

    def _check_levels(self, x: Ciphertext, y: Ciphertext) -> None:
        if x.level != y.level:
            raise ParameterError(
                f"level mismatch: {x.level} vs {y.level} (mod-switch first)"
            )

    def _check_aligned(self, x: Ciphertext, y: Ciphertext) -> None:
        self._check_levels(x, y)
        if abs(x.scale - y.scale) > 0.5:
            raise ParameterError(f"scale mismatch: {x.scale} vs {y.scale}")

    def _align_plain(self, x: Ciphertext, plaintext: RNSPoly) -> RNSPoly:
        if plaintext.num_towers == x.level + 1:
            return plaintext
        if plaintext.num_towers < x.level + 1:
            raise ParameterError("plaintext encoded at a lower level than ciphertext")
        return plaintext.select_towers(range(x.level + 1))
