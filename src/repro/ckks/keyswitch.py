"""Reference hybrid key switching (HKS) — paper Section III.

The implementation mirrors the paper's stage names so that the dataflow
schedulers in :mod:`repro.core` can be validated stage-by-stage against it:

ModUp
    P1 INTT (digit towers to coefficient domain) ->
    P2 BConv (extend digit from its ``alpha`` towers to the complement
    ``beta = l + K - alpha`` towers) -> P3 NTT -> P4 apply evk
    (point-wise multiply with both key halves) -> P5 reduce (sum digits).

ModDown
    P1 INTT of the ``K`` auxiliary towers -> P2 BConv ``P -> Q_l`` ->
    P3 NTT -> P4 subtract and scale by ``P^-1``.

Everything operates on EVAL-domain inputs/outputs, as on the RPU.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.ckks.context import CKKSContext
from repro.ckks.keys import KeySwitchKey
from repro.errors import KeySwitchError
from repro.ntt.batch import get_batch_ntt
from repro.ntt.modmath import mul_sum_mod
from repro.rns.bconv import get_converter
from repro.rns.poly import Domain, RNSPoly


def mod_up_digit(
    context: CKKSContext, poly: RNSPoly, level: int, digit: int
) -> RNSPoly:
    """ModUp P1-P3 for one digit: returns the digit extended to ``Q_l ++ P``.

    The output tower order matches :meth:`CKKSContext.extended_basis`:
    chain towers first (original digit rows bypass P1-P3 untouched — the
    "bypass" arrows of paper Figure 1), then the ``P`` towers.
    """
    if poly.domain is not Domain.EVAL:
        raise KeySwitchError("ModUp expects an EVAL-domain input")
    digit_groups = context.digit_indices(level)
    indices = digit_groups[digit]
    digit_poly = poly.select_towers(indices)

    # P1: INTT the digit's towers into the coefficient domain.
    digit_coeff = digit_poly.to_coeff()

    # P2: BConv from the digit basis to the complement basis (both served
    # from the context's derived-basis caches, as is the converter).
    complement = context.complement_indices(level, digit)
    extended = context.extended_basis(level)
    target = context.complement_basis(level, digit)
    converter = get_converter(digit_coeff.basis, target)
    converted = RNSPoly(target, converter.convert(digit_coeff.data), Domain.COEFF)

    # P3: NTT back to the evaluation domain.
    converted_eval = converted.to_eval()

    # Reassemble rows in extended-basis order (bypass towers + converted):
    # every tower index belongs to exactly one of the two groups, so two
    # fancy-indexed assignments fill the preallocated matrix completely.
    total = level + 1 + len(context.p_basis)
    out = np.empty((total, poly.n), dtype=converted_eval.data.dtype)
    out[np.asarray(complement, dtype=np.intp)] = converted_eval.data
    out[np.asarray(indices, dtype=np.intp)] = digit_poly.data
    return RNSPoly(extended, out, Domain.EVAL)


def apply_evk(
    context: CKKSContext,
    extended_digits: Sequence[RNSPoly],
    key: KeySwitchKey,
    level: int,
) -> Tuple[RNSPoly, RNSPoly]:
    """ModUp P4 + P5: multiply each extended digit by its evk pair and sum.

    The key's tables are read in place (see :meth:`KeySwitchKey.tables`).
    """
    extended_digits = list(extended_digits)
    tables = key.tables(context, level)
    count = len(tables[0])
    if len(extended_digits) != count:
        raise KeySwitchError(
            f"{len(extended_digits)} digits but key provides {count} pairs"
        )
    basis = extended_digits[0].basis
    digits = [digit.data for digit in extended_digits]
    b_sum, a_sum = (
        RNSPoly(basis, mul_sum_mod(digits, half, basis.q_column), Domain.EVAL)
        for half in tables
    )
    return b_sum, a_sum


def apply_evks(
    context: CKKSContext,
    extended_digits: Sequence[RNSPoly],
    keys: Sequence[KeySwitchKey],
    level: int,
) -> Tuple[RNSPoly, RNSPoly]:
    """:func:`apply_evk` with a key per item, over one stack.

    The digits' members fall into ``len(keys)`` equal consecutive runs
    (an item that is itself a ``B``-member stack flattens to ``B``
    members), and run ``i`` goes through :func:`apply_evk` with
    ``keys[i]``, so each member's sum is its solo one.  Each run reads
    its key's tables in place: stacking per-member copies of them
    doubled this stage's transient memory (and page faults).
    """
    extended_digits = list(extended_digits)
    if len(keys) == 1:
        return apply_evk(context, extended_digits, keys[0], level)
    members = extended_digits[0].batch_size
    if members % len(keys):
        raise KeySwitchError(
            f"{members} members do not split into {len(keys)} keys' runs"
        )
    per_key = members // len(keys)
    sums = [
        apply_evk(
            context,
            [RNSPoly(d.basis, d.data[i * per_key:(i + 1) * per_key], d.domain)
             for d in extended_digits],
            key, level,
        )
        for i, key in enumerate(keys)
    ]
    basis = extended_digits[0].basis
    b_sum, a_sum = (
        RNSPoly(basis, np.concatenate([pair[half].data for pair in sums]),
                Domain.EVAL)
        for half in (0, 1)
    )
    return b_sum, a_sum


def mod_down(context: CKKSContext, poly: RNSPoly, level: int) -> RNSPoly:
    """ModDown: divide an extended-basis polynomial by ``P`` back into ``Q_l``.

    BConv's centred lift makes the division round to nearest, not down:
    the ``P`` towers' value is taken in ``(-P/2, P/2]`` (plus a slack
    ``u * P`` symmetric around 0, see :mod:`repro.rns.bconv`).
    """
    if poly.domain is not Domain.EVAL:
        raise KeySwitchError("ModDown expects an EVAL-domain input")
    num_q = level + 1
    num_p = len(context.p_basis)
    if poly.num_towers != num_q + num_p:
        raise KeySwitchError(
            f"expected {num_q + num_p} towers, got {poly.num_towers}"
        )
    q_part = poly.select_towers(range(num_q))
    p_part = poly.select_towers(range(num_q, num_q + num_p))

    # P1: INTT of the K auxiliary towers.
    p_coeff = p_part.to_coeff()
    # P2: BConv P -> Q_l.
    converter = get_converter(context.p_basis, context.level_basis(level))
    conv = RNSPoly(
        context.level_basis(level), converter.convert(p_coeff.data), Domain.COEFF
    )
    # P3: NTT back.
    conv_eval = conv.to_eval()
    # P4: (q_part - conv) * P^-1 per tower.
    inv_scalars = [context.p_inv_mod_q[i] for i in range(num_q)]
    return (q_part - conv_eval).scale_by(inv_scalars)


def mod_up_all(context: CKKSContext, poly: RNSPoly, level: int) -> List[RNSPoly]:
    """ModUp P1-P3 for *every* digit in whole-array passes.

    Bit-identical to ``[mod_up_digit(context, poly, level, d) for d in
    range(dnum)]`` (per stack member): the digit bases partition the
    chain towers, so P1 is one INTT of the full ``(..., l+1, N)`` array,
    P2 runs one blocked BConv per digit, and P3 is a single NTT over the
    concatenation of every complement basis (the batched engine keys
    twiddles per row, so duplicated moduli across digits are fine).
    """
    if poly.domain is not Domain.EVAL:
        raise KeySwitchError("ModUp expects an EVAL-domain input")
    n = poly.n
    digit_groups = [
        np.asarray(indices, dtype=np.intp)
        for indices in context.digit_indices(level)
    ]
    # P1: one batched INTT covers every digit's towers at once.
    coeff = get_batch_ntt(n, poly.basis.moduli).inverse(poly.data)
    # P2: blocked BConv per digit into its complement basis.
    converted = []
    for digit, idx in enumerate(digit_groups):
        digit_basis = poly.basis.subbasis(idx)
        target = context.complement_basis(level, digit)
        converted.append(
            get_converter(digit_basis, target).convert(coeff[..., idx, :])
        )
    # P3: one stacked NTT across every digit's complement towers.
    stacked_moduli = tuple(
        m
        for digit in range(len(digit_groups))
        for m in context.complement_basis(level, digit).moduli
    )
    stacked = get_batch_ntt(n, stacked_moduli).forward(
        np.concatenate(converted, axis=-2)
    )
    # Reassemble each digit in extended-basis order (bypass + converted):
    # every tower index belongs to exactly one of the two groups, so two
    # fancy-indexed assignments fill the preallocated array completely.
    extended = context.extended_basis(level)
    shape = poly.data.shape[:-2] + (level + 1 + len(context.p_basis), n)
    out_polys: List[RNSPoly] = []
    row = 0
    for digit, idx in enumerate(digit_groups):
        complement = np.asarray(
            context.complement_indices(level, digit), dtype=np.intp
        )
        block = stacked[..., row : row + len(complement), :]
        row += len(complement)
        out = np.empty(shape, dtype=block.dtype)
        out[..., complement, :] = block
        out[..., idx, :] = poly.data[..., idx, :]
        out_polys.append(RNSPoly(extended, out, Domain.EVAL))
    return out_polys


def mod_down_pair(
    context: CKKSContext, a: RNSPoly, b: RNSPoly, level: int
) -> Tuple[RNSPoly, RNSPoly]:
    """ModDown of the ``(c0', c1')`` accumulator pair in shared passes.

    Bit-identical to ``(mod_down(a), mod_down(b))``: the two halves (of
    every stack member) go through one INTT / BConv / NTT as a
    ``(2, ..., towers, N)`` array.
    """
    num_q = level + 1
    num_p = len(context.p_basis)
    for half in (a, b):
        if half.domain is not Domain.EVAL:
            raise KeySwitchError("ModDown expects an EVAL-domain input")
        if half.num_towers != num_q + num_p:
            raise KeySwitchError(
                f"expected {num_q + num_p} towers, got {half.num_towers}"
            )
    n = a.n
    level_basis = context.level_basis(level)
    rows = np.stack([a.data, b.data])
    # P1: one INTT of every K auxiliary towers.
    p_coeff = get_batch_ntt(n, context.p_basis.moduli).inverse(
        rows[..., num_q:, :]
    )
    # P2: one blocked BConv P -> Q_l over both halves.
    conv = get_converter(context.p_basis, level_basis).convert(p_coeff)
    # P3: one NTT back.
    conv_eval = get_batch_ntt(n, level_basis.moduli).forward(conv)
    # P4: (q_part - conv) * P^-1, as q_part * P^-1 + conv * (-P^-1).
    q_col = level_basis.q_column
    inv_col = np.array(
        [context.p_inv_mod_q[i] for i in range(num_q)], dtype=np.int64
    )[:, None]
    out = mul_sum_mod(
        [rows[..., :num_q, :], conv_eval], [inv_col, q_col - inv_col], q_col
    )
    return (
        RNSPoly(level_basis, out[0], Domain.EVAL),
        RNSPoly(level_basis, out[1], Domain.EVAL),
    )


def key_switch(
    context: CKKSContext, poly: RNSPoly, key: KeySwitchKey, level: int
) -> Tuple[RNSPoly, RNSPoly]:
    """Full HKS of one polynomial (or stack): the ``(c0', c1')`` correction pair.

    For input ``c`` under source secret ``s_from`` (with ``key`` switching
    ``s_from -> s``), the outputs satisfy
    ``c0' + c1' * s ~= c * s_from (mod Q_l)`` up to key-switching noise.
    On a ``(B, L, N)`` stack every stage is one pass for all B members,
    bit-identical to the stack of per-member results.  The one-key case
    of :func:`key_switch_each`.
    """
    return key_switch_each(context, poly, [key], level)


def key_switch_each(
    context: CKKSContext, poly: RNSPoly, keys: Sequence[KeySwitchKey],
    level: int,
) -> Tuple[RNSPoly, RNSPoly]:
    """:func:`key_switch` of a stack whose consecutive member runs each
    have their own key (see :func:`apply_evks`): one ModUp, one ApplyKey
    per key and one ModDown for the whole stack, each member's pair
    bit-identical to its solo key switch."""
    digits = mod_up_all(context, poly, level)
    acc0, acc1 = apply_evks(context, digits, keys, level)
    return mod_down_pair(context, acc0, acc1, level)


# bench/tracing.py (frozen for this PR) resolves the three names below by
# attribute for --trace runs; that is the only reason they exist.  No
# library call path goes through them, so each kernel call still opens
# one span, not two.


def mod_up_all_batch(context, batch, level):
    return mod_up_all(context, batch, level)


def apply_evk_batch(context, extended_digits, key, level):
    return apply_evk(context, extended_digits, key, level)


def mod_down_pair_batch(context, a, b, level):
    return mod_down_pair(context, a, b, level)
