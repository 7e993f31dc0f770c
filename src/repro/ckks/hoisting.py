"""Hoisted rotations: amortize ModUp across many rotations of one input.

The dominant cost of a rotation's key switch is ModUp (P1 INTT + P2 BConv
+ P3 NTT of every digit).  Because the Galois automorphism permutes
coefficients *within* each tower (negating those that wrap around) and
basis conversion acts on each coefficient independently, with the
centred lift mapping ``-x`` to exactly ``-conv(x)``, ModUp commutes with
the automorphism exactly:

    ModUp(kappa_g(c1)) == kappa_g(ModUp(c1))

so a batch of rotations {r_1..r_k} of the same ciphertext can share one
ModUp: extend ``c1`` once and permute the extended digits per rotation.
The permuted digits of every rotation then stack into one ApplyKey, each
rotation's members meeting that rotation's evk, and one ModDown (in
groups of at most :data:`~repro.ckks.evaluator.MAX_STACK_MEMBERS`
members).  Hoisted outputs are bit-identical to unhoisted ones (the
tests check it).  This is the Halevi-Shoup hoisting
used by BTS/ARK-class accelerators and CKKS bootstrapping, and it stacks
with the paper's dataflow optimizations (fewer ModUps means the OC
residency argument applies to an even more memory-bound remainder).
"""

from __future__ import annotations

from typing import Dict, List

from repro.ckks.context import CKKSContext
from repro.ckks.encrypt import Ciphertext
from repro.ckks.evaluator import concat_polys, member_groups, split_members
from repro.ckks.keys import KeySwitchKey, rotation_galois_element
from repro.ckks.keyswitch import apply_evks, mod_down_pair, mod_up_all
from repro.core.stages import bconv_tower_ops, ntt_tower_ops
from repro.errors import KeySwitchError
from repro.params import BenchmarkSpec
from repro.rns.poly import RNSPoly, automorphism_stacked


def hoisted_rotations(
    context: CKKSContext,
    ct: Ciphertext,
    galois_keys: Dict[int, KeySwitchKey],
) -> Dict[int, Ciphertext]:
    """Rotate ``ct`` by every step in ``galois_keys`` with one shared ModUp.

    ``galois_keys`` maps rotation steps to their switching keys.  Returns
    a ciphertext per step, each bit-identical to the unhoisted
    ``Evaluator.rotate`` result.  A ciphertext whose halves are
    ``(B, L, N)`` stacks shares the one ModUp across all B members too.
    """
    if not galois_keys:
        raise KeySwitchError("hoisted_rotations needs at least one rotation")
    level = ct.level
    n = context.params.n
    # The shared, expensive part: ModUp of c1 (all digits, whole-array).
    extended: List[RNSPoly] = mod_up_all(context, ct.c1, level)
    steps = list(galois_keys)
    results: Dict[int, Ciphertext] = {}
    for run in member_groups([ct] * len(steps)):
        group = [steps[i] for i in run]
        rot_c0s, digits = [], []
        for step in group:
            g = rotation_galois_element(step, n)
            # One stacked pass permutes c0 and every extended digit together.
            rot_c0, *rotated_digits = automorphism_stacked([ct.c0, *extended], g)
            rot_c0s.append(rot_c0)
            digits.append(rotated_digits)
        acc0, acc1 = apply_evks(
            context, [concat_polys(per_digit) for per_digit in zip(*digits)],
            [galois_keys[step] for step in group], level,
        )
        ks0, ks1 = mod_down_pair(context, acc0, acc1, level)
        rotated = Ciphertext(concat_polys(rot_c0s) + ks0, ks1, level, ct.scale)
        items = [ct] * len(group)
        for step, out in zip(group, split_members(
                rotated, items, [ct.scale] * len(group))):
            results[step] = out
    return results


def power_of_two_steps(steps: int, num_slots: int) -> List[int]:
    """Decompose a rotation into power-of-two steps (binary expansion).

    A full rotation-key set needs one key per distinct step; with this
    decomposition ``log2(num_slots)`` keys cover every rotation amount at
    the cost of up to ``log2`` key switches per rotation — the classic
    key-storage/latency trade accelerators make.
    """
    steps %= num_slots
    out: List[int] = []
    bit = 1
    while steps:
        if steps & 1:
            out.append(bit)
        steps >>= 1
        bit <<= 1
    return out


def rotate_arbitrary(
    evaluator,
    ct: Ciphertext,
    steps: int,
    pow2_keys: Dict[int, KeySwitchKey],
) -> Ciphertext:
    """Rotate by any amount using only power-of-two rotation keys."""
    num_slots = evaluator.context.params.n // 2
    parts = power_of_two_steps(steps, num_slots)
    missing = [p for p in parts if p not in pow2_keys]
    if missing:
        raise KeySwitchError(f"missing power-of-two rotation keys: {missing}")
    out = ct
    for part in parts:
        out = evaluator.rotate(out, part, pow2_keys[part])
    return out


def hoisting_savings(spec: BenchmarkSpec, num_rotations: int) -> Dict[str, object]:
    """Analytical modular-op savings of hoisting ``num_rotations`` rotations.

    Without hoisting every rotation pays the full ModUp P1-P3; with
    hoisting that cost is paid once.  (ApplyKey, Reduce and ModDown are
    per-rotation either way.)
    """
    if num_rotations < 1:
        raise KeySwitchError("need at least one rotation")
    n = spec.n
    modup = spec.kl * ntt_tower_ops(n)  # P1
    for d in range(spec.dnum):
        modup = modup + spec.beta(d) * bconv_tower_ops(n, spec.digit_sizes[d])
        modup = modup + spec.beta(d) * ntt_tower_ops(n)  # P3
    saved = (num_rotations - 1) * modup.total
    from repro.core.stages import HKSShape

    full = HKSShape(spec).total_ops().total * num_rotations
    return {
        "benchmark": spec.name,
        "rotations": num_rotations,
        "modup_ops": modup.total,
        "saved_ops": saved,
        "unhoisted_ops": full,
        "savings_fraction": saved / full,
    }
