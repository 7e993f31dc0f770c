"""Polynomial evaluation on ciphertexts (Horner, power-basis and Chebyshev).

Evaluating activation-function approximations is the other big consumer
of ciphertext multiplications (and hence relinearization key switches) in
private inference.  Three evaluators are provided:

* :func:`evaluate_horner` — depth = degree, minimal ciphertext state;
* :func:`evaluate_power_basis` — precomputes ``x^2, x^4, ...`` and
  combines them (fewer levels for the same degree on shallow chains);
* :func:`evaluate_chebyshev` — Chebyshev-basis evaluation for
  numerically stable high degrees.  Monomial coefficients of a good
  ``sin`` approximation grow like ``2^degree`` and cancel catastrophically
  under CKKS's fixed-point encoding; Chebyshev terms stay bounded by 1 on
  the domain, which is what makes bootstrapping's EvalMod (degree ~60)
  possible at all.

All manage CKKS scales explicitly: every ciphertext-ciphertext or
ciphertext-plaintext product is followed by a rescale, and constants are
encoded at the running scale so additions stay aligned.

The Chebyshev ladder's work is independent within a generation: every
rung ``S_k`` of generation ``(k - 1).bit_length()`` reads only older
rungs.  So each generation's rungs of one level run as stacked groups
(:func:`repro.ckks.evaluator.concat_members`, at most
:data:`~repro.ckks.evaluator.MAX_STACK_MEMBERS` ciphertext members):
one multiply (one key switch), one ``add_plain`` or ``sub`` and one
rescale per group, and the combine multiplies and rescales the terms of
each level together.  Each rung keeps its own scale, computed with the
float operations of a rung built alone, so every result is
bit-identical to the one-rung-at-a-time ladder.
"""

from __future__ import annotations

from typing import Dict, List, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from repro.ckks.encoding import Encoder
from repro.ckks.encrypt import Ciphertext
from repro.ckks.evaluator import (
    Evaluator,
    concat_members,
    member_groups,
    split_members,
)
from repro.ckks.keys import KeySwitchKey
from repro.errors import ParameterError
from repro.rns.poly import RNSPoly

#: Per-encoder cache of constant plaintexts keyed by (value, level, scale).
#: Encoding broadcasts a value into every slot and runs a length-2N FFT —
#: a measurable hot-path cost when BSGS and EvalMod re-add the same
#: constants at the same (level, scale) thousands of times per bootstrap.
_CONSTANT_CACHE: "WeakKeyDictionary[Encoder, Dict[tuple, RNSPoly]]" = (
    WeakKeyDictionary()
)

_CONSTANT_CACHE_MAX = 4096


def _encode_constant(encoder: Encoder, value: complex, level: int,
                     scale: float) -> RNSPoly:
    per_encoder = _CONSTANT_CACHE.get(encoder)
    if per_encoder is None:
        per_encoder = {}
        _CONSTANT_CACHE[encoder] = per_encoder
    key = (complex(value), level, float(scale))
    pt = per_encoder.get(key)
    if pt is None:
        if len(per_encoder) >= _CONSTANT_CACHE_MAX:
            per_encoder.clear()
        pt = encoder.encode([value] * encoder.num_slots, level=level, scale=scale)
        per_encoder[key] = pt
    return pt


def _add_constant(evaluator: Evaluator, encoder: Encoder, ct: Ciphertext,
                  value: complex) -> Ciphertext:
    pt = _encode_constant(encoder, value, ct.level, ct.scale)
    return evaluator.add_plain(ct, pt, plain_scale=ct.scale)


def _mul_constant(evaluator: Evaluator, encoder: Encoder, ct: Ciphertext,
                  value: float) -> Ciphertext:
    pt = _encode_constant(encoder, value, ct.level, encoder.context.params.scale)
    return evaluator.rescale(evaluator.multiply_plain(ct, pt))


def required_depth_horner(degree: int) -> int:
    """Multiplicative levels Horner consumes for the given degree."""
    return max(degree - 0, 0)


def evaluate_horner(
    evaluator: Evaluator,
    encoder: Encoder,
    ct: Ciphertext,
    coefficients: Sequence[float],
    relin_key: KeySwitchKey,
) -> Ciphertext:
    """``p(x) = c_0 + c_1 x + ... + c_d x^d`` via Horner's rule.

    ``coefficients`` is low-order first.  Consumes ``degree`` levels
    (one ciphertext multiply + rescale per step).
    """
    coeffs = [float(c) for c in coefficients]
    if not coeffs:
        raise ParameterError("need at least one coefficient")
    degree = len(coeffs) - 1
    if degree == 0:
        zero = evaluator.sub(ct, ct)
        return _add_constant(evaluator, encoder, zero, coeffs[0])
    if ct.level < degree:
        raise ParameterError(
            f"degree {degree} needs {degree} levels; ciphertext has {ct.level}"
        )
    # acc = c_d * x  (+ c_{d-1}), then repeatedly acc = acc*x + c_k.
    acc = _mul_constant(evaluator, encoder, ct, coeffs[degree])
    acc = _add_constant(evaluator, encoder, acc, coeffs[degree - 1])
    for k in range(degree - 2, -1, -1):
        x_here = _drop_to_level(evaluator, ct, acc.level)
        acc = evaluator.rescale(evaluator.multiply(acc, x_here, relin_key))
        acc = _add_constant(evaluator, encoder, acc, coeffs[k])
    return acc


def evaluate_power_basis(
    evaluator: Evaluator,
    encoder: Encoder,
    ct: Ciphertext,
    coefficients: Sequence[float],
    relin_key: KeySwitchKey,
) -> Ciphertext:
    """Evaluate via precomputed powers ``x, x^2, x^3, ...``.

    Builds each power from the largest smaller power (depth
    ``ceil(log2 d)`` for the powers of two, same total multiplies as
    Horner but a shallower critical path).
    """
    coeffs = [float(c) for c in coefficients]
    degree = len(coeffs) - 1
    if degree < 1:
        raise ParameterError("power-basis evaluation needs degree >= 1")
    powers: Dict[int, Ciphertext] = {1: ct}
    for k in range(2, degree + 1):
        half = k // 2
        a = powers[half]
        b = powers[k - half]
        a, b = _mutual_align(evaluator, a, b)
        powers[k] = evaluator.rescale(evaluator.multiply(a, b, relin_key))
    # Combine: encode each coefficient at a corrective plaintext scale so
    # every term comes out at exactly the canonical scale Delta, then the
    # terms only need level alignment (an exact tower drop) to be summed.
    delta = evaluator.context.params.scale
    terms: List[Ciphertext] = []
    for k in range(1, degree + 1):
        if coeffs[k] == 0.0:
            continue
        power = powers[k]
        q_next = evaluator.context.q_basis.moduli[power.level]
        plain_scale = delta * q_next / power.scale
        pt = encoder.encode(
            [coeffs[k]] * encoder.num_slots, level=power.level, scale=plain_scale
        )
        term = evaluator.rescale(
            evaluator.multiply_plain(power, pt, plain_scale=plain_scale)
        )
        terms.append(term)
    if not terms:
        zero = evaluator.sub(ct, ct)
        return _add_constant(evaluator, encoder, zero, coeffs[0])
    deepest = min(t.level for t in terms)
    total = None
    for term in terms:
        term = _drop_to_level(evaluator, term, deepest)
        total = term if total is None else evaluator.add(total, term)
    return _add_constant(evaluator, encoder, total, coeffs[0])


# -- Chebyshev basis -----------------------------------------------------------


def chebyshev_ladder_order(coefficients: Sequence[complex]) -> List[int]:
    """Build order of the scaled-Chebyshev terms ``S_k = 2*T_k`` needed to
    evaluate the given coefficient vector (index = Chebyshev degree).

    The ladder builds ``S_k`` from ``S_ceil(k/2)`` and ``S_floor(k/2)`` via

        ``S_2m = S_m^2 - 2``   and   ``S_2m+1 = S_m+1 * S_m - S_1``

    so each term needs its two halves (and ``S_1`` when odd).  Returns the
    dependency closure of all non-zero coefficient indices ``>= 1`` in
    ascending order — every entry after ``S_1`` costs exactly one
    ciphertext multiply, so ``len(order) - 1`` is the relinearization-HKS
    count of the evaluation (the number the BOOT workload model needs).
    """
    needed = {k for k, c in enumerate(coefficients) if k >= 1 and c != 0}
    if not needed:
        return []
    work = set(needed)
    closure = set()
    while work:
        k = work.pop()
        if k in closure:
            continue
        closure.add(k)
        if k > 1:
            deps = {(k + 1) // 2, k // 2}
            if k % 2 == 1:
                deps.add(1)
            work.update(deps - closure)
    return sorted(closure)


def chebyshev_depth(coefficients: Sequence[complex]) -> int:
    """Multiplicative levels :func:`evaluate_chebyshev` consumes for
    ``coefficients`` when given a prescaled input (``S_1`` directly):
    ``ceil(log2 k_max)`` for the ladder plus one for the combine."""
    order = chebyshev_ladder_order(coefficients)
    if not order:
        return 0
    k_max = order[-1]
    return max(1, (k_max - 1).bit_length()) + 1


def _match_scales(evaluator: Evaluator, encoder: Encoder, ct: Ciphertext,
                  level: int, targets: Sequence[float]) -> List[Ciphertext]:
    """``ct`` brought to ``level`` and *exactly* each of ``targets``.

    Uses one plaintext multiply without a rescale (stacked over every
    target that needs one), so unlike :func:`_scale_correct` it costs no
    level — the caller's subsequent rescale absorbs it.  Only valid when
    the scale grows (``corr >= 1``).
    """
    ct = _drop_to_level(evaluator, ct, level)
    out: List[Ciphertext] = [ct] * len(targets)
    grow = []
    for i, target in enumerate(targets):
        corr = target / ct.scale
        if abs(corr - 1.0) < 1e-12:
            continue
        if corr < 1.0:
            raise ParameterError(
                f"cannot match scale {ct.scale:g} down to {target:g}"
            )
        grow.append((i, corr))
    if grow:
        # corr is deterministic per circuit position, so the constant
        # cache serves repeated bootstraps without re-encoding.
        items = [ct] * len(grow)
        pts = [_encode_constant(encoder, 1.0, level, corr) for _, corr in grow]
        prod = evaluator.multiply_plain(
            concat_members(items), _item_plaintexts(pts, items),
            plain_scale=grow[0][1],
        )
        # Each gets the exact float target: corr was rounded, and
        # additions tolerate at most 0.5 of absolute scale mismatch.
        for (i, _), matched in zip(grow, split_members(
                prod, items, [targets[i] for i, _ in grow])):
            out[i] = matched
    return out


def evaluate_chebyshev(
    evaluator: Evaluator,
    encoder: Encoder,
    ct: Ciphertext,
    coefficients: Sequence[complex],
    relin_key: KeySwitchKey,
    prescaled: bool = False,
) -> Ciphertext:
    """``p(x) = sum_k c_k T_k(x)`` for slot values ``x`` in ``[-1, 1]``.

    ``coefficients`` are Chebyshev-basis (index = degree; complex allowed —
    bootstrapping's imaginary branch folds ``i`` into them).  Internally
    the scaled basis ``S_k = 2*T_k`` is used: its recurrences are pure
    multiply-subtract, and the subtrahend is scale-matched *before* the
    rescale, so every ladder rung costs exactly one level regardless of
    the small scale drift real prime chains exhibit.

    With ``prescaled=True`` the input ciphertext must already hold
    ``2x`` (callers that normalize their input with a plaintext multiply
    anyway — EvalMod — fold the doubling in for free); otherwise one
    level is spent doubling.

    The one-row case of :func:`evaluate_chebyshev_rows`: every member of
    ``ct`` (one, for a plain ciphertext) uses the same coefficients.
    """
    return evaluate_chebyshev_rows(
        evaluator, encoder, ct, [coefficients], [ct.c0.batch_size],
        relin_key, prescaled=prescaled,
    )


def _stack_plaintexts(pts: Sequence[RNSPoly],
                      counts: Sequence[int]) -> RNSPoly:
    """Tile per-row plaintexts into a ``(sum(counts), L, N)`` stack (a
    single row stays as it is and broadcasts over any ciphertext).  A
    row may itself be a ``(counts[i], L, N)`` stack of one plaintext per
    member."""
    if len(pts) == 1:
        return pts[0]
    data = np.concatenate([
        np.broadcast_to(pt.data, (count,) + pt.data.shape[-2:])
        for pt, count in zip(pts, counts)
    ])
    return RNSPoly(pts[0].basis, data, pts[0].domain)


def _item_plaintexts(pts: Sequence[RNSPoly],
                     items: Sequence[Ciphertext]) -> RNSPoly:
    """One plaintext per item, tiled to match :func:`concat_members` of
    ``items``."""
    return _stack_plaintexts(pts, [ct.c0.batch_size for ct in items])


def evaluate_chebyshev_rows(
    evaluator: Evaluator,
    encoder: Encoder,
    ct: Ciphertext,
    coefficient_rows: Sequence[Sequence[complex]],
    row_counts: Sequence[int],
    relin_key: KeySwitchKey,
    prescaled: bool = False,
) -> Ciphertext:
    """Chebyshev evaluation over a ciphertext whose consecutive member
    groups use *different* coefficient vectors.

    ``ct`` holds ``sum(row_counts)`` members: the first
    ``row_counts[0]`` members are combined with ``coefficient_rows[0]``,
    the next group with row 1, and so on.  The ladder terms ``S_k``
    depend only on the input values, so one stacked ladder (over the
    union of the rows' non-zero indices) serves every row — only the
    final combine and the ``c_0`` addition use per-row plaintexts, tiled
    into a stack via :func:`_stack_plaintexts`.

    When the rows share a non-zero coefficient pattern (EvalMod's real
    and imaginary branches do: they differ by the exact factor ``1j``),
    each member's result is bit-identical to running
    :func:`evaluate_chebyshev` on it alone with its row's coefficients.
    Rows with *differing* patterns stay exact too — a zero coefficient
    encodes to an exactly-zero plaintext, contributing nothing — but
    their members come out mod-switched to the union ladder's combine
    depth rather than their solo depth.  Bootstrapping uses this to run
    EvalMod's real and imaginary branches through a single ladder —
    ``len(order) - 1`` ciphertext multiplies total instead of per
    branch.

    The ladder's rungs and the combine's terms run in stacked groups,
    one per generation, level and member bound (see the module
    docstring), bit-identical to building them one at a time.
    """
    rows = [[complex(c) for c in row] for row in coefficient_rows]
    if not rows or len(rows) != len(row_counts):
        raise ParameterError(
            "coefficient_rows and row_counts must pair up (and be non-empty)"
        )
    width = max(len(r) for r in rows)
    merged = [
        1.0 if any(k < len(r) and r[k] != 0 for r in rows) else 0.0
        for k in range(width)
    ]
    order = chebyshev_ladder_order(merged)

    def stacked_c0(total: Ciphertext) -> Ciphertext:
        c0s = [r[0] if r else 0.0 for r in rows]
        if all(c == 0 for c in c0s):
            return total
        pts = [
            _encode_constant(encoder, c, total.level, total.scale)
            for c in c0s
        ]
        pt = _stack_plaintexts(pts, row_counts)
        return evaluator.add_plain(total, pt, plain_scale=total.scale)

    if not order:
        return stacked_c0(evaluator.sub(ct, ct))

    # -- ladder (shared constants broadcast over the batch axis) ---------
    if prescaled:
        s1 = ct
    else:
        # S_1 = 2x via a scale-preserving constant multiply (one level).
        q_top = evaluator.context.q_basis.moduli[ct.level]
        pt = _encode_constant(encoder, 2.0, ct.level, float(q_top))
        s1 = evaluator.rescale(
            evaluator.multiply_plain(ct, pt, plain_scale=float(q_top))
        )
    terms: Dict[int, Ciphertext] = {1: s1}
    for generation in _ladder_generations(order):
        # All of a generation's inputs are older, so its products run as
        # stacked groups: one per level and member bound.
        by_level: Dict[int, List[int]] = {}
        for k in generation:
            level = min(terms[(k + 1) // 2].level, terms[k // 2].level)
            if level < 1:
                raise ParameterError(
                    f"chebyshev degree {order[-1]} exhausts the level budget"
                )
            by_level.setdefault(level, []).append(k)
        for level, ks in by_level.items():
            for run in member_groups([terms[k // 2] for k in ks]):
                group = [ks[i] for i in run]
                terms.update(zip(group, _ladder_rungs(
                    evaluator, encoder, terms, group, level, relin_key)))

    # -- combine: encode c_k/2 at a corrective scale so every term
    # rescales to exactly Delta (the power-basis trick), then align and
    # sum; per-row coefficient plaintexts are tiled over the batch.  The
    # terms of each level share one multiply_plain and one rescale ----
    delta = evaluator.context.params.scale
    by_level = {}
    for k in order:
        if any(k < len(r) and r[k] != 0 for r in rows):
            s_k = terms[k]
            if s_k.level < 1:
                raise ParameterError("chebyshev combine ran out of levels")
            by_level.setdefault(s_k.level, []).append(k)
    parts: List[Ciphertext] = []
    for level, ks in by_level.items():
        q_next = evaluator.context.q_basis.moduli[level]
        for run in member_groups([terms[k] for k in ks]):
            items = [terms[ks[i]] for i in run]
            scales = [delta * q_next / s_k.scale for s_k in items]
            pts = [
                _stack_plaintexts([
                    _encode_constant(encoder, (r[ks[i]] if ks[i] < len(r)
                                               else 0.0) / 2.0,
                                     level, plain_scale)
                    for r in rows
                ], row_counts)
                for i, plain_scale in zip(run, scales)
            ]
            part = evaluator.rescale(evaluator.multiply_plain(
                concat_members(items), _item_plaintexts(pts, items),
                plain_scale=scales[0],
            ))
            parts += split_members(part, items, [delta] * len(items))
    deepest = min(p.level for p in parts)
    total = None
    for part in parts:
        part = _drop_to_level(evaluator, part, deepest)
        total = part if total is None else evaluator.add(total, part)
    return stacked_c0(total)


def _ladder_generations(order: Sequence[int]) -> List[List[int]]:
    """The rungs ``k > 1`` of a ladder by generation
    ``(k - 1).bit_length()``: ``S_k``'s halves ``S_ceil(k/2)`` and
    ``S_floor(k/2)`` (and ``S_1``) all come from earlier generations."""
    generations: Dict[int, List[int]] = {}
    for k in order:
        if k > 1:
            generations.setdefault((k - 1).bit_length(), []).append(k)
    return [generations[g] for g in sorted(generations)]


def _ladder_rungs(evaluator: Evaluator, encoder: Encoder,
                  terms: Dict[int, Ciphertext], ks: Sequence[int],
                  level: int, relin_key: KeySwitchKey) -> List[Ciphertext]:
    """``S_k`` for every ``k`` of ``ks`` (rungs whose halves meet at
    ``level``) in stacked calls: one multiply, one ``add_plain`` for the
    even rungs, one ``multiply_plain`` and ``sub`` for the odd ones, and
    one rescale.  Each member's residues and scale are those of its own
    rung built alone."""
    a = [_drop_to_level(evaluator, terms[(k + 1) // 2], level) for k in ks]
    b = [_drop_to_level(evaluator, terms[k // 2], level) for k in ks]
    prod = evaluator.multiply(concat_members(a), concat_members(b), relin_key)
    prods = split_members(prod, a, [x.scale * y.scale for x, y in zip(a, b)])
    subs: List[Ciphertext] = list(prods)
    even = [i for i, k in enumerate(ks) if k % 2 == 0]
    odd = [i for i, k in enumerate(ks) if k % 2 == 1]
    if even:
        # S_2m = S_m^2 - 2: subtract the constant at the product scale.
        items = [prods[i] for i in even]
        pts = [_encode_constant(encoder, -2.0, level, p.scale) for p in items]
        out = evaluator.add_plain(concat_members(items),
                                  _item_plaintexts(pts, items))
        for i, item in zip(even, split_members(
                out, items, [p.scale for p in items])):
            subs[i] = item
    if odd:
        # S_2m+1 = S_m+1 * S_m - S_1, S_1 matched to each product's scale.
        items = [prods[i] for i in odd]
        matched = _match_scales(evaluator, encoder, terms[1], level,
                                [p.scale for p in items])
        out = evaluator.sub(concat_members(items), concat_members(matched))
        for i, item in zip(odd, split_members(
                out, items, [p.scale for p in items])):
            subs[i] = item
    out = evaluator.rescale(concat_members(subs))
    q_last = evaluator.context.q_basis.moduli[level]
    return split_members(out, subs, [x.scale / q_last for x in subs])


# -- level/scale alignment helpers ---------------------------------------------


def _drop_to_level(evaluator: Evaluator, ct: Ciphertext, level: int) -> Ciphertext:
    """Mod-switch down by dropping towers (exact, no rescale)."""
    if level >= ct.level:
        return ct
    return evaluator.mod_switch_to_level(ct, level)


def _scale_correct(evaluator: Evaluator, ct: Ciphertext,
                   target_scale: float) -> Ciphertext:
    """Multiply by 1 encoded at a corrective scale, then rescale.

    Brings ``ct`` to exactly ``target_scale`` at the cost of one level.
    """
    encoder = Encoder(evaluator.context)
    q_next = evaluator.context.q_basis.moduli[ct.level]
    corr = target_scale * q_next / ct.scale
    pt = encoder.encode([1.0] * encoder.num_slots, level=ct.level, scale=corr)
    bumped = Ciphertext(ct.c0 * pt, ct.c1 * pt, ct.level, ct.scale * corr)
    return evaluator.rescale(bumped)


def _mutual_align(evaluator: Evaluator, a: Ciphertext, b: Ciphertext):
    """Equalize levels and scales so the pair can be added or multiplied."""
    for _ in range(4):
        level = min(a.level, b.level)
        a = _drop_to_level(evaluator, a, level)
        b = _drop_to_level(evaluator, b, level)
        if abs(a.scale - b.scale) <= 0.5:
            return a, b
        if a.scale < b.scale:
            a = _scale_correct(evaluator, a, b.scale)
        else:
            b = _scale_correct(evaluator, b, a.scale)
    raise ParameterError("could not align ciphertext scales")
