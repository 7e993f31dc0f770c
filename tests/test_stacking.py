"""Stacked independent work: one evaluator call for a group of items.

The Chebyshev ladder runs each generation's products as stacked groups,
BSGS rotates its giant rows through one :meth:`Evaluator.rotate_each`,
and hoisting runs one ApplyKey over every step.  Every comparison here
is exact: a grouped result must carry the same residues, level and
scale as the item computed on its own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.batch import stack_ciphertexts
from repro.ckks.encrypt import Ciphertext
from repro.ckks.evaluator import (
    MAX_STACK_MEMBERS,
    concat_members,
    member_groups,
    split_members,
)
from repro.ckks.keyswitch import apply_evk, apply_evks, mod_up_all
from repro.ckks.polyeval import chebyshev_ladder_order, evaluate_chebyshev_rows
from repro.errors import ParameterError
from repro.rns.poly import RNSPoly

# -- a sequential reference ladder ---------------------------------------------


def _tile(pts, counts):
    if len(pts) == 1:
        return pts[0]
    data = np.concatenate([
        np.broadcast_to(pt.data, (count,) + pt.data.shape)
        for pt, count in zip(pts, counts)
    ])
    return RNSPoly(pts[0].basis, data, pts[0].domain)


def _drop(evaluator, ct, level):
    return ct if level >= ct.level else evaluator.mod_switch_to_level(ct, level)


def _const(encoder, value, level, scale):
    return encoder.encode([value] * encoder.num_slots, level=level,
                          scale=scale)


def reference_chebyshev_rows(evaluator, encoder, ct, rows, counts, relin_key,
                             prescaled):
    """The ladder one rung and one combine term at a time, as it ran
    before its independent work was grouped."""
    rows = [[complex(c) for c in row] for row in rows]
    width = max(len(r) for r in rows)
    merged = [1.0 if any(k < len(r) and r[k] != 0 for r in rows) else 0.0
              for k in range(width)]
    order = chebyshev_ladder_order(merged)

    def add_c0(total):
        c0s = [r[0] if r else 0.0 for r in rows]
        if all(c == 0 for c in c0s):
            return total
        pts = [_const(encoder, c, total.level, total.scale) for c in c0s]
        return evaluator.add_plain(total, _tile(pts, counts),
                                   plain_scale=total.scale)

    if not order:
        return add_c0(evaluator.sub(ct, ct))
    if prescaled:
        s1 = ct
    else:
        q_top = float(evaluator.context.q_basis.moduli[ct.level])
        s1 = evaluator.rescale(evaluator.multiply_plain(
            ct, _const(encoder, 2.0, ct.level, q_top), plain_scale=q_top))
    terms = {1: s1}
    for k in order[1:]:
        a, b = terms[(k + 1) // 2], terms[k // 2]
        level = min(a.level, b.level)
        prod = evaluator.multiply(_drop(evaluator, a, level),
                                  _drop(evaluator, b, level), relin_key)
        if k % 2 == 0:
            sub = evaluator.add_plain(
                prod, _const(encoder, -2.0, level, prod.scale))
        else:
            s1_here = _drop(evaluator, s1, level)
            corr = prod.scale / s1_here.scale
            out = evaluator.multiply_plain(
                s1_here, _const(encoder, 1.0, level, corr), plain_scale=corr)
            sub = evaluator.sub(
                prod, Ciphertext(out.c0, out.c1, level, prod.scale))
        terms[k] = evaluator.rescale(sub)
    delta = evaluator.context.params.scale
    total = None
    parts = []
    for k in order:
        coeffs = [r[k] if k < len(r) else 0.0 for r in rows]
        if all(c == 0 for c in coeffs):
            continue
        s_k = terms[k]
        q_next = evaluator.context.q_basis.moduli[s_k.level]
        plain_scale = delta * q_next / s_k.scale
        pts = [_const(encoder, c / 2.0, s_k.level, plain_scale)
               for c in coeffs]
        part = evaluator.rescale(evaluator.multiply_plain(
            s_k, _tile(pts, counts), plain_scale=plain_scale))
        parts.append(Ciphertext(part.c0, part.c1, part.level, delta))
    deepest = min(p.level for p in parts)
    for part in parts:
        part = _drop(evaluator, part, deepest)
        total = part if total is None else evaluator.add(total, part)
    return add_c0(total)


def assert_same(got, want):
    assert got.level == want.level
    assert got.scale == want.scale
    assert np.array_equal(got.c0.data, want.c0.data)
    assert np.array_equal(got.c1.data, want.c1.data)


@pytest.fixture(scope="module")
def stacks(encoder, encryptor):
    """A plain ciphertext and a B=3 stack, values in [-1, 1]."""
    rng = np.random.default_rng(17)
    cts = [encryptor.encrypt(encoder.encode(
        rng.uniform(-0.9, 0.9, encoder.num_slots))) for _ in range(3)]
    return {1: cts[0], 3: stack_ciphertexts(cts)}


_coefficient = st.one_of(
    st.just(0.0), st.floats(-1.0, 1.0, allow_nan=False, width=32))


class TestGroupedChebyshev:
    @settings(max_examples=12, deadline=None)
    @given(
        data=st.data(),
        degree=st.integers(1, 8),
        two_rows=st.booleans(),
        batch=st.sampled_from([1, 3]),
        prescaled=st.booleans(),
    )
    def test_bit_identical_to_sequential_ladder(
        self, evaluator, encoder, relin_key, stacks, data, degree, two_rows,
        batch, prescaled,
    ):
        if not prescaled:
            degree = min(degree, 4)  # the doubling spends one of 5 levels
        pattern = st.lists(_coefficient, min_size=degree + 1,
                           max_size=degree + 1)
        rows = [data.draw(pattern)]
        counts = [batch]
        if two_rows and batch == 3:
            rows.append(data.draw(pattern))
            counts = [1, 2]
        ct = stacks[batch]
        got = evaluate_chebyshev_rows(evaluator, encoder, ct, rows, counts,
                                      relin_key, prescaled=prescaled)
        want = reference_chebyshev_rows(evaluator, encoder, ct, rows, counts,
                                        relin_key, prescaled)
        assert_same(got, want)


# -- rotate_each ------------------------------------------------------------------


@pytest.fixture(scope="module")
def rotation_keys(keygen):
    return {s: keygen.rotation_key(s) for s in (1, 2, 5, -1)}


class TestRotateEach:
    STEPS = [1, 0, 2, -1, 5]

    @pytest.mark.parametrize("batch", [1, 3])
    def test_equals_one_rotate_per_item(self, evaluator, stacks,
                                        rotation_keys, batch):
        ct = stacks[batch]
        items = [evaluator.add(ct, ct) if i % 2 else ct
                 for i in range(len(self.STEPS))]
        keys = [rotation_keys.get(s) for s in self.STEPS]
        got = evaluator.rotate_each(items, self.STEPS, keys)
        for item, step, key, out in zip(items, self.STEPS, keys, got):
            assert_same(out, evaluator.rotate(item, step, key))

    def test_level_mismatch_rejected(self, evaluator, stacks, rotation_keys):
        low = evaluator.mod_switch_to_level(stacks[1], 2)
        with pytest.raises(ParameterError, match="level"):
            evaluator.rotate_each([stacks[1], low], [1, 2],
                                  [rotation_keys[1], rotation_keys[2]])


class TestApplyEvks:
    def test_per_member_keys_equal_solo_apply_evk(self, context, stacks,
                                                  rotation_keys):
        ct = stacks[3]
        level = ct.level
        keys = [rotation_keys[1], rotation_keys[2], rotation_keys[5]]
        digits = mod_up_all(context, ct.c1, level)
        b_sum, a_sum = apply_evks(context, digits, keys, level)
        for m, key in enumerate(keys):
            solo = [RNSPoly(d.basis, d.data[m], d.domain) for d in digits]
            b_ref, a_ref = apply_evk(context, solo, key, level)
            assert np.array_equal(b_sum.data[m], b_ref.data)
            assert np.array_equal(a_sum.data[m], a_ref.data)

    def test_every_key_run_goes_through_apply_evk(self, evaluator, stacks,
                                                  rotation_keys, monkeypatch):
        # Wrappers of keyswitch.apply_evk (the benchmark tracer's) see
        # each key's ApplyKey, stacked or not.
        import repro.ckks.keyswitch as keyswitch

        seen = []

        def counted(context, digits, key, level):
            seen.append(key)
            return apply_evk(context, digits, key, level)

        monkeypatch.setattr(keyswitch, "apply_evk", counted)
        keys = [rotation_keys[1], rotation_keys[2], rotation_keys[5]]
        evaluator.rotate_each([stacks[1]] * 3, [1, 2, 5], keys)
        assert seen == keys
        seen.clear()
        evaluator.hoisted_rotations(stacks[1], dict(zip([1, 2, 5], keys)))
        assert seen == keys


class TestKeyTables:
    def test_top_level_restriction_is_a_view(self, context, relin_key):
        b, a = relin_key.tables(context, context.params.max_level)
        assert np.shares_memory(b, relin_key.b)
        assert np.shares_memory(a, relin_key.a)

    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_lower_level_equals_restricted(self, context, relin_key, level):
        b, a = relin_key.tables(context, level)
        pairs = relin_key.restricted(context, level)
        assert np.array_equal(b, np.stack([p.data for p, _ in pairs]))
        assert np.array_equal(a, np.stack([q.data for _, q in pairs]))


# -- grouping helpers ------------------------------------------------------------


class TestGrouping:
    def test_groups_take_whole_items_within_the_bound(self, stacks):
        items = [stacks[3]] * 5 + [stacks[1]] * 3
        runs = member_groups(items)
        assert [list(r) for r in runs] == [[0, 1], [2, 3], [4, 5, 6, 7]]
        for run in runs:
            assert sum(items[i].c0.batch_size for i in run) \
                <= MAX_STACK_MEMBERS

    def test_oversized_item_runs_alone(self, stacks):
        assert [list(r) for r in member_groups([stacks[3]] * 2, limit=2)] \
            == [[0], [1]]

    def test_concat_split_roundtrip_keeps_shapes_and_scales(self, stacks):
        items = [stacks[1], stacks[3], stacks[1]]
        joined = concat_members(items)
        assert joined.c0.data.shape[0] == 5
        back = split_members(joined, items, [1.0, 2.0, 3.0])
        for item, out, scale in zip(items, back, [1.0, 2.0, 3.0]):
            assert out.scale == scale
            assert np.array_equal(out.c0.data, item.c0.data)
            assert np.array_equal(out.c1.data, item.c1.data)
