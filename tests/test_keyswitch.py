"""Tests for the reference hybrid key-switching algorithm (paper Section III)."""

import numpy as np
import pytest

from repro.ckks.context import CKKSContext, CKKSParams
from repro.ckks.keys import KeyGenerator, sample_ternary
from repro.ckks.keyswitch import apply_evk, key_switch, mod_down, mod_up_digit
from repro.errors import KeySwitchError
from repro.rns.poly import Domain, RNSPoly


@pytest.fixture(scope="module")
def world(context):
    kg = KeyGenerator(context, seed=21)
    rng = np.random.default_rng(22)
    s_from = sample_ternary(context.params.n, rng)
    key = kg.switch_key(s_from)
    return kg, rng, s_from, key


def max_coeff(poly):
    ints = poly.basis.compose(poly.to_coeff().data)
    return max(abs(int(v)) for v in ints)


class TestModUp:
    def test_extended_shape(self, context, world):
        _, rng, _, _ = world
        level = context.params.max_level
        poly = RNSPoly.random_uniform(
            context.level_basis(level), context.params.n, rng
        )
        ext = mod_up_digit(context, poly, level, 0)
        assert ext.num_towers == level + 1 + len(context.p_basis)
        assert ext.basis == context.extended_basis(level)

    def test_bypass_towers_unchanged(self, context, world):
        _, rng, _, _ = world
        level = context.params.max_level
        poly = RNSPoly.random_uniform(
            context.level_basis(level), context.params.n, rng
        )
        for d in range(context.num_digits(level)):
            ext = mod_up_digit(context, poly, level, d)
            for t in context.digit_indices(level)[d]:
                assert np.array_equal(ext.data[t], poly.data[t])

    def test_lift_is_exact_up_to_q_slack(self, context, world):
        """Every extended tower must hold c_d + u*Q_d, with c_d centred
        and |u| <= (alpha + 1) // 2."""
        _, rng, _, _ = world
        level = 3
        poly = RNSPoly.random_uniform(
            context.level_basis(level), context.params.n, rng
        )
        d = 0
        indices = context.digit_indices(level)[d]
        ext = mod_up_digit(context, poly, level, d)
        digit_coeff = poly.select_towers(indices).to_coeff()
        values = digit_coeff.basis.compose(digit_coeff.data, centered=True)
        q_d = digit_coeff.basis.product
        ext_coeff = ext.to_coeff()
        bound = (len(indices) + 1) // 2
        for row, t in enumerate(ext.basis.moduli):
            for k in range(0, context.params.n, 17):  # sample coefficients
                got = int(ext_coeff.data[row][k])
                assert any(
                    (int(values[k]) + u * q_d) % t == got
                    for u in range(-bound, bound + 1)
                )

    def test_requires_eval_domain(self, context, world):
        _, rng, _, _ = world
        poly = RNSPoly.random_uniform(
            context.level_basis(2), context.params.n, rng, domain=Domain.COEFF
        )
        with pytest.raises(KeySwitchError):
            mod_up_digit(context, poly, 2, 0)


class TestModDown:
    def test_divides_by_p_exactly_for_multiples(self, context, world):
        """ModDown(P * x) must return x (up to the small conversion slack)."""
        _, rng, _, _ = world
        level = context.params.max_level
        n = context.params.n
        x_ints = rng.integers(-1000, 1000, n)
        p = context.p_basis.product
        scaled = RNSPoly.from_integers(
            context.extended_basis(level),
            [int(v) * p for v in x_ints],
            domain=Domain.EVAL,
        )
        result = mod_down(context, scaled, level)
        back = result.basis.compose(result.to_coeff().data)
        err = max(abs(int(b) - int(v)) for b, v in zip(back, x_ints))
        assert err <= len(context.p_basis)  # lift slack only

    def test_tower_count_validation(self, context, world):
        _, rng, _, _ = world
        poly = RNSPoly.random_uniform(
            context.level_basis(2), context.params.n, rng
        )
        with pytest.raises(KeySwitchError):
            mod_down(context, poly, 2)


class TestKeySwitch:
    @pytest.mark.parametrize("level", [0, 2, 5])
    def test_invariant_all_levels(self, context, world, level):
        """c0' + c1'*s ~= c*s_from with error far below Q."""
        kg, rng, s_from, key = world
        basis = context.level_basis(level)
        c = RNSPoly.random_uniform(basis, context.params.n, rng)
        c0, c1 = key_switch(context, c, key, level)
        s = kg.secret_key.poly(basis)
        src = RNSPoly.from_integers(basis, list(s_from), domain=Domain.EVAL)
        err = max_coeff(c0 + c1 * s - c * src)
        assert err.bit_length() < 20  # noise only; Q_0 alone is 2^28

    def test_output_domain_and_basis(self, context, world):
        _, rng, _, key = world
        level = 4
        c = RNSPoly.random_uniform(context.level_basis(level), context.params.n, rng)
        c0, c1 = key_switch(context, c, key, level)
        assert c0.domain is Domain.EVAL
        assert c0.basis == context.level_basis(level)
        assert c1.num_towers == level + 1

    def test_apply_evk_digit_count_mismatch(self, context, world):
        _, rng, _, key = world
        level = context.params.max_level
        c = RNSPoly.random_uniform(context.level_basis(level), context.params.n, rng)
        ext = [mod_up_digit(context, c, level, 0)]
        with pytest.raises(KeySwitchError):
            apply_evk(context, ext, key, level)

    def test_linearity_under_decryption(self, context, world):
        """key_switch(a + b) decrypts like key_switch(a) + key_switch(b).

        The individual output halves differ by masked terms involving the
        uniform ``a_d`` key halves; only the decryption combination
        ``c0 + c1*s`` is (noise-)linear in the input.
        """
        kg, rng, _, key = world
        level = 3
        basis = context.level_basis(level)
        a = RNSPoly.random_uniform(basis, context.params.n, rng)
        b = RNSPoly.random_uniform(basis, context.params.n, rng)
        a0, a1 = key_switch(context, a, key, level)
        b0, b1 = key_switch(context, b, key, level)
        s0, s1 = key_switch(context, a + b, key, level)
        s = kg.secret_key.poly(basis)
        residual = (s0 - a0 - b0) + (s1 - a1 - b1) * s
        assert max_coeff(residual).bit_length() < 22


class TestDifferentShapes:
    # num_aux must be >= alpha = num_levels/dnum: hybrid KS needs P >= Q_d
    # to absorb the digit magnitude (why Table III pairs kp with alpha).
    @pytest.mark.parametrize("dnum,num_levels,num_aux", [(1, 4, 4), (2, 4, 2), (4, 4, 1)])
    def test_key_switch_across_decompositions(self, dnum, num_levels, num_aux):
        params = CKKSParams(
            n=64, num_levels=num_levels, num_aux=num_aux, dnum=dnum,
            q_bits=28, p_bits=29, scale_bits=24,
        )
        ctx = CKKSContext(params)
        kg = KeyGenerator(ctx, seed=5)
        rng = np.random.default_rng(6)
        s_from = sample_ternary(params.n, rng)
        key = kg.switch_key(s_from)
        level = params.max_level
        basis = ctx.level_basis(level)
        c = RNSPoly.random_uniform(basis, params.n, rng)
        c0, c1 = key_switch(ctx, c, key, level)
        s = kg.secret_key.poly(basis)
        src = RNSPoly.from_integers(basis, list(s_from), domain=Domain.EVAL)
        err = max_coeff(c0 + c1 * s - c * src)
        assert err.bit_length() < 20
