"""Tests for the fast (approximate) basis conversion kernel."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.ntt.primes import generate_primes
from repro.rns.basis import RNSBasis
from repro.rns.bconv import BasisConverter, get_converter

PRIMES = generate_primes(6, 64, 26)
SRC = RNSBasis(PRIMES[:3])
DST = RNSBasis(PRIMES[3:])


def centred(x, modulus):
    x %= modulus
    return x - modulus if x > modulus // 2 else x


def lift_holds(x, converted, src, dst):
    """conv(x) must equal x_c + u*Q_src (mod t), x_c the centred value of
    x mod Q_src and |u| <= (|src| + 1) // 2."""
    bound = (len(src) + 1) // 2
    for row, t in enumerate(dst.moduli):
        for k in range(len(x)):
            got = int(converted[row][k])
            x_c = centred(x[k], src.product)
            if not any(
                (x_c + u * src.product) % t == got
                for u in range(-bound, bound + 1)
            ):
                return False
    return True


def lift_slack(x, converted, src, dst):
    """The integer ``u`` of ``conv(x) = x_c + u*Q_src``, read off the
    first target tower (candidates differ by a multiple of ``Q_src`` too
    small to vanish mod ``t``, so at most one matches)."""
    bound = (len(src) + 1) // 2
    t = dst.moduli[0]
    x_c = centred(x, src.product)
    [u] = [u for u in range(-bound, bound + 1)
           if (x_c + u * src.product) % t == int(converted[0][0])]
    return u


class TestConvert:
    def test_lift_property_random(self):
        pyrng = random.Random(3)
        x = [pyrng.randrange(SRC.product) for _ in range(48)]
        out = BasisConverter(SRC, DST).convert(SRC.decompose(x))
        assert lift_holds(x, out, SRC, DST)

    def test_small_values_convert_exactly_or_with_q_slack(self):
        x = [0, 1, 2, 3]
        out = BasisConverter(SRC, DST).convert(SRC.decompose(x))
        assert lift_holds(x, out, SRC, DST)

    def test_zero_maps_to_zero(self):
        out = BasisConverter(SRC, DST).convert(SRC.decompose([0] * 8))
        assert int(np.abs(out).max()) == 0

    def test_single_source_tower_is_exact(self):
        src1 = RNSBasis(PRIMES[:1])
        x = [5, 17, src1.product - 1]
        out = BasisConverter(src1, DST).convert(src1.decompose(x))
        for row, t in enumerate(DST.moduli):
            for k, xv in enumerate(x):
                # hat = 1: an exact copy of the centred value
                assert int(out[row][k]) == centred(xv, src1.product) % t

    def test_shape_validation(self):
        conv = BasisConverter(SRC, DST)
        with pytest.raises(ParameterError):
            conv.convert(np.zeros((2, 8), dtype=np.int64))

    def test_overlapping_bases_rejected(self):
        with pytest.raises(ParameterError):
            BasisConverter(SRC, RNSBasis([PRIMES[0]]))

    def test_exact_value_bound(self):
        assert BasisConverter(SRC, DST).exact_value_bound() == 3


class TestCache:
    def test_get_converter_caches(self):
        a = get_converter(SRC, DST)
        b = get_converter(SRC, DST)
        assert a is b

    def test_cache_distinguishes_direction(self):
        a = get_converter(SRC, DST)
        b = get_converter(DST, SRC)
        assert a is not b


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=int(SRC.product) - 1))
def test_lift_slack_bounded_property(x):
    out = BasisConverter(SRC, DST).convert(SRC.decompose([x]))
    assert lift_holds([x], out, SRC, DST)


class TestUnbiasedLift:
    def test_mean_slack_is_zero_over_uniform_inputs(self):
        """The centred lift's slack ``u`` is symmetric around 0: over
        uniform ``x`` its mean is ~0 (a non-negative lift's is ~|B|/2)."""
        src = RNSBasis(PRIMES[:4])
        dst = RNSBasis(PRIMES[4:])
        pyrng = random.Random(7)
        xs = [pyrng.randrange(src.product) for _ in range(2000)]
        out = BasisConverter(src, dst).convert(src.decompose(xs))
        slacks = [lift_slack(x, out[:, k:k + 1], src, dst)
                  for k, x in enumerate(xs)]
        assert abs(sum(slacks) / len(slacks)) < 0.1
        assert min(slacks) < 0 < max(slacks)

    def test_negation_commutes_with_the_lift(self):
        """conv(-x) == -conv(x) exactly, the symmetry behind the zero
        mean."""
        conv = BasisConverter(SRC, DST)
        pyrng = random.Random(5)
        xs = [pyrng.randrange(SRC.product) for _ in range(64)]
        pos = conv.convert(SRC.decompose(xs))
        neg = conv.convert(SRC.decompose([-x % SRC.product for x in xs]))
        assert np.array_equal((pos + neg) % DST.q_column, 0 * pos)
