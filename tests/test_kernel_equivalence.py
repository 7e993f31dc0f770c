"""Bit-exactness of the batched kernel engine against the scalar references.

Every batched kernel introduced by the whole-matrix engine — stacked
negacyclic NTT, blocked-matmul BConv, limb-matrix CRT compose/decompose —
retains its original per-tower / per-coefficient implementation as a
reference path.  These property tests assert *exact* integer equality
between the two across random ``(L, N, q)`` draws; there are no
tolerance-based comparisons anywhere in this file.

Also covered: the cross-process disk cache (corrupted-file and
stale-version recovery, atomicity of what readers observe) and the
second-process warm start guarantee that a populated ``REPRO_CACHE_DIR``
rebuilds no twiddle table.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache
from repro.errors import ParameterError
from repro.ntt import transform
from repro.ntt.batch import _MAX_ROWS as MAX_ROWS, BatchNTT, get_batch_ntt
from repro.ntt.modmath import (
    MAX_MODULUS_BITS,
    add_mod,
    mul_mod,
    neg_mod,
    sub_mod,
)
from repro.ntt.primes import generate_primes
from repro.ntt.transform import NTTContext
from repro.rns.basis import RNSBasis
from repro.rns.bconv import BasisConverter
from repro.rns.crt import get_engine, int_to_limbs, limbs_to_int
from repro.rns.poly import Domain, RNSPoly

REPO_ROOT = Path(__file__).resolve().parent.parent


# -- strategies ----------------------------------------------------------------

ntt_worlds = st.tuples(
    # N: 1, 2, 4 are the degenerate factorisations; odd log2(N) makes the
    # row and column transforms differ in size (n1 = 2 * n2).
    st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]),
    # One modulus width per row, so one engine mixes 26/28/29/30-bit rows.
    st.lists(st.sampled_from([20, 24, 26, 28, 29, 30]), min_size=1, max_size=8),
    # Which rows repeat an earlier row's modulus (as mod_up_all's stacked
    # complement basis does); row i takes the prime of row picks[i] % (i+1).
    st.lists(st.integers(min_value=0, max_value=7), min_size=8, max_size=8),
    st.lists(st.integers(min_value=1, max_value=3), max_size=2),  # lead axes
    st.sampled_from(["contiguous", "strided", "readonly"]),
    st.integers(min_value=0, max_value=2**31),   # data seed
)


def _primes_for(n: int, count: int, bits: int):
    usable_bits = max(bits, (2 * n).bit_length() + 2)
    return generate_primes(count, n, min(usable_bits, 30))


def _draw_stack(world):
    """``(n, moduli, array)`` of a drawn world: an ``(..., L, N)`` int64
    stack of canonical residues in the drawn memory layout."""
    n, widths, picks, lead, layout, seed = world
    pools = {
        bits: iter(_primes_for(n, widths.count(bits), bits))
        for bits in set(widths)
    }
    moduli = []
    for i, bits in enumerate(widths):
        fresh = next(pools[bits])
        source = picks[i] % (i + 1)
        moduli.append(fresh if source == i else moduli[source])
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (n,)
    arr = np.stack(
        [rng.integers(0, q, shape, dtype=np.int64) for q in moduli], axis=-2
    )
    if layout == "strided":
        # Every other element of a buffer twice as long: no axis is
        # contiguous, so the engine's reshape cannot be a plain view.
        wide = np.zeros(arr.shape[:-1] + (2 * n,), dtype=np.int64)
        wide[..., ::2] = arr
        arr = wide[..., ::2]
    elif layout == "readonly":
        arr.flags.writeable = False
    return n, tuple(moduli), arr


def _scalar_rows(arr, n, moduli, direction):
    """The per-tower oracle: ``NTTContext`` looped over rows and members."""
    out = np.empty(arr.shape, dtype=np.int64)
    for i, q in enumerate(moduli):
        transform_row = getattr(transform.get_ntt_context(n, q), direction)
        rows = np.ascontiguousarray(arr[..., i, :]).reshape(-1, n)
        out[..., i, :] = transform_row(rows).reshape(arr.shape[:-2] + (n,))
    return out


# -- batched NTT vs per-tower scalar loop --------------------------------------


class TestBatchedNTT:
    @settings(max_examples=60, deadline=None)
    @given(ntt_worlds)
    def test_forward_matches_scalar_rows(self, world):
        n, moduli, arr = _draw_stack(world)
        batched = get_batch_ntt(n, moduli).forward(arr)
        assert np.array_equal(batched, _scalar_rows(arr, n, moduli, "forward"))

    @settings(max_examples=60, deadline=None)
    @given(ntt_worlds)
    def test_inverse_matches_scalar_rows(self, world):
        n, moduli, arr = _draw_stack(world)
        batched = get_batch_ntt(n, moduli).inverse(arr)
        assert np.array_equal(batched, _scalar_rows(arr, n, moduli, "inverse"))

    def test_roundtrip_and_input_preserved(self):
        n = 128
        moduli = _primes_for(n, 5, 26)
        eng = get_batch_ntt(n, tuple(moduli))
        rng = np.random.default_rng(3)
        mat = np.stack([rng.integers(0, q, n, dtype=np.int64) for q in moduli])
        backup = mat.copy()
        fwd = eng.forward(mat)
        assert np.array_equal(mat, backup), "forward must not mutate its input"
        out = eng.inverse(fwd)
        assert np.array_equal(fwd, eng.forward(mat)), "inverse must not mutate"
        assert np.array_equal(out, mat)

    def test_output_buffers_are_caller_owned(self):
        """Two consecutive transforms must not alias each other's output."""
        n = 64
        moduli = _primes_for(n, 3, 22)
        eng = get_batch_ntt(n, tuple(moduli))
        rng = np.random.default_rng(4)
        a = np.stack([rng.integers(0, q, n, dtype=np.int64) for q in moduli])
        b = np.stack([rng.integers(0, q, n, dtype=np.int64) for q in moduli])
        fa = eng.forward(a)
        snapshot = fa.copy()
        eng.forward(b)
        assert np.array_equal(fa, snapshot)

    def test_duplicate_moduli_rows_independent(self):
        n = 64
        q = _primes_for(n, 1, 24)[0]
        eng = BatchNTT(n, (q, q))
        rng = np.random.default_rng(5)
        mat = rng.integers(0, q, (2, n), dtype=np.int64)
        out = eng.forward(mat)
        ctx = NTTContext(n, q)
        assert np.array_equal(out[0], ctx.forward(mat[0]))
        assert np.array_equal(out[1], ctx.forward(mat[1]))

    def test_shape_mismatch_rejected(self):
        n = 64
        moduli = _primes_for(n, 2, 22)
        eng = get_batch_ntt(n, tuple(moduli))
        with pytest.raises(ParameterError):
            eng.forward(np.zeros((2, n + 1), dtype=np.int64))

    def test_worst_case_inputs_exact_at_largest_ring(self):
        """The float64 products are exact only while every limb partial
        sum stays below 2**53.  Drive them to the bound: the widest
        moduli, the largest supported row count (n1 = n2 = 256), and
        inputs that make every term of a sum as large as it can be."""
        n = MAX_ROWS * MAX_ROWS
        moduli = tuple(generate_primes(2, n, MAX_MODULUS_BITS))
        eng = BatchNTT(n, moduli)
        top = np.array(moduli, dtype=np.int64)[:, None] - 1
        comb = np.arange(n, dtype=np.int64) % 2
        rng = np.random.default_rng(7)
        stack = np.stack([
            np.broadcast_to(top, (2, n)),          # all q-1
            top * comb,                            # 0, q-1, 0, q-1, ...
            top * (1 - comb),                      # q-1, 0, q-1, 0, ...
            top - rng.integers(0, 1000, (2, n)),   # just below q, at random
        ])
        for direction in ("forward", "inverse"):
            got = getattr(eng, direction)(stack)
            assert np.array_equal(
                got, _scalar_rows(stack, n, moduli, direction)
            ), direction

    def test_ring_beyond_exactness_bound_rejected(self):
        """N = 2**17 would need 512-term limb sums (up to 2**54)."""
        n = 2 * MAX_ROWS * MAX_ROWS
        with pytest.raises(ParameterError, match=r"2\*\*53"):
            BatchNTT(n, (generate_primes(1, n, MAX_MODULUS_BITS)[0],))


# -- chunked float-reduced multiply-accumulate vs int64 ``%`` --------------------


class TestMulSumMod:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([64, 1024, 4096]),
        st.lists(st.sampled_from([20, 26, 29, 30]), min_size=1, max_size=4),
        st.lists(st.integers(min_value=1, max_value=9), max_size=2),
        st.integers(min_value=1, max_value=5),       # terms in the sum
        st.booleans(),                               # (L, N) tables or (L, 1) columns
        st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_modulo_oracle(self, n, widths, lead, terms, tables, seed):
        from repro.ntt.modmath import mul_sum_mod

        moduli = [
            q for bits in sorted(set(widths))
            for q in _primes_for(n, widths.count(bits), bits)
        ]
        q = np.array(moduli, dtype=np.int64)[:, None]
        rng = np.random.default_rng(seed)
        shape = tuple(lead) + (len(moduli), n)
        # Residues drawn from the top of the range: products near q**2.
        xs = [q - 1 - rng.integers(0, 3, shape) for _ in range(terms)]
        ys = [
            q - 1 - rng.integers(0, 3, (len(moduli), n if tables else 1))
            for _ in range(terms)
        ]
        xs[0] = xs[0][..., ::-1].copy()[..., ::-1]   # one strided operand
        want = sum(x * y % q for x, y in zip(xs, ys)) % q
        assert np.array_equal(mul_sum_mod(xs, ys, q), want)

    def test_signed_reduction_stays_below_q(self):
        from repro.ntt.modmath import reduce_signed

        q = np.array(generate_primes(3, 64, MAX_MODULUS_BITS), dtype=np.int64)[:, None]
        rng = np.random.default_rng(8)
        prod = rng.integers(-(q - 1) ** 2, (q - 1) ** 2, (3, 4096))
        want = prod % q
        reduce_signed(prod, q, 1.0 / q, np.empty(prod.shape),
                      np.empty(prod.shape, dtype=np.int64))
        assert np.all(np.abs(prod) < q)
        assert np.array_equal(prod % q, want)


# -- blocked BConv vs running-reduction loop -----------------------------------


class TestBlockedBConv:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([20, 26, 29]),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_convert_matches_reference(self, src_towers, dst_towers, bits, seed):
        primes = _primes_for(64, src_towers + dst_towers, bits)
        src = RNSBasis(primes[:src_towers])
        dst = RNSBasis(primes[src_towers:])
        conv = BasisConverter(src, dst)
        rng = np.random.default_rng(seed)
        residues = np.stack(
            [rng.integers(0, q, 48, dtype=np.int64) for q in src.moduli]
        )
        assert np.array_equal(
            conv.convert(residues), conv.convert_reference(residues)
        )

    def test_chunk_boundary_is_exact_at_max_width(self):
        """Full-width 29/30-bit moduli force the smallest chunk size."""
        primes = _primes_for(64, 12, 29)
        src = RNSBasis(primes[:9])
        dst = RNSBasis(primes[9:])
        conv = BasisConverter(src, dst)
        rng = np.random.default_rng(11)
        worst = np.stack([np.full(32, q - 1, dtype=np.int64) for q in src.moduli])
        rand = np.stack([rng.integers(0, q, 32, dtype=np.int64) for q in src.moduli])
        for residues in (worst, rand):
            assert np.array_equal(
                conv.convert(residues), conv.convert_reference(residues)
            )


# -- limb-matrix CRT vs python-bigint reference --------------------------------


crt_worlds = st.tuples(
    st.integers(min_value=1, max_value=8),       # L
    st.sampled_from([20, 26, 29]),               # bits
    st.integers(min_value=0, max_value=2**31),   # seed
)


class TestVectorizedCRT:
    @settings(max_examples=25, deadline=None)
    @given(crt_worlds)
    def test_compose_matches_reference(self, world):
        towers, bits, seed = world
        basis = RNSBasis(_primes_for(64, towers, bits))
        rng = np.random.default_rng(seed)
        residues = np.stack(
            [rng.integers(0, q, 24, dtype=np.int64) for q in basis.moduli]
        )
        for centered in (True, False):
            got = basis.compose(residues, centered=centered)
            ref = basis.compose_reference(residues, centered=centered)
            assert list(got) == list(ref)

    def test_compose_boundary_values(self):
        """Values next to 0, Q/2 and Q — where centering and the
        float64 overshoot estimate are most fragile."""
        basis = RNSBasis(_primes_for(64, 5, 26))
        q = basis.product
        specials = [0, 1, q - 1, q // 2, q // 2 + 1, q // 2 - 1, q - 2, 2]
        residues = basis.decompose_reference(specials)
        for centered in (True, False):
            got = basis.compose(residues, centered=centered)
            ref = basis.compose_reference(residues, centered=centered)
            assert list(got) == list(ref)

    @settings(max_examples=25, deadline=None)
    @given(crt_worlds)
    def test_decompose_roundtrip_bigints(self, world):
        towers, bits, seed = world
        basis = RNSBasis(_primes_for(64, towers, bits))
        rng = np.random.default_rng(seed)
        q = basis.product
        values = [int(rng.integers(0, 2**62)) * 7 % q - q // 2 for _ in range(16)]
        got = basis.decompose(values)
        ref = basis.decompose_reference(values)
        assert np.array_equal(got, ref)
        assert list(basis.compose(got, centered=True)) == [
            v if v <= (q - 1) // 2 else v - q for v in [v % q for v in values]
        ]

    def test_decompose_int64_fast_path(self):
        """Integer-dtyped input must take the vectorized np.mod path and
        agree with the reference, negatives included."""
        basis = RNSBasis(_primes_for(64, 4, 26))
        vals = np.array([-5, -1, 0, 1, 2**40, -(2**40), 123456789], dtype=np.int64)
        got = basis.decompose(vals)
        ref = basis.decompose_reference([int(v) for v in vals])
        assert got.dtype == np.int64
        assert np.array_equal(got, ref)

    def test_decompose_uint64_above_int63_exact(self):
        """uint64 values >= 2**63 must not wrap through an int64 cast."""
        basis = RNSBasis(_primes_for(64, 3, 26))
        vals = np.array([2**63 + 5, 2**64 - 1, 7], dtype=np.uint64)
        got = basis.decompose(vals)
        ref = basis.decompose_reference([int(v) for v in vals])
        assert np.array_equal(got, ref)

    @settings(max_examples=20, deadline=None)
    @given(crt_worlds)
    def test_convert_centered_matches_reference(self, world):
        towers, bits, seed = world
        primes = _primes_for(64, towers + 3, bits)
        basis = RNSBasis(primes[:towers])
        target = RNSBasis(primes[towers:])
        rng = np.random.default_rng(seed)
        residues = np.stack(
            [rng.integers(0, q, 20, dtype=np.int64) for q in basis.moduli]
        )
        got = basis.convert_centered(residues, target)
        ref = target.decompose_reference(
            basis.compose_reference(residues, centered=True)
        )
        assert np.array_equal(got, ref)

    def test_convert_centered_shared_moduli(self):
        """ModRaise extends a prefix basis into a superset chain that
        *contains* the source moduli — rows for shared moduli must come
        back exact, not approximate."""
        primes = _primes_for(64, 6, 26)
        basis = RNSBasis(primes[:2])
        target = RNSBasis(primes)  # includes the source moduli
        rng = np.random.default_rng(9)
        residues = np.stack(
            [rng.integers(0, q, 20, dtype=np.int64) for q in basis.moduli]
        )
        got = basis.convert_centered(residues, target)
        ref = target.decompose_reference(
            basis.compose_reference(residues, centered=True)
        )
        assert np.array_equal(got, ref)

    @settings(max_examples=20, deadline=None)
    @given(crt_worlds)
    def test_compose_real_matches_reference_floats(self, world):
        towers, bits, seed = world
        basis = RNSBasis(_primes_for(64, towers, bits))
        rng = np.random.default_rng(seed)
        # Decode-realistic magnitudes: small centered values, exactly
        # representable in float64 — the float path must equal
        # float(reference int) with no tolerance.
        values = [int(v) for v in rng.integers(-(2**48), 2**48, 16)]
        residues = basis.decompose_reference(values)
        got = basis.compose_real(residues)
        ref = np.array(
            [float(v) for v in basis.compose_reference(residues, centered=True)]
        )
        assert got.dtype == np.float64
        assert np.array_equal(got, ref)

    def test_limb_codec_roundtrip(self):
        value = 0x1234_5678_9ABC_DEF0_1122_3344
        limbs = int_to_limbs(value, 8)
        assert limbs_to_int(limbs) == value
        with pytest.raises(ParameterError):
            int_to_limbs(value, 2)
        with pytest.raises(ParameterError):
            int_to_limbs(-1, 8)

    def test_engine_limb_plan_covers_presum(self):
        basis = RNSBasis(_primes_for(64, 8, 29))
        engine = get_engine(basis)
        head = basis.product.bit_length()
        assert engine.num_limbs * 16 >= head + 32


# -- whole-array kernels vs the per-tower oracles -------------------------------


def _automorphism_rows(rows, moduli, g):
    """``X -> X^g`` tower by tower, straight from the definition."""
    n = rows.shape[1]
    out = np.zeros_like(rows)
    for i, q in enumerate(moduli):
        for j in range(n):
            e = j * g % (2 * n)
            out[i, e % n] = rows[i, j] if e < n else neg_mod(rows[i, j], q)
    return out


class TestPerTowerOracles:
    def test_key_switch_matches_per_tower_oracles(self, context, keygen, rng):
        """key_switch == mod_up_digit per digit, a modmath
        multiply-accumulate per tower, mod_down per half."""
        from repro.ckks import key_switch, mod_down, mod_up_digit
        from repro.ckks.keys import sample_ternary

        level = context.params.max_level
        key = keygen.switch_key(sample_ternary(context.params.n, rng))
        poly = RNSPoly.random_uniform(
            context.level_basis(level), context.params.n, rng
        )
        got = key_switch(context, poly, key, level)

        extended = context.extended_basis(level)
        acc = np.zeros((2, len(extended), context.params.n), dtype=np.int64)
        for d, pair in enumerate(key.restricted(context, level)):
            digit = mod_up_digit(context, poly, level, d)
            for h, half in enumerate(pair):
                for i, q in enumerate(extended.moduli):
                    term = mul_mod(digit.data[i], half.data[i], q)
                    acc[h, i] = add_mod(acc[h, i], term, q)
        for h in (0, 1):
            ref = mod_down(
                context, RNSPoly(extended, acc[h], Domain.EVAL), level
            )
            assert np.array_equal(got[h].data, ref.data)

    def test_poly_arithmetic_matches_per_tower_oracles(self, rng):
        n, g = 64, 5
        basis = RNSBasis(_primes_for(n, 4, 26))
        a = RNSPoly.random_uniform(basis, n, rng)
        b = RNSPoly.random_uniform(basis, n, rng)
        scalars = [3, 5, 7, 11]
        contexts = [NTTContext(n, q) for q in basis.moduli]
        coeff = np.stack(
            [c.inverse(a.data[i]) for i, c in enumerate(contexts)]
        )
        rotated = _automorphism_rows(coeff, basis.moduli, g)
        per_tower = {
            "add": [add_mod(a.data[i], b.data[i], q)
                    for i, q in enumerate(basis.moduli)],
            "sub": [sub_mod(a.data[i], b.data[i], q)
                    for i, q in enumerate(basis.moduli)],
            "neg": [neg_mod(a.data[i], q)
                    for i, q in enumerate(basis.moduli)],
            "mul": [mul_mod(a.data[i], b.data[i], q)
                    for i, q in enumerate(basis.moduli)],
            "scale_by": [mul_mod(a.data[i], scalars[i], q)
                         for i, q in enumerate(basis.moduli)],
            "to_coeff": coeff,
            "automorphism (coeff)": rotated,
            "automorphism (eval)": [
                c.forward(rotated[i]) for i, c in enumerate(contexts)
            ],
        }
        got = {
            "add": a + b, "sub": a - b, "neg": -a, "mul": a * b,
            "scale_by": a.scale_by(scalars),
            "to_coeff": a.to_coeff(),
            "automorphism (coeff)": a.to_coeff().automorphism(g),
            "automorphism (eval)": a.automorphism(g),
        }
        for name, ref in per_tower.items():
            assert np.array_equal(got[name].data, np.stack(ref)), name


# -- disk cache: recovery, versioning, warm start ------------------------------


def _ntt_key(n: int, q: int) -> str:
    return f"n{n}-q{q}"


class TestDiskCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        arrays = {"a": np.arange(5, dtype=np.int64)}
        assert cache.store("unit", "k1", arrays)
        loaded = cache.load("unit", "k1")
        assert loaded is not None
        assert np.array_equal(loaded["a"], arrays["a"])

    def test_disabled_by_empty_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert cache.cache_dir() is None
        assert not cache.store("unit", "k", {"a": np.zeros(1)})
        assert cache.load("unit", "k") is None

    def test_corrupted_file_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        n, q = 64, _primes_for(64, 1, 22)[0]
        clean = NTTContext(n, q)
        path = tmp_path / f"ntt-{_ntt_key(n, q)}.npz"
        assert path.is_file()
        path.write_bytes(b"this is not an npz archive")
        assert cache.load("ntt", _ntt_key(n, q)) is None
        rebuilt = NTTContext(n, q)  # must rebuild, not crash
        assert np.array_equal(rebuilt._psi_rev, clean._psi_rev)
        # ... and the rebuild healed the file on disk.
        healed = cache.load("ntt", _ntt_key(n, q))
        assert healed is not None
        assert np.array_equal(healed["psi_rev"], clean._psi_rev)

    def test_stale_version_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        n, q = 64, _primes_for(64, 1, 22)[0]
        clean = NTTContext(n, q)
        key = _ntt_key(n, q)
        # Rewrite the entry claiming a future format version.
        stale = {name: arr for name, arr in cache.load("ntt", key).items()}
        stale["__cache_version__"] = np.int64(cache.CACHE_VERSION + 1)
        path = tmp_path / f"ntt-{key}.npz"
        with open(path, "wb") as handle:
            np.savez(handle, **stale)
        assert cache.load("ntt", key) is None, "stale version must be a miss"
        rebuilt = NTTContext(n, q)
        assert np.array_equal(rebuilt._psi_inv_rev, clean._psi_inv_rev)

    def test_cached_tables_bit_identical_to_fresh(self, tmp_path, monkeypatch):
        n, q = 128, _primes_for(128, 1, 26)[0]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = NTTContext(n, q)   # cold: computes + stores
        second = NTTContext(n, q)  # warm: loads
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        fresh = NTTContext(n, q)   # no cache at all
        for ctx in (second, fresh):
            assert np.array_equal(ctx._psi_rev, first._psi_rev)
            assert np.array_equal(ctx._psi_inv_rev, first._psi_inv_rev)

    def test_bconv_hat_tables_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        primes = _primes_for(64, 6, 26)
        src, dst = RNSBasis(primes[:3]), RNSBasis(primes[3:])
        first = BasisConverter(src, dst)
        builds = __import__("repro.rns.bconv", fromlist=["x"]).HAT_TABLE_BUILDS
        second = BasisConverter(src, dst)
        after = __import__("repro.rns.bconv", fromlist=["x"]).HAT_TABLE_BUILDS
        assert after == builds, "second converter must hit the disk cache"
        assert np.array_equal(first._hat_mod, second._hat_mod)


class TestConcurrentWriters:
    """Racing serve workers must never surface a torn cache entry.

    Several processes hammer ``store``/``load`` (and the JSON layer the
    serving cache uses) on the *same* keys with deterministic payloads:
    every load must return either a miss or a complete, exactly-correct
    entry — any torn/partial read crashes the worker.
    """

    STRESS_SCRIPT = """
import sys
import numpy as np
from repro import cache

seed = int(sys.argv[1])
rounds = int(sys.argv[2])
expected = {
    "table": (np.arange(4096, dtype=np.int64) * 7 + 3) % 997,
    "aux": np.full(513, 11, dtype=np.int64),
}
doc = {"digest": "d" * 64, "latency_ms": 1.25, "phases": list(range(40))}
rng = np.random.default_rng(seed)
for i in range(rounds):
    if rng.random() < 0.5:
        assert cache.store("stress", "shared", expected)
        assert cache.store_json("stress-json", "shared", doc)
    loaded = cache.load("stress", "shared")
    if loaded is not None:
        assert set(loaded) == set(expected), f"torn keys: {sorted(loaded)}"
        for name in expected:
            assert np.array_equal(loaded[name], expected[name]), name
    got = cache.load_json("stress-json", "shared")
    if got is not None:
        assert got == doc, f"torn JSON document: {got!r}"
print("ok")
"""

    def test_parallel_store_load_never_tears(self, tmp_path, monkeypatch):
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", self.STRESS_SCRIPT, str(seed), "40"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=env,
            )
            for seed in range(4)
        ]
        for proc in workers:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, f"stress worker failed:\n{err}"
            assert out.strip().endswith("ok")
        # After the storm: complete winning entries, and no leftover temp
        # files from the atomic-rename dance.
        assert sorted(p.name for p in tmp_path.glob("*.tmp")) == []
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        loaded = cache.load("stress", "shared")
        assert loaded is not None and "table" in loaded
        doc = cache.load_json("stress-json", "shared")
        assert doc is not None and doc["digest"] == "d" * 64


class TestWarmStart:
    WARM_SCRIPT = """
import sys
from repro.api.presets import get_preset
from repro.ckks.context import CKKSContext
from repro.ntt import transform

params = get_preset("n7_boot")
ctx = CKKSContext(params)
for q in (*ctx.q_basis.moduli, *ctx.p_basis.moduli):
    transform.get_ntt_context(params.n, q)
print(transform.POWER_TABLE_BUILDS)
"""

    #: Same warm-start contract, but exercised through the cross-ciphertext
    #: batch engines: stacked ``(B, L, N)`` NTTs at several batch sizes must
    #: run entirely off the disk-cached (n, q) tables — the batch axis never
    #: introduces a table of its own.
    WARM_BATCH_SCRIPT = """
import numpy as np
from repro.api.presets import get_preset
from repro.ckks.context import CKKSContext
from repro.ntt import transform
from repro.ntt.batch import get_batch_ntt

params = get_preset("n7_boot")
ctx = CKKSContext(params)
moduli = (*ctx.q_basis.moduli, *ctx.p_basis.moduli)
engine = get_batch_ntt(params.n, moduli)
rng = np.random.default_rng(0)
for bsz in (1, 2, 4, 8):
    data = rng.integers(0, 2**20, size=(bsz, len(moduli), params.n),
                        dtype=np.int64)
    assert np.array_equal(engine.inverse(engine.forward(data)), data)
print(transform.POWER_TABLE_BUILDS)
"""

    def _run(self, cache_dir: str, script: str = "") -> int:
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = cache_dir
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        out = subprocess.run(
            [sys.executable, "-c", script or self.WARM_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        return int(out.stdout.strip().splitlines()[-1])

    def test_second_process_regenerates_nothing(self, tmp_path):
        cold = self._run(str(tmp_path))
        assert cold > 0, "first process must build the tables"
        warm = self._run(str(tmp_path))
        assert warm == 0, (
            f"warm start regenerated {warm} power tables despite a "
            "populated REPRO_CACHE_DIR"
        )

    def test_second_process_batched_engines_regenerate_nothing(self, tmp_path):
        cold = self._run(str(tmp_path), self.WARM_BATCH_SCRIPT)
        assert cold > 0, "first process must build the tables"
        warm = self._run(str(tmp_path), self.WARM_BATCH_SCRIPT)
        assert warm == 0, (
            f"batched (B, L, N) engines rebuilt {warm} power tables on a "
            "warm start — batch tables must be shared across B and loaded "
            "from the same disk cache as the scalar contexts"
        )

    def test_warm_start_never_calls_power_table(self, tmp_path, monkeypatch):
        """In-process variant: with a populated cache, constructing the
        whole n7_boot chain must not touch ``_power_table`` at all."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.api.presets import get_preset
        from repro.ckks.context import CKKSContext

        params = get_preset("n7_boot")
        ctx = CKKSContext(params)
        moduli = (*ctx.q_basis.moduli, *ctx.p_basis.moduli)
        for q in moduli:
            NTTContext(params.n, q)  # populate (bypasses the lru cache)

        def boom(self, base):
            raise AssertionError("warm start must not rebuild power tables")

        monkeypatch.setattr(NTTContext, "_power_table", boom)
        for q in moduli:
            NTTContext(params.n, q)
