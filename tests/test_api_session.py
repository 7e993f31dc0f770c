"""Tests for the repro.api facade: FHESession and CipherVector.

The key contracts: lazy key caching (a second rotation by the same step
must not regenerate the Galois key), automatic level/scale management
(plaintext-multiply chains keep the scale within 0.5 of ``params.scale``),
and bit-for-bit equivalence between operator sugar and explicit
``Evaluator`` calls.
"""

import numpy as np
import pytest

from repro.api import PRESETS, CipherVector, FHESession, get_preset, list_presets
from repro.ckks.context import CKKSParams
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def session() -> FHESession:
    return FHESession.create("tiny_ci", seed=31)


@pytest.fixture(scope="module")
def api_rng():
    return np.random.default_rng(0xA91)


@pytest.fixture()
def vectors(session, api_rng):
    x = api_rng.uniform(-1, 1, session.num_slots)
    y = api_rng.uniform(-1, 1, session.num_slots)
    cx, cy = session.encrypt_many([x, y])
    return x, y, cx, cy


def max_err(cv: CipherVector, expected) -> float:
    return float(np.max(np.abs(cv.decrypt() - np.asarray(expected))))


class TestPresets:
    def test_known_presets_build_params(self):
        for name in list_presets():
            # every preset is a valid CKKSParams with a usable ring
            assert get_preset(name).n >= 128

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_runs(self, name):
        """A shipped preset must be creatable and compute: prime
        generation, key generation, one multiply + rescale, decryption."""
        s = FHESession.create(name, seed=1)
        x = np.linspace(-0.5, 0.5, s.num_slots)
        product = s.encrypt(x) * s.encrypt(x)
        assert max_err(product, x * x) < 5e-3

    def test_override(self):
        assert get_preset("tiny_ci", num_levels=4).num_levels == 4

    def test_unknown_rejected(self):
        with pytest.raises(ParameterError):
            get_preset("n99_imaginary")

    def test_create_from_explicit_params(self):
        params = CKKSParams(n=256, num_levels=4, num_aux=2, dnum=2,
                            q_bits=28, p_bits=29, scale_bits=26)
        s = FHESession.create(params, seed=1)
        assert s.params is params
        with pytest.raises(ParameterError):
            FHESession.create(params, num_levels=5)


class TestLazyKeyCaching:
    def test_no_keys_generated_up_front(self):
        s = FHESession.create("tiny_ci", seed=32)
        assert s.key_cache_info() == {"relin": 0, "conjugation": 0, "galois": 0}

    def test_second_rotation_reuses_key(self, monkeypatch):
        s = FHESession.create("tiny_ci", seed=33)
        calls = []
        real = s.keygen.galois_key

        def counting(element):
            calls.append(element)
            return real(element)

        monkeypatch.setattr(s.keygen, "galois_key", counting)
        ct = s.encrypt([1.0, 2.0])
        ct.rotate(3)
        assert len(calls) == 1
        ct.rotate(3)  # same step: must hit the cache
        assert len(calls) == 1
        ct.rotate(4)  # new step: one more generation
        assert len(calls) == 2
        assert s.rotation_key(3) is s.rotation_key(3)

    def test_steps_sharing_galois_element_share_key(self, session):
        assert (
            session.rotation_key(1)
            is session.rotation_key(1 + session.num_slots)
        )

    def test_relin_and_conjugation_cached(self, session):
        assert session.relin_key is session.relin_key
        assert session.conjugation_key is session.conjugation_key


class TestOperatorEquivalence:
    """CipherVector sugar == explicit Evaluator calls, bit for bit."""

    def test_multiply_matches_explicit(self, session, vectors):
        _, _, cx, cy = vectors
        ev = session.evaluator
        explicit = ev.rescale(
            ev.multiply(cx.ciphertext, cy.ciphertext, session.relin_key)
        )
        fluent = (cx * cy).ciphertext
        assert np.array_equal(fluent.c0.data, explicit.c0.data)
        assert np.array_equal(fluent.c1.data, explicit.c1.data)
        assert fluent.scale == explicit.scale and fluent.level == explicit.level

    def test_add_sub_neg_match_explicit(self, session, vectors):
        _, _, cx, cy = vectors
        ev = session.evaluator
        assert np.array_equal(
            (cx + cy).ciphertext.c0.data,
            ev.add(cx.ciphertext, cy.ciphertext).c0.data,
        )
        assert np.array_equal(
            (cx - cy).ciphertext.c1.data,
            ev.sub(cx.ciphertext, cy.ciphertext).c1.data,
        )
        assert np.array_equal(
            (-cx).ciphertext.c0.data, ev.negate(cx.ciphertext).c0.data
        )

    def test_rotate_matches_explicit(self, session, vectors):
        _, _, cx, _ = vectors
        ev = session.evaluator
        explicit = ev.rotate(cx.ciphertext, 5, session.rotation_key(5))
        for fluent in (cx << 5, cx.rotate(5), cx >> -5):
            assert np.array_equal(fluent.ciphertext.c0.data, explicit.c0.data)
            assert np.array_equal(fluent.ciphertext.c1.data, explicit.c1.data)

    def test_conjugate_matches_explicit(self, session, vectors):
        _, _, cx, _ = vectors
        explicit = session.evaluator.conjugate(
            cx.ciphertext, session.conjugation_key
        )
        assert np.array_equal(
            cx.conjugate().ciphertext.c0.data, explicit.c0.data
        )


class TestAutoScaleManagement:
    def test_plain_multiply_preserves_scale(self, session, vectors):
        x, _, cx, _ = vectors
        delta = session.params.scale
        out = cx * 0.5
        assert abs(out.scale - delta) <= 0.5
        out = out * np.linspace(0.1, 1.0, session.num_slots)
        assert abs(out.scale - delta) <= 0.5
        expected = x * 0.5 * np.linspace(0.1, 1.0, session.num_slots)
        assert max_err(out, expected) < 1e-2

    def test_plain_add_keeps_scale(self, session, vectors):
        x, _, cx, _ = vectors
        out = cx + 0.25
        assert abs(out.scale - session.params.scale) <= 0.5
        assert max_err(out, x + 0.25) < 1e-2

    def test_mixed_level_add_auto_aligns(self, session, vectors):
        x, y, cx, cy = vectors
        product = cx * cy  # one level deeper, drifted scale
        out = product + cx  # auto mod-switch + scale correction
        assert out.level == product.level - 1  # one level pays for alignment
        assert max_err(out, x * y + x) < 2e-2

    def test_deep_plain_chain_stays_at_delta(self, session, api_rng):
        x = api_rng.uniform(-1, 1, session.num_slots)
        cv = session.encrypt(x)
        expected = x.copy()
        for k in range(1, 4):  # three plaintext multiplies, three levels
            cv = cv * (1.0 / (k + 1))
            expected = expected / (k + 1)
            assert abs(cv.scale - session.params.scale) <= 0.5
        assert max_err(cv, expected) < 1e-2

    def test_out_of_levels_rejected(self, session):
        cv = session.encrypt([1.0], level=0)
        with pytest.raises(ParameterError):
            cv * 2.0

    def test_cross_session_mixing_rejected(self, session, vectors):
        other = FHESession.create("tiny_ci", seed=99)
        foreign = other.encrypt([1.0])
        with pytest.raises(ParameterError):
            vectors[2] + foreign


class TestBatchedOps:
    def test_encrypt_many_roundtrip(self, session, api_rng):
        batch = [api_rng.uniform(-1, 1, session.num_slots) for _ in range(3)]
        cts = session.encrypt_many(batch)
        assert len(cts) == 3
        for cv, expected in zip(cts, batch):
            assert max_err(cv, expected) < 1e-2

    def test_rotate_many_matches_single_rotations(self, session, vectors):
        x, _, cx, _ = vectors
        hoisted = session.rotate_many(cx, [1, 2, 4])
        assert set(hoisted) == {1, 2, 4}
        for steps, cv in hoisted.items():
            single = cx.rotate(steps)
            assert max_err(cv, np.roll(x, -steps)) < 1e-2
            # hoisting reuses the same cached key and decrypts identically
            assert np.allclose(
                cv.decrypt().real, single.decrypt().real, atol=1e-3
            )

    def test_rotate_many_keyed_by_original_steps(self, session, vectors):
        """Negative / wrapped steps stay addressable by the caller's key."""
        x, _, cx, _ = vectors
        n = session.num_slots
        hoisted = session.rotate_many(cx, [-1, 3, 3 + n])
        assert set(hoisted) == {-1, 3, 3 + n}
        assert max_err(hoisted[-1], np.roll(x, 1)) < 1e-2
        assert max_err(hoisted[3 + n], np.roll(x, -3)) < 1e-2

    def test_rotate_many_zero_step_is_copy(self, session, vectors):
        """A BSGS-style step list may include 0; it maps to a plain copy."""
        x, _, cx, _ = vectors
        hoisted = session.rotate_many(cx, [0, 1])
        assert max_err(hoisted[0], x) < 1e-2
        assert max_err(hoisted[1], np.roll(x, -1)) < 1e-2
        assert hoisted[0].ciphertext.c0.data is not cx.ciphertext.c0.data


class TestFluentPrograms:
    def test_expression_pipeline(self, session, vectors):
        x, y, cx, cy = vectors
        result = (cx * cy + 0.5) << 3
        assert max_err(result, np.roll(x * y + 0.5, -3)) < 1e-2

    def test_square_and_sum_slots(self, session, api_rng):
        width = 8
        data = api_rng.uniform(0, 1, width)
        slots = np.zeros(session.num_slots)
        slots[:width] = data
        cv = session.encrypt(slots)
        mean = (cv.sum_slots(width) * (1.0 / width)).decrypt()[0].real
        assert mean == pytest.approx(data.mean(), abs=1e-2)
        sq = cv.square()
        assert max_err(sq, slots**2) < 1e-2

    def test_sum_slots_requires_power_of_two(self, session, vectors):
        with pytest.raises(ParameterError):
            vectors[2].sum_slots(3)

    def test_scalar_left_operands(self, session, vectors):
        x, _, cx, _ = vectors
        assert max_err(1.0 + cx, 1.0 + x) < 1e-2
        assert max_err(1.0 - cx, 1.0 - x) < 1e-2
        assert max_err(2.0 * cx, 2.0 * x) < 1e-2


class TestNoiseBudget:
    """PR 9 regression: tracked noise budgets gate decryption.

    The session threads a :class:`~repro.ckks.noise.NoiseModel` bound
    through every CipherVector op; at decrypt time an exhausted budget
    raises (``strict``), warns (``warn``, the default), or is skipped
    entirely (``off``).
    """

    def test_fresh_ciphertext_has_headroom(self, session, api_rng):
        cv = session.encrypt(api_rng.uniform(-1, 1, session.num_slots))
        assert cv.noise is not None
        assert cv.noise.level == cv.level
        assert cv.noise.budget_bits(session.context) > 0

    def test_ops_thread_and_grow_the_bound(self, session, vectors):
        _, _, cx, cy = vectors
        prod = cx * cy
        assert prod.noise is not None
        assert (cx + cy).noise is not None
        assert cx.rotate(1).noise is not None
        deeper = prod * prod
        assert deeper.noise.budget_bits(session.context) < \
            prod.noise.budget_bits(session.context) < \
            cx.noise.budget_bits(session.context)
        deeper.decrypt()  # healthy chain decrypts without a warning

    def test_warn_policy_flags_exhausted_budget(self, session, api_rng):
        from repro.ckks.noise import NoiseEstimate
        from repro.errors import NoiseBudgetWarning

        cv = session.encrypt(api_rng.uniform(-1, 1, session.num_slots))
        cv.noise = NoiseEstimate(1e4, cv.level, cv.scale)
        with pytest.warns(NoiseBudgetWarning, match="noise budget"):
            cv.decrypt()  # proceeds: the data still comes back

    def test_strict_policy_raises(self, api_rng):
        from repro.ckks.noise import NoiseEstimate
        from repro.errors import NoiseBudgetError

        strict = FHESession.create("tiny_ci", seed=5,
                                   noise_policy="strict")
        cv = strict.encrypt(api_rng.uniform(-1, 1, strict.num_slots))
        cv.noise = NoiseEstimate(1e4, cv.level, cv.scale)
        with pytest.raises(NoiseBudgetError, match="noise budget"):
            strict.decrypt(cv)
        cv.noise = None  # untracked ciphertexts are never gated
        strict.decrypt(cv)

    def test_off_policy_disables_tracking(self, api_rng):
        off = FHESession.create("tiny_ci", seed=5, noise_policy="off")
        cv = off.encrypt(api_rng.uniform(-1, 1, off.num_slots))
        assert cv.noise is None
        assert (cv * cv).noise is None
        off.decrypt(cv)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ParameterError):
            FHESession.create("tiny_ci", noise_policy="maybe")

    def test_batch_carries_the_worst_member(self, session, api_rng):
        from repro.api.cipher import CipherBatch

        vecs = [session.encrypt(api_rng.uniform(-1, 1, session.num_slots))
                for _ in range(3)]
        vecs[1] = vecs[1] + vecs[1]  # noisiest member (level preserved)
        batch = CipherBatch.from_vectors(vecs)
        assert batch.noise is not None
        assert batch.noise.log2_noise == max(v.noise.log2_noise
                                             for v in vecs)
