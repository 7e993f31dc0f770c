"""Tests for hoisted rotations (shared ModUp across a rotation batch)."""

import numpy as np
import pytest

from repro.ckks.hoisting import hoisted_rotations, hoisting_savings
from repro.errors import KeySwitchError
from repro.params import get_benchmark
from tests.conftest import decode_error


@pytest.fixture(scope="module")
def rotation_keys(keygen):
    return {s: keygen.rotation_key(s) for s in (1, 2, 5)}


class TestHoistedRotations:
    def test_all_rotations_decrypt_correctly(
        self, context, encoder, encryptor, decryptor, rotation_keys, rng
    ):
        z = rng.uniform(-1, 1, encoder.num_slots) + 1j * rng.uniform(
            -1, 1, encoder.num_slots
        )
        ct = encryptor.encrypt(encoder.encode(z))
        results = hoisted_rotations(context, ct, rotation_keys)
        for steps, rotated in results.items():
            err = decode_error(encoder, decryptor, rotated, np.roll(z, -steps))
            assert err < 1e-2, (steps, err)

    def test_matches_unhoisted_up_to_noise(
        self, context, encoder, encryptor, decryptor, evaluator, rotation_keys, rng
    ):
        z = rng.uniform(-1, 1, encoder.num_slots)
        ct = encryptor.encrypt(encoder.encode(z))
        hoisted = hoisted_rotations(context, ct, rotation_keys)
        for steps, key in rotation_keys.items():
            plain_h = encoder.decode(decryptor.decrypt(hoisted[steps]))
            plain_r = encoder.decode(
                decryptor.decrypt(evaluator.rotate(ct, steps, key))
            )
            assert np.max(np.abs(plain_h - plain_r)) < 1e-3

    def test_bit_identical_to_unhoisted(
        self, context, encoder, encryptor, evaluator, rotation_keys, rng
    ):
        """The centred BConv lift maps -x to exactly -lift(x), so ModUp
        commutes with the automorphism and sharing it changes no bit."""
        z = rng.uniform(-1, 1, encoder.num_slots)
        ct = encryptor.encrypt(encoder.encode(z))
        hoisted = hoisted_rotations(context, ct, rotation_keys)
        for steps, key in rotation_keys.items():
            rotated = evaluator.rotate(ct, steps, key)
            assert np.array_equal(hoisted[steps].c0.data, rotated.c0.data)
            assert np.array_equal(hoisted[steps].c1.data, rotated.c1.data)

    def test_level_preserved(self, context, encoder, encryptor, rotation_keys):
        ct = encryptor.encrypt(encoder.encode([1.0]), level=3)
        results = hoisted_rotations(context, ct, {1: rotation_keys[1]})
        assert results[1].level == 3

    def test_empty_batch_rejected(self, context, encoder, encryptor):
        ct = encryptor.encrypt(encoder.encode([1.0]))
        with pytest.raises(KeySwitchError):
            hoisted_rotations(context, ct, {})


class TestHoistingSavings:
    def test_savings_grow_with_batch(self):
        spec = get_benchmark("BTS3")
        small = hoisting_savings(spec, 2)
        large = hoisting_savings(spec, 16)
        assert large["savings_fraction"] > small["savings_fraction"]

    def test_single_rotation_saves_nothing(self):
        assert hoisting_savings(get_benchmark("ARK"), 1)["saved_ops"] == 0

    def test_fraction_bounded_by_modup_share(self):
        for bench in ("BTS1", "BTS3", "ARK"):
            row = hoisting_savings(get_benchmark(bench), 1000)
            assert 0 < row["savings_fraction"] < 0.75

    def test_zero_rotations_rejected(self):
        with pytest.raises(KeySwitchError):
            hoisting_savings(get_benchmark("ARK"), 0)
