"""Tests for the CKKS bootstrapping subsystem.

Covers the acceptance contract — an exhausted (level-0) ciphertext is
refreshed to >= 3 usable levels with < 1e-2 slot error — plus every layer
underneath: ModRaise's lifted decryption identity, the factored DFT
algebra, the plan-vs-instrumented op accounting the BOOT workload rests
on, and the facade integration.
"""

import numpy as np
import pytest

from repro.api import FHESession, estimate
from repro.ckks import (
    CKKSContext,
    CKKSParams,
    Decryptor,
    Encoder,
    Encryptor,
    Evaluator,
    KeyGenerator,
)
from repro.ckks.bootstrap import (
    BootstrapConfig,
    BootstrapPlan,
    Bootstrapper,
    CountingEvaluator,
    coeff_to_slot_matrices,
    generate_bootstrap_keys,
    grouped_diagonal_sets,
    mod_raise,
    overflow_bound,
    slot_to_coeff_matrices,
    special_dft_matrix,
)
from repro.errors import ParameterError
from repro.workloads import bootstrap_plan, bootstrap_workload

BOOT_PARAMS = CKKSParams(
    n=128, num_levels=16, num_aux=5, dnum=4,
    q_bits=26, p_bits=29, scale_bits=26,
    q0_bits=30, hamming_weight=8,
)


@pytest.fixture(scope="module")
def boot_ctx():
    return CKKSContext(BOOT_PARAMS)


@pytest.fixture(scope="module")
def boot_keygen(boot_ctx):
    return KeyGenerator(boot_ctx, seed=7)


@pytest.fixture(scope="module")
def boot_world(boot_ctx, boot_keygen):
    encoder = Encoder(boot_ctx)
    encryptor = Encryptor(boot_ctx, boot_keygen.public_key(), seed=11)
    decryptor = Decryptor(boot_ctx, boot_keygen.secret_key)
    return encoder, encryptor, decryptor


@pytest.fixture(scope="module")
def bootstrapper(boot_ctx):
    return Bootstrapper(boot_ctx)


@pytest.fixture(scope="module")
def boot_keys(boot_keygen, bootstrapper):
    return generate_bootstrap_keys(boot_keygen, bootstrapper)


@pytest.fixture(scope="module")
def message(boot_world):
    encoder, _, _ = boot_world
    return np.random.default_rng(3).uniform(-0.2, 0.2, encoder.num_slots)


class TestModRaise:
    def test_requires_level_zero(self, boot_ctx, boot_world, message):
        encoder, encryptor, _ = boot_world
        ct = encryptor.encrypt(encoder.encode(message), level=2)
        with pytest.raises(ParameterError):
            mod_raise(boot_ctx, ct)

    def test_lifts_to_top_level(self, boot_ctx, boot_world, message):
        encoder, encryptor, _ = boot_world
        ct = encryptor.encrypt(encoder.encode(message), level=0)
        raised = mod_raise(boot_ctx, ct)
        assert raised.level == boot_ctx.params.max_level
        assert raised.scale == ct.scale

    def test_decrypts_to_message_plus_q0_overflow(
        self, boot_ctx, boot_keygen, boot_world, message
    ):
        """Dec(ModRaise(ct)) = m + e + q_0 * I with small integer I."""
        encoder, encryptor, _ = boot_world
        ct = encryptor.encrypt(encoder.encode(message), level=0)
        raised = mod_raise(boot_ctx, ct)
        s = boot_keygen.secret_key.poly(raised.c0.basis)
        dec = (raised.c0 + raised.c1 * s).to_coeff()
        ints = dec.basis.compose(dec.data, centered=True)
        q0 = boot_ctx.q_basis.moduli[0]
        expected = encoder.embed(
            np.asarray(message, dtype=np.complex128)
        ) * ct.scale
        residual = np.array([float(v) for v in ints]) - expected
        overflow = residual / q0
        rounded = np.round(overflow)
        # The residual is exactly q_0 * (small integer) + encryption noise.
        assert np.max(np.abs(overflow - rounded)) < 1e-3
        assert np.max(np.abs(rounded)) <= overflow_bound(boot_ctx)
        assert np.max(np.abs(rounded)) >= 1  # lift genuinely overflows


class TestDFTFactors:
    @pytest.mark.parametrize("stages", [1, 2, 3])
    def test_cts_product_inverts_stc_product(self, stages):
        slots = 32
        cts = coeff_to_slot_matrices(slots, stages)
        stc = slot_to_coeff_matrices(slots, stages)
        total = np.eye(slots, dtype=complex)
        for mat in list(cts) + list(stc):
            total = mat @ total
        # StC . CtS = E * (1/2 E^{-1}) = I/2 (permutations cancel).
        assert np.allclose(total, np.eye(slots) / 2, atol=1e-10)

    def test_cts_then_stc_equals_halved_identity_on_vectors(self):
        slots = 64
        e_mat = special_dft_matrix(slots)
        cts = coeff_to_slot_matrices(slots, 2)
        rng = np.random.default_rng(0)
        u = rng.normal(size=2 * slots)
        v = u[:slots] - 1j * u[slots:]
        out = e_mat @ v
        for mat in cts:
            out = mat @ out
        # CtS leaves the folded coefficients (halved, bit-reversed).
        assert np.allclose(np.sort_complex(out * 2), np.sort_complex(v))

    @pytest.mark.parametrize("stages", [1, 2, 3])
    def test_structural_diagonals_match_matrices(self, stages):
        """The sumset prediction (used at accelerator scale) is exact."""
        slots = 64
        for reverse, mats in (
            (True, coeff_to_slot_matrices(slots, stages)),
            (False, slot_to_coeff_matrices(slots, stages)),
        ):
            predicted = grouped_diagonal_sets(slots, stages, reverse=reverse)
            for mat, pred in zip(mats, predicted):
                actual = {
                    d for d in range(slots)
                    if np.any(mat[np.arange(slots), (np.arange(slots) + d) % slots])
                }
                assert actual == pred

    def test_more_stages_fewer_diagonals_per_factor(self):
        dense = grouped_diagonal_sets(1 << 10, 1, reverse=True)
        split = grouped_diagonal_sets(1 << 10, 5, reverse=True)
        assert max(len(s) for s in split) < len(dense[0])


class TestPipeline:
    def test_acceptance_level0_restored(
        self, boot_ctx, boot_world, bootstrapper, boot_keys, message
    ):
        """The ISSUE's headline contract: >= 3 levels, < 1e-2 slot error."""
        encoder, encryptor, decryptor = boot_world
        ct = encryptor.encrypt(encoder.encode(message), level=0)
        evaluator = Evaluator(boot_ctx)
        out = bootstrapper.bootstrap(evaluator, ct, boot_keys)
        assert out.level >= 3
        got = encoder.decode(decryptor.decrypt(out), scale=out.scale)
        assert np.max(np.abs(got - message)) < 1e-2

    def test_plan_matches_instrumented_run(
        self, boot_ctx, boot_world, bootstrapper, boot_keys, message
    ):
        """Structural op counts == measured counts, field for field."""
        encoder, encryptor, _ = boot_world
        ct = encryptor.encrypt(encoder.encode(message), level=0)
        counting = CountingEvaluator(boot_ctx)
        bootstrapper.bootstrap(counting, ct, boot_keys)
        assert counting.snapshot().as_dict() == (
            bootstrapper.plan.op_counts().as_dict()
        )

    def test_plan_scales_with_batch_size(
        self, boot_ctx, boot_world, bootstrapper, boot_keys, message
    ):
        """Counters count ciphertexts, not calls: a B=3 stack through the
        same circuit is three bootstraps' worth of every op."""
        from repro.ckks.batch import stack_ciphertexts

        encoder, encryptor, _ = boot_world
        cts = [encryptor.encrypt(encoder.encode(message), level=0)
               for _ in range(3)]
        counting = CountingEvaluator(boot_ctx)
        bootstrapper.bootstrap(counting, stack_ciphertexts(cts), boot_keys)
        assert counting.snapshot() == bootstrapper.plan.op_counts().scaled(3)

    def test_key_switch_and_rescale_calls_are_pinned(
        self, boot_ctx, boot_world, bootstrapper, boot_keys, message
    ):
        """One bootstrap's evaluator calls, not ciphertexts: each ladder
        generation's products and each BSGS rotation set share a call.
        One rung, rotation or combine term per call made 58 key-switching
        calls (41 multiply, 14 rotate, 2 hoisted, 1 conjugate) and 72
        rescales."""
        encoder, encryptor, _ = boot_world
        ct = encryptor.encrypt(encoder.encode(message), level=0)
        counting = CountingEvaluator(boot_ctx)
        bootstrapper.bootstrap(counting, ct, boot_keys)
        calls = counting.calls
        key_switching = {
            name: calls.get(name, 0) for name in (
                "multiply", "rotate", "rotate_each", "hoisted_rotations",
                "conjugate",
            )
        }
        assert key_switching == {
            "multiply": 12, "rotate": 0, "rotate_each": 2,
            "hoisted_rotations": 2, "conjugate": 1,
        }
        assert sum(key_switching.values()) == 17
        assert calls["rescale"] == 24

    def test_second_bootstrap_encodes_nothing(
        self, boot_ctx, boot_world, bootstrapper, boot_keys, message,
        monkeypatch,
    ):
        """Every plaintext a bootstrap multiplies or adds is a function of
        its circuit position, so a repeat bootstrap encodes none."""
        encoder, encryptor, _ = boot_world
        ct = encryptor.encrypt(encoder.encode(message), level=0)
        evaluator = Evaluator(boot_ctx)
        bootstrapper.bootstrap(evaluator, ct, boot_keys)
        encodes = []
        original = bootstrapper.encoder.encode

        def counted(*args, **kwargs):
            encodes.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(bootstrapper.encoder, "encode", counted)
        bootstrapper.bootstrap(evaluator, ct, boot_keys)
        assert len(encodes) == 0

    def test_structural_plan_equals_materialized_plan(self, bootstrapper):
        structural = BootstrapPlan.from_shape(
            bootstrapper.context.params.n // 2,
            cts_stages=1, stc_stages=1,
            sine_periods=bootstrapper.sine_periods,
            sine_degree=bootstrapper.sine_degree,
        )
        assert structural == bootstrapper.plan

    def test_higher_level_input_accepted(
        self, boot_ctx, boot_world, bootstrapper, boot_keys, message
    ):
        encoder, encryptor, decryptor = boot_world
        ct = encryptor.encrypt(encoder.encode(message), level=3)
        out = bootstrapper.bootstrap(Evaluator(boot_ctx), ct, boot_keys)
        assert out.level > 3
        got = encoder.decode(decryptor.decrypt(out), scale=out.scale)
        assert np.max(np.abs(got - message)) < 1e-2

    def test_missing_rotation_keys_rejected(
        self, boot_ctx, boot_world, bootstrapper, boot_keys, message
    ):
        from repro.ckks.bootstrap import BootstrapKeys

        encoder, encryptor, _ = boot_world
        ct = encryptor.encrypt(encoder.encode(message), level=0)
        crippled = BootstrapKeys(
            relin=boot_keys.relin, conjugation=boot_keys.conjugation,
            rotations={},
        )
        with pytest.raises(ParameterError, match="rotation keys"):
            bootstrapper.bootstrap(Evaluator(boot_ctx), ct, crippled)

    def test_dense_secret_rejected_without_periods(self):
        ctx = CKKSContext(CKKSParams(n=64, num_levels=16, num_aux=5, dnum=4,
                                     q_bits=26, p_bits=29, scale_bits=26,
                                     q0_bits=30))
        with pytest.raises(ParameterError, match="sparse secret"):
            Bootstrapper(ctx)

    def test_too_short_chain_rejected(self):
        ctx = CKKSContext(CKKSParams(n=64, num_levels=6, num_aux=2, dnum=3,
                                     q_bits=26, p_bits=29, scale_bits=26,
                                     q0_bits=30, hamming_weight=8))
        with pytest.raises(ParameterError, match="levels"):
            Bootstrapper(ctx)


class TestFacade:
    @pytest.fixture(scope="class")
    def session(self):
        return FHESession.create("n7_boot", seed=21)

    def test_ciphervector_bootstrap(self, session):
        rng = np.random.default_rng(9)
        z = rng.uniform(-0.2, 0.2, session.num_slots)
        ct = session.encrypt(z, level=0)
        out = ct.bootstrap()
        assert out.level >= 3
        assert np.max(np.abs(out.decrypt() - z)) < 1e-2
        # The refreshed ciphertext supports further computation.
        deeper = out * out
        assert np.max(np.abs(deeper.decrypt() - z * z)) < 1e-2

    def test_bootstrap_keys_cached_and_shared(self, session):
        keys_a = session.bootstrap_keys()
        keys_b = session.bootstrap_keys()
        assert keys_a is keys_b
        assert keys_a.relin is session.relin_key
        # Rotation keys live in the session's ordinary Galois cache.
        steps = session.bootstrapper().required_rotation_steps()
        assert set(keys_a.rotations) == set(steps)
        assert keys_a.rotations[steps[0]] is session.rotation_key(steps[0])

    def test_conflicting_config_rejected(self, session):
        session.bootstrapper()
        with pytest.raises(ParameterError, match="config"):
            session.bootstrapper(BootstrapConfig(cts_stages=2))

    def test_unbootstrappable_preset_raises(self):
        session = FHESession.create("n10_fast", seed=1)
        ct = session.encrypt([0.1])
        with pytest.raises(ParameterError):
            ct.bootstrap()


class TestBootWorkloadEstimate:
    def test_reports_per_schedule_with_instrumented_hks(self):
        """Acceptance: estimate('BOOT', schedule='all') -> one RunReport
        per schedule, HKS count equal to the plan-derived circuit count."""
        reports = estimate("BOOT", schedule="all")
        assert [r.schedule for r in reports] == ["MP", "DC", "OC"]
        expected = bootstrap_plan().op_counts().hks_calls
        for report in reports:
            assert report.hks_calls == expected
            assert report.benchmark == "BOOT"
            assert report.latency_ms > 0
            assert report.total_bytes > 0

    def test_analytic_and_rpu_agree_on_traffic(self):
        analytic = estimate("BOOT", backend="analytic", schedule="OC",
                            evk_on_chip=False)
        rpu = estimate("BOOT", backend="rpu", schedule="OC",
                       evk_on_chip=False)
        assert analytic.total_bytes == rpu.total_bytes
        assert analytic.mod_ops == rpu.mod_ops
        assert analytic.latency_ms is None

    def test_workload_is_hks_dominated(self):
        """The reason bootstrapping headlines the paper: key switches
        dominate the op mix."""
        workload = bootstrap_workload()
        assert workload.hks_calls > 400
        assert workload.mix.rotations > workload.mix.ct_multiplies

    def test_unknown_workload_lists_boot(self):
        with pytest.raises(ParameterError, match="BOOT"):
            estimate("NOPE")

    def test_composite_unsupported_backend_rejected(self):
        from repro.api import register_backend

        class Stub:
            name = "stub-composite-test"

            def run(self, spec, schedule, options):
                raise AssertionError("not called")

        register_backend(Stub(), replace=True)
        with pytest.raises(ParameterError, match="composite"):
            estimate("BOOT", backend="stub-composite-test")
