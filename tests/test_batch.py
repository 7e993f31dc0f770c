"""Cross-ciphertext (B, L, N) batching: bit-identity tests.

The batch axis is a pure widening: every batched operation must produce,
for each member, *exactly* the int64 residues the unbatched code path
produces for that member alone.  All comparisons in this file are exact
(``np.array_equal`` on tower data or digest equality) — there are no
tolerance-based checks except the one decrypt-accuracy sanity test.

Rank is the only difference between a solo and a batched ciphertext, so
one hypothesis property holds every kernel to it (the rank-3 result is
the stack of the rank-2 results) — the MP/DC/OC dataflow executors of
:mod:`repro.core.functional` included — and two pinned digests hold both
ranks to the outputs of the commit before the solo/batch fork was
removed.

Also covered: located rejection of un-stackable batches and the
no-per-``B``-tables cache guarantee (satellite of PR 8).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.batch import (
    BatchShapeError,
    batch_size,
    is_batched,
    stack_ciphertexts,
    unstack_ciphertexts,
)
from repro.ckks.encrypt import Ciphertext
from repro.ckks.keys import rotation_galois_element
from repro.ckks.keyswitch import key_switch
from repro.core import get_dataflow
from repro.core.functional import execute_dataflow
from repro.errors import ParameterError
from repro.ntt import transform
from repro.rns.poly import Domain, RNSPoly


def _encrypt_batchable(encoder, encryptor, context, vectors, level=None):
    """Encrypt one ciphertext per vector at a shared level."""
    level = context.params.max_level if level is None else level
    cts = []
    for vec in vectors:
        pt = encoder.encode(vec, level=level)
        cts.append(encryptor.encrypt(pt))
    return cts


def _vectors(encoder, count, seed=5):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, encoder.num_slots) for _ in range(count)]


@pytest.fixture(scope="module")
def rotation_keys(context, keygen):
    n = context.params.n
    return {
        s: keygen.galois_key(rotation_galois_element(s, n)) for s in (1, 2, -1)
    }


# -- stacking ------------------------------------------------------------------


class TestStacking:
    def test_stack_roundtrip_exact(self, context, encoder, encryptor):
        cts = _encrypt_batchable(
            encoder, encryptor, context, _vectors(encoder, 3)
        )
        batch = stack_ciphertexts(cts)
        assert is_batched(batch) and batch_size(batch) == 3
        back = unstack_ciphertexts(batch)
        for original, member in zip(cts, back):
            assert np.array_equal(original.c0.data, member.c0.data)
            assert np.array_equal(original.c1.data, member.c1.data)
            assert member.level == original.level
            assert member.scale == original.scale

    def test_single_member_stack(self, context, encoder, encryptor):
        (ct,) = _encrypt_batchable(
            encoder, encryptor, context, _vectors(encoder, 1)
        )
        batch = stack_ciphertexts([ct])
        assert batch_size(batch) == 1
        assert np.array_equal(batch.c0.member(0).data, ct.c0.data)

    def test_mixed_level_rejected_with_location(
        self, context, encoder, encryptor, evaluator
    ):
        a, b = _encrypt_batchable(
            encoder, encryptor, context, _vectors(encoder, 2)
        )
        b = evaluator.rescale(
            evaluator.multiply_plain(
                b, encoder.encode(np.ones(encoder.num_slots), level=b.level)
            )
        )
        with pytest.raises(BatchShapeError) as excinfo:
            stack_ciphertexts([a, b])
        message = str(excinfo.value)
        assert "batch[1]" in message
        assert "level" in message
        assert isinstance(excinfo.value, ParameterError)

    def test_unstack_plain_ciphertext_is_copy(
        self, context, encoder, encryptor
    ):
        (ct,) = _encrypt_batchable(
            encoder, encryptor, context, _vectors(encoder, 1)
        )
        (member,) = unstack_ciphertexts(ct)
        assert np.array_equal(member.c0.data, ct.c0.data)
        assert member.c0 is not ct.c0


# -- rank-3 result == stack of rank-2 results ----------------------------------


class TestRankPolymorphism:
    @settings(max_examples=15, deadline=None)
    @given(bsz=st.integers(1, 4), seed=st.integers(0, 2**31))
    def test_stacked_result_is_stack_of_member_results(
        self, context, evaluator, relin_key, rotation_keys, bsz, seed
    ):
        """Every polynomial op and every key-switching kernel, on a
        (B, L, N) stack, equals the per-member results stacked — bit for
        bit, for B = 1 as for any other B."""
        rng = np.random.default_rng(seed)
        level = context.params.max_level
        basis, n = context.level_basis(level), context.params.n
        scalars = [int(v) for v in rng.integers(1, 2**20, level + 1)]

        def draw(domain):
            return [RNSPoly.random_uniform(basis, n, rng, domain)
                    for _ in range(bsz)]

        xs, ys, cs = draw(Domain.EVAL), draw(Domain.EVAL), draw(Domain.COEFF)

        def ct_of(c0, c1):
            return Ciphertext(c0, c1, level, context.params.scale)

        def halves(ct):
            return [ct.c0, ct.c1]

        def run_dataflow(name, poly):
            return list(execute_dataflow(get_dataflow(name), context, poly,
                                         relin_key, level))

        ops = {
            "+": lambda a, b, c: [a + b],
            "-": lambda a, b, c: [a - b],
            "neg": lambda a, b, c: [-a],
            "*": lambda a, b, c: [a * b],
            "scale_by": lambda a, b, c: [a.scale_by(scalars)],
            "to_eval": lambda a, b, c: [c.to_eval()],
            "to_coeff": lambda a, b, c: [a.to_coeff()],
            "automorphism": lambda a, b, c: [a.automorphism(5),
                                             c.automorphism(5)],
            "select_towers": lambda a, b, c: [a.select_towers([0, 2, 3])],
            "key_switch": lambda a, b, c: list(
                key_switch(context, a, relin_key, level)),
            "rescale": lambda a, b, c: halves(evaluator.rescale(ct_of(a, b))),
            "hoisted_rotations": lambda a, b, c: [
                half
                for ct in evaluator.hoisted_rotations(
                    ct_of(a, b), rotation_keys).values()
                for half in halves(ct)
            ],
            "execute_dataflow[MP]": lambda a, b, c: run_dataflow("MP", a),
            "execute_dataflow[DC]": lambda a, b, c: run_dataflow("DC", a),
            "execute_dataflow[OC]": lambda a, b, c: run_dataflow("OC", a),
        }
        stacks = [RNSPoly.stack(polys) for polys in (xs, ys, cs)]
        for name, op in ops.items():
            stacked = op(*stacks)
            per_member = [op(*member) for member in zip(xs, ys, cs)]
            for k, result in enumerate(stacked):
                expected = np.stack([outs[k].data for outs in per_member])
                assert np.array_equal(result.data, expected), name


class TestBatchedOps:
    """Evaluator calls on real ciphertexts at ragged batch sizes, exactly
    equal to the member loop."""

    @pytest.mark.parametrize("bsz", [1, 3, 5])
    def test_multiply_bit_identical(
        self, context, encoder, encryptor, evaluator, relin_key, bsz,
    ):
        xs = _encrypt_batchable(
            encoder, encryptor, context, _vectors(encoder, bsz, seed=11)
        )
        ys = _encrypt_batchable(
            encoder, encryptor, context, _vectors(encoder, bsz, seed=12)
        )
        batched = evaluator.multiply(
            stack_ciphertexts(xs), stack_ciphertexts(ys), relin_key
        )
        for member, x, y in zip(unstack_ciphertexts(batched), xs, ys):
            reference = evaluator.multiply(x, y, relin_key)
            assert np.array_equal(member.c0.data, reference.c0.data)
            assert np.array_equal(member.c1.data, reference.c1.data)

    @pytest.mark.parametrize("bsz", [1, 3])
    def test_rescale_bit_identical(
        self, context, encoder, encryptor, evaluator, bsz
    ):
        cts = _encrypt_batchable(
            encoder, encryptor, context, _vectors(encoder, bsz, seed=13)
        )
        pt = encoder.encode(
            np.full(encoder.num_slots, 0.5), level=cts[0].level
        )
        scaled = [evaluator.multiply_plain(ct, pt) for ct in cts]
        batched = evaluator.rescale(stack_ciphertexts(scaled))
        for member, ct in zip(unstack_ciphertexts(batched), scaled):
            reference = evaluator.rescale(ct)
            assert member.level == reference.level
            assert np.array_equal(member.c0.data, reference.c0.data)
            assert np.array_equal(member.c1.data, reference.c1.data)

    def test_rescale_matches_per_tower_oracle(
        self, context, encoder, encryptor, evaluator
    ):
        cts = _encrypt_batchable(
            encoder, encryptor, context, _vectors(encoder, 3, seed=14)
        )
        pt = encoder.encode(
            np.full(encoder.num_slots, 0.25), level=cts[0].level
        )
        scaled = [evaluator.multiply_plain(ct, pt) for ct in cts]
        level = scaled[0].level
        inv = context.rescale_inverses(level)
        fast = evaluator.rescale(stack_ciphertexts(scaled))
        for b, ct in enumerate(scaled):
            for half, got in ((ct.c0, fast.c0), (ct.c1, fast.c1)):
                oracle = evaluator._rescale_poly(half, level, inv)
                assert np.array_equal(got.data[b], oracle.data)

    @pytest.mark.parametrize("steps", [1, -2])
    def test_rotate_bit_identical(
        self, context, encoder, encryptor, evaluator, keygen, steps,
    ):
        n = context.params.n
        key = keygen.galois_key(rotation_galois_element(steps, n))
        cts = _encrypt_batchable(
            encoder, encryptor, context, _vectors(encoder, 3, seed=15)
        )
        batched = evaluator.apply_galois(
            stack_ciphertexts(cts), rotation_galois_element(steps, n), key
        )
        for member, ct in zip(unstack_ciphertexts(batched), cts):
            reference = evaluator.apply_galois(
                ct, rotation_galois_element(steps, n), key
            )
            assert np.array_equal(member.c0.data, reference.c0.data)
            assert np.array_equal(member.c1.data, reference.c1.data)

    def test_hoisted_rotations_bit_identical(
        self, context, encoder, encryptor, evaluator, rotation_keys
    ):
        keys = rotation_keys
        cts = _encrypt_batchable(
            encoder, encryptor, context, _vectors(encoder, 3, seed=16)
        )
        batched = evaluator.hoisted_rotations(
            stack_ciphertexts(cts), keys
        )
        for i, ct in enumerate(cts):
            reference = evaluator.hoisted_rotations(ct, keys)
            for s in keys:
                member = unstack_ciphertexts(batched[s])[i]
                assert np.array_equal(
                    member.c0.data, reference[s].c0.data
                )
                assert np.array_equal(
                    member.c1.data, reference[s].c1.data
                )


# -- facade --------------------------------------------------------------------


class TestCipherBatchFacade:
    @pytest.fixture(scope="class")
    def session(self):
        from repro.api import FHESession

        return FHESession.create("tiny_ci", seed=21)

    def test_encrypt_batch_matches_encrypt_many(self, session):
        vectors = _vectors_for_session(session, 3, seed=31)
        from repro.api import FHESession

        solo = FHESession.create("tiny_ci", seed=21)
        loose = solo.encrypt_many(vectors)
        batch = session.encrypt_batch(vectors)
        assert batch.batch_size == 3
        for member, ct in zip(batch.members(), loose):
            assert np.array_equal(member.ciphertext.c0.data, ct.ciphertext.c0.data)
            assert np.array_equal(member.ciphertext.c1.data, ct.ciphertext.c1.data)

    def test_fluent_ops_bit_identical(self, session):
        from repro.api import CipherBatch

        vectors = _vectors_for_session(session, 3, seed=32)
        loose = session.encrypt_many(vectors)
        batch = CipherBatch.from_vectors(loose)
        combined_batch = (batch * batch + batch) << 1
        for i, ct in enumerate(loose):
            reference = (ct * ct + ct) << 1
            member = combined_batch.member(i)
            assert np.array_equal(
                member.ciphertext.c0.data, reference.ciphertext.c0.data
            )
            assert np.array_equal(
                member.ciphertext.c1.data, reference.ciphertext.c1.data
            )

    def test_decrypt_shape_and_accuracy(self, session):
        vectors = _vectors_for_session(session, 4, seed=33)
        decoded = session.encrypt_batch(vectors).decrypt()
        assert decoded.shape == (4, session.num_slots)
        assert np.max(np.abs(decoded - np.stack(vectors))) < 1e-3

    def test_mixed_session_rejected(self, session):
        from repro.api import CipherBatch, FHESession

        other = FHESession.create("tiny_ci", seed=22)
        a = session.encrypt(_vectors_for_session(session, 1, seed=34)[0])
        b = other.encrypt(_vectors_for_session(other, 1, seed=34)[0])
        with pytest.raises(ParameterError, match=r"batch\[1\]"):
            CipherBatch.from_vectors([a, b])


def _vectors_for_session(session, count, seed):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, session.num_slots) for _ in range(count)]


# -- batched bootstrap ---------------------------------------------------------


class TestBatchedBootstrap:
    """One stacked pipeline pass == per-member bootstraps, bit for bit."""

    def test_bootstrap_bit_identical(self):
        from repro.api import FHESession

        from repro.api import CipherBatch

        session = FHESession.create("n7_boot", seed=21)
        vectors = _vectors_for_session(session, 2, seed=41)
        vectors = [0.2 * v for v in vectors]
        loose = session.encrypt_many(vectors, level=0)
        batch = CipherBatch.from_vectors(loose)
        refreshed_batch = batch.bootstrap()
        assert refreshed_batch.batch_size == 2
        for i, ct in enumerate(loose):
            reference = ct.bootstrap()
            member = refreshed_batch.member(i)
            assert member.ciphertext.level == reference.ciphertext.level
            assert np.array_equal(
                member.ciphertext.c0.data, reference.ciphertext.c0.data
            )
            assert np.array_equal(
                member.ciphertext.c1.data, reference.ciphertext.c1.data
            )


# -- cross-commit identity -----------------------------------------------------


def _digest(handle):
    raw = handle.ciphertext
    return hashlib.sha256(
        raw.c0.data.tobytes() + raw.c1.data.tobytes()
    ).hexdigest()


class TestCrossCommitIdentity:
    """SHA-256 of two outputs, first recorded at the last commit that
    still had separate solo and batch kernels (through its solo path) and
    re-pinned when BConv's lift was centred, which changes every key
    switch's residues.  Both ranks must keep reproducing them: a solo
    run, and member 0 of a B=3 batch whose member 0 is that same
    ciphertext."""

    BOOT = "0a6b603ec65d8793b403d8093be6f55bc947b26f08787e42bcf8fbba55c49e45"
    CIRCUIT = "644bd3e3da034297a347528449a677429e3c852dd167792881f321a10cf21e2c"

    def test_n7_boot_bootstrap(self):
        from repro.api import CipherBatch, FHESession

        session = FHESession.create("n7_boot", seed=3)
        rng = np.random.default_rng(3)
        values = rng.uniform(-0.2, 0.2, (3, session.num_slots))
        cts = session.encrypt_many(values, level=0)
        assert _digest(cts[0].bootstrap()) == self.BOOT
        batch = CipherBatch.from_vectors(cts).bootstrap()
        assert _digest(batch.member(0)) == self.BOOT

    def test_depth2_circuit_at_n4096(self):
        from repro.api import CipherBatch, FHESession

        def circuit(a, b):
            y = a * b
            for step in (1, 2, 4):
                y = y + (y << step)
            return y * a

        session = FHESession.create("n10_fast", n=1 << 12, seed=3)
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (3, session.num_slots))
        b = rng.uniform(-1, 1, (3, session.num_slots))
        # Member 0's two encryptions draw first, as in the recorded run.
        ct_a, ct_b = [session.encrypt(a[0])], [session.encrypt(b[0])]
        assert _digest(circuit(ct_a[0], ct_b[0])) == self.CIRCUIT
        ct_a += session.encrypt_many(a[1:])
        ct_b += session.encrypt_many(b[1:])
        out = circuit(CipherBatch.from_vectors(ct_a),
                      CipherBatch.from_vectors(ct_b))
        assert _digest(out.member(0)) == self.CIRCUIT


class TestBenchShapedCircuit:
    """The B=8 depth-2 circuit of the ``fhe_hks_batch`` benchmark at
    N=2^12.  Its three rotations' key-switch noise once had a constant
    per-coefficient mean (BConv's non-negative lift), which the canonical
    embedding summed coherently into a few slots: these two seeds read
    0.059 and 0.052, over the benchmark's 0.05 gate."""

    @pytest.mark.parametrize("seed", [26, 111])
    def test_max_error_is_small(self, seed):
        from repro.api import FHESession

        session = FHESession.create("n10_fast", n=1 << 12, seed=seed)
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, (8, session.num_slots))
        b = rng.uniform(-1.0, 1.0, (8, session.num_slots))
        ct_a, ct_b = session.encrypt_batch(a), session.encrypt_batch(b)
        y, want = ct_a * ct_b, a * b
        for step in (1, 2, 4):
            y = y + (y << step)
            want = want + np.roll(want, -step, axis=-1)
        out = y * ct_a
        assert float(np.max(np.abs(out.decrypt() - want * a))) <= 0.01


# -- cache sharing across B (no per-batch tables) ------------------------------


class TestBatchCacheSharing:
    def test_no_power_tables_built_per_batch_size(self, context, rng):
        """Widening B must never rebuild twiddle/power tables: all
        (L, ·) tables broadcast over the batch axis."""
        from repro.ntt.batch import get_batch_ntt

        n = context.params.n
        moduli = context.q_basis.moduli[:3]
        engine = get_batch_ntt(n, moduli)
        # Warm the engine once (any residual table building happens now).
        warm = rng.integers(0, 2**20, size=(len(moduli), n), dtype=np.int64)
        engine.forward(warm)
        before = transform.POWER_TABLE_BUILDS
        for bsz in (1, 2, 3, 5, 8):
            data = rng.integers(
                0, 2**20, size=(bsz, len(moduli), n), dtype=np.int64
            )
            out = engine.forward(data)
            back = engine.inverse(out)
            assert np.array_equal(back, data)
        assert transform.POWER_TABLE_BUILDS == before, (
            "processing new batch sizes rebuilt power tables — a table "
            "must depend only on (n, q), never on B"
        )

    def test_scratch_arena_bounded(self, context, rng, monkeypatch):
        """Every engine works through one scratch arena of chunk-sized
        rows: its footprint is fixed by the chunk size, not by how many
        engines exist or how many leading shapes they have seen."""
        from repro.ntt import modmath
        from repro.ntt.batch import BatchNTT

        monkeypatch.setattr(modmath, "_ARENA", modmath._Arena())
        n = context.params.n
        chain = context.q_basis.moduli
        cap = 5 * 8 * modmath.CHUNK_ELEMS  # three float64 + two int64 rows

        def run(engine_count, shapes):
            for towers in range(1, engine_count + 1):
                engine = BatchNTT(n, chain[:towers])
                for lead in shapes:
                    data = rng.integers(
                        0, 2**20, size=lead + (towers, n), dtype=np.int64
                    )
                    assert np.array_equal(
                        engine.inverse(engine.forward(data)), data
                    )
            return modmath._ARENA.nbytes

        # 256 members of one N=256 tower already exceed one chunk.
        few = run(2, [(), (256,)])
        many = run(len(chain), [(b,) for b in range(1, 24)] + [(256,), (2, 160)])
        assert 0 < few == many <= cap

    def test_second_bootstrap_builds_no_engine(self):
        """The engine cache is bounded, but a bootstrap's working set
        fits: repeating one constructs no engine and no power table."""
        from repro.api import FHESession
        from repro.ntt.batch import get_batch_ntt

        session = FHESession.create("n7_boot", seed=3)
        ct = session.encrypt(
            np.linspace(-0.2, 0.2, session.num_slots), level=0
        )
        ct.bootstrap()
        engines = get_batch_ntt.cache_info()
        tables = transform.POWER_TABLE_BUILDS
        ct.bootstrap()
        after = get_batch_ntt.cache_info()
        assert after.misses == engines.misses
        assert after.currsize <= after.maxsize
        assert transform.POWER_TABLE_BUILDS == tables
