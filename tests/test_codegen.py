"""B1K codegen tests: generated kernels match the numpy references bit-exactly."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.ntt.primes import generate_primes
from repro.ntt.transform import NTTContext
from repro.rns.basis import RNSBasis
from repro.rns.bconv import BasisConverter
from repro.rpu.codegen import (
    build_bconv_kernel,
    build_moddown_finish_kernel,
    build_mulkey_kernel,
    build_ntt_kernel,
    run_kernel,
)
from repro.rpu.vm import B1KVM

N = 256
Q = generate_primes(1, N, 28)[0]
RNG = np.random.default_rng(7)


def fresh_vm(vl=N):
    return B1KVM(vector_length=vl, memory_words=1 << 16)


class TestNTTKernel:
    @pytest.mark.parametrize("n", [N, 1024])
    def test_forward_matches_reference(self, n):
        q = generate_primes(1, n, 28)[0]
        a = RNG.integers(0, q, n)
        image = build_ntt_kernel(n, q, inverse=False)
        out = run_kernel(image, fresh_vm(n), {image.input_address: a}, n)
        assert np.array_equal(out, NTTContext(n, q).forward(a))

    def test_inverse_matches_reference(self):
        ctx = NTTContext(N, Q)
        a = RNG.integers(0, Q, N)
        image = build_ntt_kernel(N, Q, inverse=True)
        out = run_kernel(image, fresh_vm(), {image.input_address: ctx.forward(a)}, N)
        assert np.array_equal(out, a)

    def test_roundtrip_through_vm(self):
        a = RNG.integers(0, Q, N)
        fwd = build_ntt_kernel(N, Q, inverse=False)
        mid = run_kernel(fwd, fresh_vm(), {fwd.input_address: a}, N)
        inv = build_ntt_kernel(N, Q, inverse=True)
        back = run_kernel(inv, fresh_vm(), {inv.input_address: mid}, N)
        assert np.array_equal(back, a)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ParameterError):
            build_ntt_kernel(100, Q)

    def test_instruction_budget(self):
        """A full-vector NTT is ~8 instructions per stage."""
        image = build_ntt_kernel(N, Q)
        stages = N.bit_length() - 1
        assert len(image.program) <= 10 * stages + 10


class TestBConvKernel:
    def test_matches_reference(self):
        primes = generate_primes(5, N, 26)
        src = RNSBasis(primes[:4])
        target = primes[4]
        x = np.stack([RNG.integers(0, q, N) for q in src.moduli])
        image = build_bconv_kernel(list(src.moduli), target, N)
        vm = fresh_vm()
        image.load_into(vm)
        for i in range(4):
            vm.write_memory(i * N, x[i])
        vm.run(image.program)
        got = vm.read_memory(image.output_address, N)
        ref = BasisConverter(src, RNSBasis([target])).convert(x)[0]
        assert np.array_equal(got, ref)

    def test_modulus_register_file_usage(self):
        primes = generate_primes(3, N, 26)
        image = build_bconv_kernel(primes[:2], primes[2], N)
        assert set(image.moduli) == {0, 1, 2}


class TestPointwiseKernels:
    def test_mulkey_fresh(self):
        n = 1024
        image = build_mulkey_kernel(n, Q, accumulate=False)
        vm = B1KVM(vector_length=1024, memory_words=1 << 16)
        src = RNG.integers(0, Q, n)
        key = RNG.integers(0, Q, n)
        image.load_into(vm)
        vm.write_memory(0, src)
        vm.write_memory(n, key)
        vm.run(image.program)
        assert np.array_equal(vm.read_memory(image.output_address, n), src * key % Q)

    def test_mulkey_accumulate_tiled(self):
        n = 4096  # four vectors: exercises the scalar loop
        image = build_mulkey_kernel(n, Q, accumulate=True)
        vm = B1KVM(vector_length=1024, memory_words=1 << 16)
        src = RNG.integers(0, Q, n)
        key = RNG.integers(0, Q, n)
        acc = RNG.integers(0, Q, n)
        image.load_into(vm)
        vm.write_memory(0, src)
        vm.write_memory(n, key)
        vm.write_memory(2 * n, acc)
        vm.run(image.program)
        expected = (acc + src * key % Q) % Q
        assert np.array_equal(vm.read_memory(image.output_address, n), expected)

    def test_moddown_finish(self):
        from repro.ntt.modmath import inv_mod

        n = 1024
        p_inv = inv_mod(12345, Q)
        image = build_moddown_finish_kernel(n, Q, p_inv)
        vm = B1KVM(vector_length=1024, memory_words=1 << 16)
        acc = RNG.integers(0, Q, n)
        conv = RNG.integers(0, Q, n)
        image.load_into(vm)
        vm.write_memory(0, acc)
        vm.write_memory(n, conv)
        vm.run(image.program)
        expected = (acc - conv) % Q * p_inv % Q
        assert np.array_equal(vm.read_memory(image.output_address, n), expected)

    def test_non_multiple_tower_rejected(self):
        # 1500 > the 1K vector length and not a multiple of it.
        with pytest.raises(ParameterError):
            build_mulkey_kernel(1500, Q, accumulate=False)
