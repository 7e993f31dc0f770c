"""Instrumentation: count homomorphic ops of a real circuit execution.

:class:`CountingEvaluator` is a drop-in :class:`~repro.ckks.evaluator.
Evaluator` that tallies every operation it performs.  Running the actual
bootstrap pipeline under it yields the measured op profile the structural
:class:`~repro.ckks.bootstrap.plan.BootstrapPlan` must reproduce — the
tests pin the two together, which is what lets the ``BOOT`` accelerator
workload claim its HKS count is "derived from the real circuit".
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.ckks.bootstrap.plan import OpCounts
from repro.ckks.encrypt import Ciphertext
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeySwitchKey
from repro.rns.poly import RNSPoly


class CountingEvaluator(Evaluator):
    """Evaluator that counts rotations, multiplies, additions and rescales.

    Rotations that normalize to zero steps are not counted (they perform
    no key switch); hoisted batches count one rotation per produced
    ciphertext, since each still pays ApplyKey + ModDown.  Counts are per
    ciphertext, not per call: an operation on a ``(B, L, N)`` stack
    counts B times (one ``multiply`` there *is* B key switches), and so
    does a stacked group of independent items.

    Beside them, :attr:`calls` tallies invocations of each counted
    method: one per call, however many ciphertexts it carries.
    """

    def __init__(self, context):
        super().__init__(context)
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, int] = {
            "rotations": 0,
            "conjugations": 0,
            "ct_multiplies": 0,
            "pt_multiplies": 0,
            "additions": 0,
            "rescales": 0,
        }

    def snapshot(self) -> OpCounts:
        c = self.counters
        return OpCounts(
            rotations=c["rotations"],
            conjugations=c["conjugations"],
            ct_multiplies=c["ct_multiplies"],
            pt_multiplies=c["pt_multiplies"],
            additions=c["additions"],
            rescales=c["rescales"],
        )

    def reset(self) -> None:
        for key in self.counters:
            self.counters[key] = 0
        self.calls.clear()

    def _count(self, name: str, x: Ciphertext, times: int = 1) -> None:
        self.counters[name] += times * x.c0.batch_size

    def _call(self, method: str) -> None:
        self.calls[method] = self.calls.get(method, 0) + 1

    # -- counted operations ---------------------------------------------------

    def rotate(self, x: Ciphertext, steps: int, galois_key) -> Ciphertext:
        self._call("rotate")
        if steps % (self.context.params.n // 2) != 0:
            self._count("rotations", x)
        return super().rotate(x, steps, galois_key)

    def rotate_each(self, cts: Sequence[Ciphertext], steps: Sequence[int],
                    keys) -> List[Ciphertext]:
        self._call("rotate_each")
        for ct, step in zip(cts, steps):
            if step % (self.context.params.n // 2) != 0:
                self._count("rotations", ct)
        return super().rotate_each(cts, steps, keys)

    def hoisted_rotations(self, x: Ciphertext,
                          galois_keys: Dict[int, KeySwitchKey]):
        self._call("hoisted_rotations")
        self._count("rotations", x, len(galois_keys))
        return super().hoisted_rotations(x, galois_keys)

    def conjugate(self, x: Ciphertext, conj_key: KeySwitchKey) -> Ciphertext:
        self._call("conjugate")
        self._count("conjugations", x)
        return super().conjugate(x, conj_key)

    def multiply(self, x: Ciphertext, y: Ciphertext,
                 relin_key: KeySwitchKey) -> Ciphertext:
        self._call("multiply")
        self._count("ct_multiplies", x)
        return super().multiply(x, y, relin_key)

    def multiply_plain(self, x: Ciphertext, plaintext: RNSPoly,
                       plain_scale=None) -> Ciphertext:
        self._call("multiply_plain")
        self._count("pt_multiplies", x)
        return super().multiply_plain(x, plaintext, plain_scale)

    def dot_plain(self, cts: Sequence[Ciphertext],
                  plaintexts: Sequence[RNSPoly]) -> Ciphertext:
        """Counts as the ``multiply_plain`` and ``add`` fold it fuses."""
        self._call("dot_plain")
        self._count("pt_multiplies", cts[0], len(cts))
        self._count("additions", cts[0], len(cts) - 1)
        return super().dot_plain(cts, plaintexts)

    def add(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._call("add")
        self._count("additions", x)
        return super().add(x, y)

    def sub(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._call("sub")
        self._count("additions", x)
        return super().sub(x, y)

    def add_plain(self, x: Ciphertext, plaintext: RNSPoly,
                  plain_scale=None) -> Ciphertext:
        self._call("add_plain")
        self._count("additions", x)
        return super().add_plain(x, plaintext, plain_scale)

    def rescale(self, x: Ciphertext) -> Ciphertext:
        self._call("rescale")
        self._count("rescales", x)
        return super().rescale(x)
