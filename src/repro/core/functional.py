"""Functional execution of dataflow schedules on real RNS data.

The :class:`FunctionalEmitter` implements the same emitter interface as
:class:`~repro.core.hks_ops.HKSEmitter`, but each method performs the
actual modular arithmetic on tower rows instead of emitting tasks.  Because
every decision drives the emitter through *its own* operation order,
running it here proves the order is a valid HKS computation: modular
addition is exact and commutative, so MP, DC, OC and every generic point
must produce results bit-identical to the reference
:func:`repro.ckks.keyswitch.key_switch` — and the tests assert exactly
that.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.ckks.context import CKKSContext
from repro.ckks.keys import KeySwitchKey
from repro.core.dataflow import Dataflow
from repro.errors import ScheduleError
from repro.ntt.modmath import add_mod, mul_mod, sub_mod
from repro.rns.basis import RNSBasis
from repro.rns.bconv import get_converter
from repro.rns.poly import Domain, RNSPoly, get_ntt_context

HALVES = (0, 1)


class FunctionalEmitter:
    """Executes emitter calls on concrete tower data.

    Parameters
    ----------
    context / level:
        CKKS context and the level of the input polynomial.  The digit
        partition follows :meth:`CKKSContext.digit_indices`.
    poly:
        The EVAL-domain polynomial being key-switched (e.g. the ``d2``
        part after a tensor product).  For a ``(B, L, N)`` stack every
        tower-row buffer carries the leading batch axis, so each schedule
        step is one ``(B, N)`` kernel pass instead of B: the per-tower
        NTTs transform row stacks, BConv broadcasts its hat-table matmul
        over the batch and the modular helpers broadcast elementwise.
    key:
        The hybrid switching key whose digit pairs are applied.
    """

    def __init__(
        self,
        context: CKKSContext,
        poly: RNSPoly,
        key: KeySwitchKey,
        level: int,
    ):
        if poly.domain is not Domain.EVAL:
            raise ScheduleError("functional HKS expects an EVAL-domain input")
        self.context = context
        self.level = level
        self.n = poly.n
        self._digits = context.digit_indices(level)
        self._extended = context.extended_basis(level)
        self._pairs = key.restricted(context, level)
        if len(self._pairs) < len(self._digits):
            raise ScheduleError("key has fewer digits than the level needs")
        self.digit_of: List[int] = []
        for d, group in enumerate(self._digits):
            self.digit_of.extend([d] * len(group))
        self.digit_of.extend([-1] * len(context.p_basis))
        #: BConv chunk length a decision may set; exact arithmetic
        #: accumulates every source at once, so it is ignored.
        self.bconv_chunk = 0
        # Tower-row storage, keyed like the schedule emitter's buffers.
        self._in = poly.data
        self._icoef: Dict[int, np.ndarray] = {}
        self._bc: Dict[Tuple[int, int], np.ndarray] = {}
        self._ext: Dict[Tuple[int, int], np.ndarray] = {}
        self._acc: Dict[Tuple[int, int], np.ndarray] = {}
        self._mdc: Dict[Tuple[int, int], np.ndarray] = {}
        self._mdb: Dict[Tuple[int, int], np.ndarray] = {}
        self._mde: Dict[Tuple[int, int], np.ndarray] = {}
        self._out: Dict[Tuple[int, int], np.ndarray] = {}

    # -- geometry (emitter interface) ------------------------------------------

    @property
    def dnum(self) -> int:
        return len(self._digits)

    @property
    def kl(self) -> int:
        return self.level + 1

    @property
    def kp(self) -> int:
        return len(self.context.p_basis)

    def digit_towers(self, d: int) -> List[int]:
        return list(self._digits[d])

    def q_region(self) -> range:
        return range(self.kl)

    def p_region(self) -> range:
        return range(self.kl, self.kl + self.kp)

    def all_ext(self) -> range:
        return range(self.kl + self.kp)

    def _modulus(self, j: int) -> int:
        return self._extended.moduli[j]

    # -- ModUp ------------------------------------------------------------------

    def max_pinned_digits(self) -> int:
        """Every digit: memory is not modelled here."""
        return self.dnum

    def prefetch_evk(self, d: int, j: int) -> None:
        """Keys are read where they are applied; nothing to load ahead."""

    def intt_input(self, t: int, priority: int = 0) -> None:
        q = self._modulus(t)
        self._icoef[t] = get_ntt_context(self.n, q).inverse(self._in[..., t, :])

    def bconv(self, d: int, j: int) -> None:
        towers = self.digit_towers(d)
        source = self.context.q_basis.subbasis(towers)
        target = RNSBasis([self._modulus(j)])
        conv = get_converter(source, target)
        rows = np.stack([self._icoef[t] for t in towers], axis=-2)
        self._bc[(d, j)] = conv.convert(rows)[..., 0, :]

    def ntt_ext(self, d: int, j: int) -> None:
        q = self._modulus(j)
        self._ext[(d, j)] = get_ntt_context(self.n, q).forward(self._bc.pop((d, j)))

    def mulkey(self, d: int, j: int) -> None:
        q = self._modulus(j)
        src = (self._in[..., j, :] if self.digit_of[j] == d
               else self._ext.pop((d, j)))
        b_d, a_d = self._pairs[d]
        for h, half in zip(HALVES, (b_d, a_d)):
            prod = mul_mod(src, half.data[j], q)
            if (h, j) in self._acc:
                self._acc[(h, j)] = add_mod(self._acc[(h, j)], prod, q)
            else:
                self._acc[(h, j)] = prod

    def free_digit_icoef(self, d: int) -> None:
        for t in self.digit_towers(d):
            self._icoef.pop(t, None)

    # -- ModDown ------------------------------------------------------------------

    def md_intt(self, j: int, h: int) -> None:
        q = self._modulus(j)
        self._mdc[(h, j)] = get_ntt_context(self.n, q).inverse(self._acc.pop((h, j)))

    def md_bconv(self, i: int, h: int) -> None:
        target = RNSBasis([self._modulus(i)])
        conv = get_converter(self.context.p_basis, target)
        rows = np.stack([self._mdc[(h, j)] for j in self.p_region()], axis=-2)
        self._mdb[(h, i)] = conv.convert(rows)[..., 0, :]

    def md_ntt(self, i: int, h: int) -> None:
        q = self._modulus(i)
        self._mde[(h, i)] = get_ntt_context(self.n, q).forward(self._mdb.pop((h, i)))

    def md_finish(self, i: int, h: int) -> None:
        q = self._modulus(i)
        diff = sub_mod(self._acc.pop((h, i)), self._mde.pop((h, i)), q)
        self._out[(h, i)] = mul_mod(diff, self.context.p_inv_mod_q[i], q)

    def free_mdc(self, h: int) -> None:
        self._mdc = {k: v for k, v in self._mdc.items() if k[0] != h}

    # -- result -----------------------------------------------------------------------

    def result(self) -> Tuple[RNSPoly, RNSPoly]:
        """Assemble the two output polynomials over the level basis."""
        basis = self.context.level_basis(self.level)
        halves = []
        for h in HALVES:
            rows = [self._out[(h, i)] for i in self.q_region()]
            halves.append(RNSPoly(basis, np.stack(rows, axis=-2), Domain.EVAL))
        return halves[0], halves[1]


def execute_dataflow(
    dataflow: Dataflow,
    context: CKKSContext,
    poly: RNSPoly,
    key: KeySwitchKey,
    level: int,
) -> Tuple[RNSPoly, RNSPoly]:
    """Run one dataflow's operation order on real data; returns (c0', c1').

    ``poly`` may be a ``(B, L, N)`` stack: per-member results are
    bit-identical to running each member alone (and hence to the
    reference ``key_switch``) — the batch axis only widens each pass.
    """
    em = FunctionalEmitter(context, poly, key, level)
    dataflow.schedule(em)
    return em.result()
