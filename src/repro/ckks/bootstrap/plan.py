"""Structural op accounting for the bootstrap circuit.

A :class:`BootstrapPlan` knows the *shape* of the pipeline — the diagonal
sets of every grouped DFT factor and the Chebyshev ladder of EvalMod —
and derives the homomorphic operation counts from it without touching a
ciphertext.  The same arithmetic serves two masters:

* the functional pipeline (:mod:`repro.ckks.bootstrap.pipeline`) builds a
  plan from its materialized matrices, and the tests assert the derived
  counts match an instrumented run of the real circuit op-for-op;
* the ``BOOT`` accelerator workload (:mod:`repro.workloads`) builds a
  plan at paper scale (``N = 2^16``, 32k slots) — far too large to
  execute functionally — and feeds the counts to the dataflow/RPU
  backends, so ``estimate("BOOT")`` prices exactly the circuit the
  functional layer runs.

Every rotation, conjugation and ciphertext multiply is one hybrid key
switch — ``hks_calls`` is the number the paper's analysis revolves around
(bootstrapping is *the* HKS-dominated workload).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, sqrt
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.ckks.bootstrap.dft import grouped_diagonal_sets
from repro.ckks.polyeval import chebyshev_ladder_order
from repro.errors import ParameterError


@dataclass(frozen=True)
class OpCounts:
    """Homomorphic operation counts of (part of) a circuit."""

    rotations: int = 0
    conjugations: int = 0
    ct_multiplies: int = 0
    pt_multiplies: int = 0
    additions: int = 0
    rescales: int = 0

    @property
    def hks_calls(self) -> int:
        """Hybrid key switches: every rotation, conjugation and multiply."""
        return self.rotations + self.conjugations + self.ct_multiplies

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            self.rotations + other.rotations,
            self.conjugations + other.conjugations,
            self.ct_multiplies + other.ct_multiplies,
            self.pt_multiplies + other.pt_multiplies,
            self.additions + other.additions,
            self.rescales + other.rescales,
        )

    def scaled(self, factor: int) -> "OpCounts":
        return OpCounts(*(factor * v for v in (
            self.rotations, self.conjugations, self.ct_multiplies,
            self.pt_multiplies, self.additions, self.rescales,
        )))

    def as_dict(self) -> Dict[str, int]:
        return {
            "rotations": self.rotations,
            "conjugations": self.conjugations,
            "ct_multiplies": self.ct_multiplies,
            "pt_multiplies": self.pt_multiplies,
            "additions": self.additions,
            "rescales": self.rescales,
            "hks_calls": self.hks_calls,
        }


def bsgs_rotation_steps(dim: int,
                        diagonals: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Baby and giant rotation steps of a BSGS pass over ``diagonals``.

    Mirrors :meth:`repro.ckks.linear.LinearTransform.required_rotations`
    exactly: diagonal ``d`` decomposes as ``i*ceil(sqrt(dim)) + j``; zero
    baby/giant components cost nothing.
    """
    baby_size = int(ceil(sqrt(dim)))
    babies = sorted({d % baby_size for d in diagonals if d % baby_size})
    giants = sorted({
        (d // baby_size) * baby_size for d in diagonals if d // baby_size
    })
    return babies, giants


def transform_counts(dim: int, diagonals: FrozenSet[int]) -> OpCounts:
    """Ops of one BSGS linear-transform factor over ``diagonals``."""
    if not diagonals:
        raise ParameterError("a transform factor needs at least one diagonal")
    babies, giants = bsgs_rotation_steps(dim, diagonals)
    baby_size = int(ceil(sqrt(dim)))
    groups: Dict[int, int] = {}
    for d in diagonals:
        groups[d // baby_size] = groups.get(d // baby_size, 0) + 1
    inner_adds = sum(count - 1 for count in groups.values())
    return OpCounts(
        rotations=len(babies) + len(giants),
        pt_multiplies=len(diagonals),
        additions=inner_adds + (len(groups) - 1),
        rescales=1,
    )


def evalmod_branch_counts(ladder: Sequence[int]) -> OpCounts:
    """Ops of one EvalMod branch (normalize + ladder + combine).

    ``ladder`` is the scaled-Chebyshev build order; odd rungs above 1 pay
    one extra plaintext multiply to scale-match the ``S_1`` subtrahend,
    and each odd-degree coefficient contributes one combine term.
    """
    rungs = [k for k in ladder if k > 1]
    odd_rungs = sum(1 for k in rungs if k % 2 == 1)
    terms = sum(1 for k in ladder if k % 2 == 1)
    return OpCounts(
        ct_multiplies=len(rungs),
        pt_multiplies=1 + odd_rungs + terms,
        additions=len(rungs) + (terms - 1),
        rescales=1 + len(rungs) + terms,
    )


@dataclass(frozen=True)
class BootstrapPlan:
    """Shape of one bootstrap circuit, sufficient to count every op."""

    num_slots: int
    cts_diagonals: Tuple[FrozenSet[int], ...]
    stc_diagonals: Tuple[FrozenSet[int], ...]
    sine_periods: int
    sine_degree: int
    ladder: Tuple[int, ...]

    @classmethod
    def from_shape(
        cls,
        num_slots: int,
        cts_stages: int = 1,
        stc_stages: int = 1,
        sine_periods: int = 5,
        sine_degree: int = 31,
    ) -> "BootstrapPlan":
        """Structural plan (no matrices) — usable at accelerator scale."""
        mask = [0.0] * (sine_degree + 1)
        for k in range(1, sine_degree + 1, 2):
            mask[k] = 1.0
        return cls(
            num_slots=num_slots,
            cts_diagonals=tuple(
                frozenset(s) for s in
                grouped_diagonal_sets(num_slots, cts_stages, reverse=True)
            ),
            stc_diagonals=tuple(
                frozenset(s) for s in
                grouped_diagonal_sets(num_slots, stc_stages, reverse=False)
            ),
            sine_periods=sine_periods,
            sine_degree=sine_degree,
            ladder=tuple(chebyshev_ladder_order(mask)),
        )

    # -- per-phase counts -----------------------------------------------------

    def coeff_to_slot_counts(self) -> OpCounts:
        total = OpCounts()
        for diag in self.cts_diagonals:
            total = total + transform_counts(self.num_slots, diag)
        return total

    def slot_to_coeff_counts(self) -> OpCounts:
        total = OpCounts()
        for diag in self.stc_diagonals:
            total = total + transform_counts(self.num_slots, diag)
        return total

    def evalmod_counts(self) -> OpCounts:
        # Conjugate split (1 conj + add/sub), two branches, recombine add.
        split = OpCounts(conjugations=1, additions=2)
        recombine = OpCounts(additions=1)
        return split + evalmod_branch_counts(self.ladder).scaled(2) + recombine

    def op_counts(self) -> OpCounts:
        """Whole pipeline (ModRaise itself is key-switch free)."""
        return (
            self.coeff_to_slot_counts()
            + self.evalmod_counts()
            + self.slot_to_coeff_counts()
        )

    def phase_hks_calls(self) -> Dict[str, int]:
        """HKS calls by pipeline stage (the benchmark's per-stage view)."""
        return {
            "coeff_to_slot": self.coeff_to_slot_counts().hks_calls,
            "eval_mod": self.evalmod_counts().hks_calls,
            "slot_to_coeff": self.slot_to_coeff_counts().hks_calls,
        }

    def levels_consumed(self) -> int:
        """Levels the pipeline burns: one per DFT factor, one to normalize
        into the Chebyshev domain, ``ceil(log2 degree)`` for the ladder and
        one for the combine."""
        k_max = self.ladder[-1] if self.ladder else 1
        ladder_depth = max(1, (k_max - 1).bit_length())
        return (
            len(self.cts_diagonals) + 1 + ladder_depth + 1
            + len(self.stc_diagonals)
        )
