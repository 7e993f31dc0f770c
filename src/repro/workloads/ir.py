"""Phase-structured workload IR: circuits as ordered, level-aware phases.

The flat representation this package grew out of priced a whole circuit
at one top-of-chain :class:`~repro.params.BenchmarkSpec`, even though a
real CKKS circuit descends the modulus chain and every level strictly
shrinks the tower count — and with it the cost of every hybrid key
switch.  The IR here keeps that structure:

* a :class:`Phase` is a run of homomorphic ops (:class:`HEOpMix`) priced
  at one point of the chain (its own ``BenchmarkSpec``, typically derived
  via :func:`level_spec`);
* a :class:`WorkloadProgram` is an ordered list of phases — the unit both
  estimation backends fold over, preserving a per-phase breakdown on the
  resulting report;
* the flat pricing survives as the one-phase degenerate program
  (:meth:`WorkloadProgram.single`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ParameterError
from repro.params import BenchmarkSpec
from repro.workloads.mix import HEOpMix

#: Structural phase kinds: ``"app"`` for application slices, the rest for
#: the three bootstrap stages.  Consumers classify phases by this tag —
#: never by parsing the (free-form, prefix-decorated) label string.
PHASE_KINDS = ("app", "cts", "evalmod", "stc")

#: The subset of :data:`PHASE_KINDS` that belongs to a bootstrap circuit.
BOOTSTRAP_KINDS = ("cts", "evalmod", "stc")


def level_spec(base: BenchmarkSpec, towers: int,
               name: Optional[str] = None) -> BenchmarkSpec:
    """Re-parameterize ``base`` at a lower point of its modulus chain.

    ``towers`` is the active chain tower count (the paper's ``l``) at the
    phase being priced.  The auxiliary basis ``P`` never shrinks, and the
    digit width ``alpha`` is fixed at key-generation time, so the digit
    count drops to ``ceil(towers / alpha)`` as the circuit descends — the
    same digit *count* the functional layer's
    :meth:`CKKSContext.digit_indices` uses at lower levels.  One
    approximation: :class:`BenchmarkSpec` re-derives its digit partition
    from ``(towers, dnum)``, so where ``ceil(towers / dnum)`` falls below
    the base ``alpha`` the split differs slightly from the functional
    layer's fixed-width one (e.g. towers=10 prices digits (5,5) where the
    real partition is (6,4)) — tower totals and digit counts, the
    first-order cost drivers, match exactly.
    """
    if not 1 <= towers <= base.kl:
        raise ParameterError(
            f"towers={towers} out of range [1, {base.kl}] for {base.name}"
        )
    if towers == base.kl and name is None:
        return base
    dnum = max(1, min(base.dnum, -(-towers // base.alpha)))
    return BenchmarkSpec(
        name or f"{base.name}@L{towers}",
        log_n=base.log_n,
        kl=towers,
        kp=base.kp,
        dnum=dnum,
    )


@dataclass(frozen=True)
class Phase:
    """One contiguous run of a circuit priced at a single chain point.

    ``kind`` is the phase's structural role (one of :data:`PHASE_KINDS`):
    an application slice or one of the three bootstrap stages.  Labels
    stay free-form display strings (deep programs prefix them with
    ``bootN/`` etc.); any consumer that needs to know *what* a phase is
    reads ``kind``, which also feeds every plan digest.
    """

    label: str
    spec: BenchmarkSpec
    mix: HEOpMix
    kind: str = "app"

    def __post_init__(self) -> None:
        if not self.label:
            raise ParameterError("a phase needs a non-empty label")
        if self.kind not in PHASE_KINDS:
            raise ParameterError(
                f"unknown phase kind {self.kind!r}; choose from {PHASE_KINDS}"
            )

    @property
    def hks_calls(self) -> int:
        return self.mix.hks_calls

    @property
    def is_bootstrap(self) -> bool:
        """Whether this phase is a bootstrap stage (vs application work)."""
        return self.kind in BOOTSTRAP_KINDS

    def relabeled(self, label: str) -> "Phase":
        return Phase(label, self.spec, self.mix, self.kind)


@dataclass(frozen=True)
class WorkloadProgram:
    """An ordered sequence of phases — the estimable circuit IR.

    Back-compat accessors (``spec``, ``mix``, ``hks_calls``) present the
    aggregate view the flat representation used to offer, so callers that
    only need totals keep working unchanged.
    """

    name: str
    phases: Tuple[Phase, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("a workload program needs a name")
        if not self.phases:
            raise ParameterError(f"program {self.name!r} has no phases")
        object.__setattr__(self, "phases", tuple(self.phases))
        labels = [p.label for p in self.phases]
        if len(set(labels)) != len(labels):
            raise ParameterError(
                f"program {self.name!r} has duplicate phase labels"
            )

    # -- construction ----------------------------------------------------------

    @classmethod
    def single(cls, name: str, spec: BenchmarkSpec, mix: HEOpMix,
               description: str = "") -> "WorkloadProgram":
        """The degenerate one-phase program (== the legacy flat pricing)."""
        return cls(name, (Phase(name, spec, mix),), description)

    # -- aggregate (flat-compatible) views -------------------------------------

    @property
    def spec(self) -> BenchmarkSpec:
        """The top-of-chain parameterization: the widest phase's spec.

        Programs need not *start* at the top (deep scenarios open with an
        app segment inside the post-bootstrap window), so the flat view
        picks the phase with the most active towers — flattening a
        program onto this spec is always an upper bound on its cost.
        """
        return max((p.spec for p in self.phases), key=lambda s: s.kl)

    @property
    def mix(self) -> HEOpMix:
        """All phase op counts summed — the flat view of the circuit."""
        total = HEOpMix(0, 0, 0, 0)
        for phase in self.phases:
            total = total + phase.mix
        return total

    @property
    def hks_calls(self) -> int:
        return sum(p.hks_calls for p in self.phases)

    def phase_hks_calls(self) -> Dict[str, int]:
        """HKS calls by phase label (insertion-ordered)."""
        return {p.label: p.hks_calls for p in self.phases}

    @property
    def num_bootstrap_phases(self) -> int:
        """How many phases are bootstrap stages (by structural kind)."""
        return sum(1 for p in self.phases if p.is_bootstrap)

    def __iter__(self) -> Iterator[Phase]:
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)

    def __repr__(self) -> str:
        return (
            f"WorkloadProgram({self.name!r}, {len(self.phases)} phases, "
            f"{self.hks_calls} HKS)"
        )


def as_program(workload: WorkloadProgram) -> WorkloadProgram:
    """Check that ``workload`` is the phase IR and hand it back."""
    if isinstance(workload, WorkloadProgram):
        return workload
    raise ParameterError(
        f"expected WorkloadProgram, got {type(workload).__name__}"
    )
