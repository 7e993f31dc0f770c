"""Structural workload builders: circuits lowered to level-aware phases.

``BOOT`` lowers the same :class:`~repro.ckks.bootstrap.plan.BootstrapPlan`
arithmetic the functional pipeline is instrumentation-tested against into
per-stage phases — CoeffToSlot's grouped DFT factors, EvalMod and
SlotToCoeff each priced at their true (descending) point of the modulus
chain.  The deep scenarios compose it: ``RESNET_BOOT`` interleaves
ResNet-20-class inference segments with mid-network refreshes, ``HELR``
runs k encrypted logistic-regression training iterations with one
bootstrap each.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import ParameterError
from repro.params import BenchmarkSpec
from repro.sched.space import HELR_DECISION, RESNET_DECISION
from repro.workloads.ir import Phase, WorkloadProgram, level_spec
from repro.workloads.mix import HEOpMix

if TYPE_CHECKING:
    from repro.ckks.bootstrap.plan import BootstrapPlan, OpCounts

#: The BOOT workload's top-of-chain parameterization: ARK's Table III point.
_BOOT_SPEC = BenchmarkSpec("BOOT", log_n=16, kl=24, kp=6, dnum=4)

#: Modelled secret Hamming weight of the accelerator-scale bootstrap.
_BOOT_SECRET_WEIGHT = 24


@lru_cache(maxsize=None)
def bootstrap_plan() -> "BootstrapPlan":
    """The accelerator-scale bootstrap circuit shape (32k slots).

    The same :class:`~repro.ckks.bootstrap.plan.BootstrapPlan` arithmetic
    the functional pipeline is instrumentation-tested against, evaluated
    at ``N = 2^16`` with the DFT split into 3 + 3 grouped factors and the
    EvalMod degree chosen by the same sine-fit rule the pipeline uses.
    """
    from repro.ckks.bootstrap.evalmod import choose_sine_degree
    from repro.ckks.bootstrap.plan import BootstrapPlan

    periods = -(-(_BOOT_SECRET_WEIGHT + 1) // 2) + 1  # ceil(bound) + 1
    return BootstrapPlan.from_shape(
        num_slots=_BOOT_SPEC.n // 2,
        cts_stages=3,
        stc_stages=3,
        sine_periods=periods,
        sine_degree=choose_sine_degree(periods, tol=1e-5),
    )


def _phase_mix(counts: "OpCounts") -> HEOpMix:
    """OpCounts -> HEOpMix (conjugations fold into rotations: one HKS each)."""
    return HEOpMix(
        rotations=counts.rotations + counts.conjugations,
        ct_multiplies=counts.ct_multiplies,
        pt_multiplies=counts.pt_multiplies,
        additions=counts.additions,
    )


def bootstrap_phases(spec: BenchmarkSpec, plan: "BootstrapPlan",
                     top_towers: Optional[int] = None) -> Tuple[List[Phase], int]:
    """Lower a bootstrap plan to phases at their true descending levels.

    The pipeline enters at ``top_towers`` (default: the top of ``spec``'s
    chain, where ModRaise deposits the ciphertext) and burns one level per
    DFT factor plus EvalMod's normalize/ladder/combine levels.  Returns
    ``(phases, remaining_towers)`` — the second element is the level
    budget a caller's post-bootstrap application phases start from.
    """
    from repro.ckks.bootstrap.plan import transform_counts

    towers = spec.kl if top_towers is None else top_towers
    evalmod_levels = (
        plan.levels_consumed() - len(plan.cts_diagonals) - len(plan.stc_diagonals)
    )
    if towers - plan.levels_consumed() < 1:
        raise ParameterError(
            f"bootstrap consumes {plan.levels_consumed()} levels but only "
            f"{towers} towers are available"
        )
    phases: List[Phase] = []
    for i, diagonals in enumerate(plan.cts_diagonals):
        counts = transform_counts(plan.num_slots, diagonals)
        phases.append(Phase(f"cts{i}", level_spec(spec, towers),
                            _phase_mix(counts), kind="cts"))
        towers -= 1
    phases.append(Phase("evalmod", level_spec(spec, towers),
                        _phase_mix(plan.evalmod_counts()), kind="evalmod"))
    towers -= evalmod_levels
    for i, diagonals in enumerate(plan.stc_diagonals):
        counts = transform_counts(plan.num_slots, diagonals)
        phases.append(Phase(f"stc{i}", level_spec(spec, towers),
                            _phase_mix(counts), kind="stc"))
        towers -= 1
    return phases, towers


def _descending_app_phases(spec: BenchmarkSpec, prefix: str, mix: HEOpMix,
                           top_towers: int, depth: int) -> List[Phase]:
    """Split ``mix`` evenly across ``depth`` one-level slices, descending."""
    return [
        Phase(f"{prefix}/L{top_towers - d}",
              level_spec(spec, top_towers - d), piece)
        for d, piece in enumerate(mix.split(depth))
    ]


@lru_cache(maxsize=None)
def boot_program() -> WorkloadProgram:
    """The ``BOOT`` workload: one full CKKS bootstrap at accelerator scale.

    Operation counts are *derived from the real circuit* via
    :func:`bootstrap_plan`; every rotation, conjugation and
    relinearization is one hybrid key switch, priced at the level its
    pipeline stage actually runs at.
    """
    plan = bootstrap_plan()
    phases, remaining = bootstrap_phases(_BOOT_SPEC, plan)
    ops = plan.op_counts()
    return WorkloadProgram(
        name="BOOT",
        phases=tuple(phases),
        description=(
            f"one CKKS bootstrap at N=2^16: {ops.hks_calls} HKS calls "
            f"({ops.rotations} rotations, {ops.conjugations} conjugation, "
            f"{ops.ct_multiplies} relinearizations), sine degree "
            f"{plan.sine_degree}, priced per stage at descending levels "
            f"{_BOOT_SPEC.kl}->{remaining + 1}"
        ),
    )


def bootstrap_workload() -> WorkloadProgram:
    """Historic name for :func:`boot_program` (kept, not deprecated).

    Pre-IR code imported the flat BOOT workload under this name.  It now
    returns the phase-structured :class:`WorkloadProgram`; every accessor
    the flat object exposed (``name``/``spec``/``mix``/``hks_calls``/
    ``description``) reads identically through the program's aggregate
    views; callers that want the flat top-of-chain pricing use
    :func:`boot_flat_workload`.
    """
    return boot_program()


@lru_cache(maxsize=None)
def boot_flat_workload() -> WorkloadProgram:
    """The flat BOOT pricing: one phase, every HKS at top-of-chain.

    Kept for A/B comparisons against the level-aware program — the phase
    IR's totals must come in strictly below this upper bound.
    """
    plan = bootstrap_plan()
    return WorkloadProgram.single(
        "BOOT",
        _BOOT_SPEC,
        _phase_mix(plan.op_counts()),
        description="flat top-of-chain BOOT pricing (upper bound)",
    )


#: ResNet-20-class inference op counts (the paper's 3,306 rotations).
#: Spelled out rather than relying on HEOpMix's defaults (which happen to
#: encode the same mix) — RESNET_BOOT must not change shape if those
#: defaults ever do.
_RESNET_MIX = HEOpMix(rotations=3306, ct_multiplies=500,
                      pt_multiplies=2500, additions=6000)

@lru_cache(maxsize=None)
def resnet_boot_program() -> WorkloadProgram:
    """``RESNET_BOOT``: deep private inference with mid-network refreshes.

    The paper's ResNet-20 op mix (3,306 rotations) split across
    ``RESNET_DECISION.num_bootstraps + 1`` network segments with a full
    bootstrap between consecutive segments.  Every segment runs inside
    the post-bootstrap level window, descending one level per slice; the
    bootstraps themselves reuse the level-aware ``BOOT`` phases.  The
    segment structure (bootstrap placement, segment depth) comes from the
    shared :data:`~repro.sched.space.RESNET_DECISION` record — the same
    one ``python -m repro schedule`` explains.
    """
    plan = bootstrap_plan()
    boot_phases, post_boot = bootstrap_phases(_BOOT_SPEC, plan)
    assert RESNET_DECISION.num_bootstraps is not None
    segments = RESNET_DECISION.num_bootstraps + 1
    depth = RESNET_DECISION.segment_depth(post_boot)
    phases: List[Phase] = []
    for s, segment_mix in enumerate(_RESNET_MIX.split(segments)):
        phases.extend(
            _descending_app_phases(_BOOT_SPEC, f"seg{s}", segment_mix,
                                   post_boot, depth)
        )
        if s < segments - 1:
            phases.extend(
                p.relabeled(f"boot{s}/{p.label}") for p in boot_phases
            )
    boot_hks = plan.op_counts().hks_calls
    return WorkloadProgram(
        name="RESNET_BOOT",
        phases=tuple(phases),
        description=(
            f"ResNet-20-class private inference ({_RESNET_MIX.hks_calls} "
            f"app HKS) in {segments} segments with "
            f"{RESNET_DECISION.num_bootstraps} mid-network bootstraps "
            f"({boot_hks} HKS each), all priced level-aware"
        ),
    )


#: Modelled per-iteration op mix of HELR-style encrypted LR training:
#: inner-product rotation folds over the packed minibatch, a low-degree
#: sigmoid polynomial, and the weight update.
_HELR_ITERATION_MIX = HEOpMix(rotations=256, ct_multiplies=64,
                              pt_multiplies=128, additions=512)

_HELR_ITERATIONS = 5


@lru_cache(maxsize=None)
def helr_program(iterations: int = _HELR_ITERATIONS) -> WorkloadProgram:
    """``HELR``: encrypted logistic-regression training, bootstrap per iter.

    Each of the ``iterations`` gradient steps burns the post-bootstrap
    level window (one slice per level) and ends with a full level-aware
    bootstrap — including the last step, which hands the refreshed model
    back at full budget (ready for the next epoch, or for inference) —
    the unlimited-depth training loop bootstrapping exists to enable.
    """
    if iterations < 1:
        raise ParameterError("HELR needs at least one training iteration")
    plan = bootstrap_plan()
    boot_phases, post_boot = bootstrap_phases(_BOOT_SPEC, plan)
    depth = HELR_DECISION.segment_depth(post_boot)
    phases: List[Phase] = []
    for it in range(iterations):
        phases.extend(
            _descending_app_phases(_BOOT_SPEC, f"iter{it}",
                                   _HELR_ITERATION_MIX, post_boot, depth)
        )
        phases.extend(
            p.relabeled(f"boot{it}/{p.label}") for p in boot_phases
        )
    boot_hks = plan.op_counts().hks_calls
    return WorkloadProgram(
        name="HELR",
        phases=tuple(phases),
        description=(
            f"HELR-style encrypted LR training: {iterations} iterations x "
            f"({_HELR_ITERATION_MIX.hks_calls} app HKS + one "
            f"{boot_hks}-HKS bootstrap), all priced level-aware"
        ),
    )
