"""Schedule-validity passes: the solver's output, independently checked.

The ``sched`` family inspects a :class:`~repro.sched.solver.
ScheduleArtifact` — a solved schedule paired with its deterministically
rebuilt task graph — and re-derives the invariants every legal HKS
schedule must satisfy, mirroring the assertions
:func:`repro.core.analyze_dataflow` applies to the hand-written trio:

* compute work equals the dataflow-independent stage algebra (plus the
  key-regeneration passes when streamed keys are seed-compressed),
* streamed evk traffic covers the key size (equality is not required:
  a prefetching schedule may re-stream an evicted key tower, trading
  key bytes for overlap — but it can never *undercount* them),
* data traffic includes at least the compulsory input + output movement,
* the emitted schedule's SRAM high-water respects the budget it was
  generated for,
* the recorded decision is legal for the spec (pin capacity, digest
  consistency between the record and the rebuilt graph).

The solver itself gates every non-legacy winner through ``analyze()``;
these passes make the same evidence available to admission control and
``python -m repro verify``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.diagnostics import Diagnostic, error, info
from repro.analysis.registry import AnalysisContext, analysis_pass
from repro.core.stages import HKSShape
from repro.core.taskgraph import DATA_TAG, EVK_TAG

if TYPE_CHECKING:
    from repro.sched.solver import ScheduleArtifact


@analysis_pass("sched.ops-invariant", "sched",
               "compute work equals the dataflow-independent stage algebra")
def check_ops_invariant(art: "ScheduleArtifact",
                        ctx: AnalysisContext) -> Iterator[Diagnostic]:
    spec = art.spec
    expected = HKSShape(spec).total_ops()
    compressed = art.config.key_compression and not art.config.evk_on_chip
    regen_muls = (spec.dnum * spec.extended_towers * spec.n
                  if compressed else 0)
    muls = art.graph.total_mod_muls()
    adds = art.graph.total_mod_adds()
    if (muls, adds) != (expected.muls + regen_muls, expected.adds):
        yield error(
            "sched.ops-invariant", f"schedule {spec.name}",
            f"op count drifted from the stage algebra: "
            f"{muls} muls / {adds} adds vs expected "
            f"{expected.muls + regen_muls} / {expected.adds}",
            hint="the decision emitter dropped or duplicated a stage kernel",
        )


@analysis_pass("sched.evk-traffic", "sched",
               "streamed key traffic covers the key size")
def check_evk_traffic(art: "ScheduleArtifact",
                      ctx: AnalysisContext) -> Iterator[Diagnostic]:
    spec, config = art.spec, art.config
    evk_bytes = art.graph.total_bytes(EVK_TAG)
    if config.evk_on_chip:
        if evk_bytes != 0:
            yield error(
                "sched.evk-traffic", f"schedule {spec.name}",
                f"on-chip keys must stream zero bytes, saw {evk_bytes}",
            )
        return
    expected = (spec.evk_bytes // 2 if config.key_compression
                else spec.evk_bytes)
    if evk_bytes < expected:
        yield error(
            "sched.evk-traffic", f"schedule {spec.name}",
            f"streamed evk traffic {evk_bytes} below the key size "
            f"{expected}: some key towers were never loaded",
        )
    elif evk_bytes > expected:
        yield info(
            "sched.evk-traffic", f"schedule {spec.name}",
            f"evk traffic {evk_bytes} exceeds the key size {expected}: "
            f"prefetched key towers were evicted and re-streamed",
        )


@analysis_pass("sched.compulsory-data", "sched",
               "data traffic includes compulsory input + output movement")
def check_compulsory_data(art: "ScheduleArtifact",
                          ctx: AnalysisContext) -> Iterator[Diagnostic]:
    spec = art.spec
    compulsory = spec.input_bytes + spec.output_bytes
    data_bytes = art.graph.total_bytes(DATA_TAG)
    if data_bytes < compulsory:
        yield error(
            "sched.compulsory-data", f"schedule {spec.name}",
            f"data traffic {data_bytes} below the compulsory "
            f"{compulsory}: the schedule skipped loading inputs or "
            f"storing outputs",
        )


@analysis_pass("sched.sram-budget", "sched",
               "SRAM high-water respects the generation budget")
def check_sram_budget(art: "ScheduleArtifact",
                      ctx: AnalysisContext) -> Iterator[Diagnostic]:
    budget = art.config.data_sram_bytes
    peak = art.stats.peak_bytes
    if peak > budget:
        yield error(
            "sched.sram-budget", f"schedule {art.spec.name}",
            f"on-chip peak {peak} exceeds the {budget}-byte budget the "
            f"schedule was generated for",
        )


@analysis_pass("sched.decision-legal", "sched",
               "the recorded decision is legal and matches the graph")
def check_decision_legal(art: "ScheduleArtifact",
                         ctx: AnalysisContext) -> Iterator[Diagnostic]:
    from repro.sched.solver import schedule_digest
    from repro.core.hks_ops import pin_capacity

    spec, config = art.spec, art.config
    decision = art.solved.decision
    subject = f"schedule {spec.name}"
    if not decision.is_legacy:
        capacity = pin_capacity(spec, config.data_sram_bytes)
        if min(decision.pinned_digits, spec.dnum) > capacity:
            yield error(
                "sched.decision-legal", subject,
                f"decision pins {decision.pinned_digits} digits but only "
                f"{capacity} digit prefixes fit the "
                f"{config.data_sram_bytes}-byte budget",
            )
    digest = schedule_digest(art.graph)
    if digest != art.solved.digest:
        yield error(
            "sched.decision-legal", subject,
            f"graph digest {digest} does not match the solved record's "
            f"{art.solved.digest}: the rebuild is not deterministic",
        )
