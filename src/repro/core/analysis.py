"""Dataflow analytics: DRAM traffic, arithmetic intensity, working sets.

These are the quantities behind paper Table II (DRAM transfers and AI with
a 32 MB on-chip memory and streamed evks) and the Section IV working-set
discussion.  Everything is derived from the generated schedules, so the
numbers respond to the same knobs the paper sweeps (budget, evk placement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.dataflow import BuilderStats, Dataflow, DataflowConfig
from repro.core.stages import HKSShape
from repro.core.taskgraph import DATA_TAG, EVK_TAG, TaskGraph
from repro.params import MB, BenchmarkSpec


@dataclass(frozen=True)
class DataflowReport:
    """Traffic/AI summary of one (benchmark, dataflow, config) schedule."""

    benchmark: str
    dataflow: str
    total_bytes: int
    data_bytes: int
    evk_bytes: int
    mod_ops: int
    mod_muls: int
    peak_on_chip_bytes: int
    spill_stores: int
    reloads: int
    num_tasks: int

    @property
    def total_mb(self) -> float:
        return self.total_bytes / MB

    @property
    def arithmetic_intensity(self) -> float:
        """Modular operations per DRAM byte (paper Table II's "AI")."""
        if self.total_bytes == 0:
            return float("inf")
        return self.mod_ops / self.total_bytes

    def as_row(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "dataflow": self.dataflow,
            "MB": round(self.total_mb, 1),
            "AI": round(self.arithmetic_intensity, 2),
            "peak_MB": round(self.peak_on_chip_bytes / MB, 2),
            "spills": self.spill_stores,
        }


def analyze_dataflow(
    spec: BenchmarkSpec,
    dataflow: Dataflow,
    config: Optional[DataflowConfig] = None,
) -> DataflowReport:
    """Build the schedule for one dataflow and summarize its traffic."""
    if config is None:
        config = DataflowConfig(data_sram_bytes=32 * MB, evk_on_chip=False)
    graph, stats = dataflow.build_with_stats(spec, config)
    return summarize_schedule(spec, dataflow.name, config, graph, stats)


def summarize_schedule(
    spec: BenchmarkSpec,
    dataflow_name: str,
    config: DataflowConfig,
    graph: TaskGraph,
    stats: BuilderStats,
) -> DataflowReport:
    """Summarize an already-built schedule and check its invariants.

    The half of :func:`analyze_dataflow` that needs no build, so a caller
    holding the shared ``(graph, stats)`` of a schedule checks that one
    rather than a private second build.
    """
    report = DataflowReport(
        benchmark=spec.name,
        dataflow=dataflow_name,
        total_bytes=graph.total_bytes(),
        data_bytes=graph.total_bytes(DATA_TAG),
        evk_bytes=graph.total_bytes(EVK_TAG),
        mod_ops=graph.total_mod_ops(),
        mod_muls=graph.total_mod_muls(),
        peak_on_chip_bytes=stats.peak_bytes,
        spill_stores=stats.spill_stores,
        reloads=stats.reloads,
        num_tasks=len(graph),
    )
    _check_invariants(spec, graph, config, report)
    return report


def _check_invariants(
    spec: BenchmarkSpec,
    graph: TaskGraph,
    config: DataflowConfig,
    report: DataflowReport,
) -> None:
    """Internal consistency checks every schedule must satisfy.

    * compute work equals the dataflow-independent stage totals,
    * streamed evk traffic equals the key size exactly (keys have no reuse),
    * traffic includes at least the compulsory input + output movement.
    """
    shape = HKSShape(spec)
    expected = shape.total_ops()
    compressed = config.key_compression and not config.evk_on_chip
    # Seed-compressed keys add one regeneration pass per evk tower pair.
    regen_muls = spec.dnum * spec.extended_towers * spec.n if compressed else 0
    if (report.mod_muls, report.mod_ops - report.mod_muls) != (
        expected.muls + regen_muls,
        expected.adds,
    ):
        raise AssertionError(
            f"{report.benchmark}/{report.dataflow}: op count drifted from the "
            f"stage algebra: {report.mod_muls} muls vs {expected.muls}"
        )
    expected_evk = spec.evk_bytes // 2 if compressed else spec.evk_bytes
    if not config.evk_on_chip and report.evk_bytes != expected_evk:
        raise AssertionError(
            f"streamed evk traffic {report.evk_bytes} != key size {expected_evk}"
        )
    compulsory = spec.input_bytes + spec.output_bytes
    if report.data_bytes < compulsory:
        raise AssertionError(
            f"data traffic {report.data_bytes} below compulsory {compulsory}"
        )


def minimum_mp_working_set_bytes(spec: BenchmarkSpec) -> int:
    """SRAM needed for MP to run spill-free (the paper's 675 MB-class figure).

    This is the full ModUp intermediate state plus the accumulators.
    """
    shape = HKSShape(spec)
    towers = shape.modup_intermediate_towers() + 2 * spec.extended_towers
    return towers * spec.tower_bytes
