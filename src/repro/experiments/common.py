"""Shared plumbing for all experiments: cached schedules, sweeps, searches."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core import DataflowConfig, TaskGraph
from repro.params import MB, get_benchmark
from repro.rpu import SimResult
from repro.sched import (
    HKSDecision,
    Objective,
    decision_graph,
    machine_for,
    simulated,
)

#: The paper's reference operating point: MP at DDR5 peak with keys on-chip.
BASELINE_BW_GBS = 64.0

#: Discrete bandwidth grid the paper reports OCbase on (DDR4/DDR5 points).
OCBASE_GRID = (8.0, 12.8, 16.0, 25.6, 32.0, 45.62, 48.0, 64.0)


def _memory(sram_mb: int, evk_on_chip: bool) -> DataflowConfig:
    return DataflowConfig(data_sram_bytes=sram_mb * MB,
                          evk_on_chip=evk_on_chip)


def build_schedule(
    benchmark: str, dataflow: str, *, sram_mb: int = 32, evk_on_chip: bool = True
) -> TaskGraph:
    """The shared schedule of one (benchmark, dataflow, memory config).

    Comes out of the schedule store of :mod:`repro.sched`, the one the
    estimate backends read, so the harness and the facade share one graph
    per configuration (schedules do not depend on bandwidth/MODOPS).
    """
    # The objective only orders a re-listed decision; any one will do here.
    graph, _ = decision_graph(
        get_benchmark(benchmark), _memory(sram_mb, evk_on_chip),
        HKSDecision(base=dataflow.upper()), Objective(),
    )
    return graph


def simulate(
    benchmark: str,
    dataflow: str,
    *,
    bandwidth_gbs: float,
    evk_on_chip: bool = True,
    modops_scale: float = 1.0,
    sram_mb: int = 32,
) -> SimResult:
    """Simulate one (benchmark, dataflow, machine) point."""
    graph = build_schedule(
        benchmark, dataflow, sram_mb=sram_mb, evk_on_chip=evk_on_chip
    )
    return simulated(graph, machine_for(
        _memory(sram_mb, evk_on_chip),
        Objective.latency(bandwidth_gbs, modops_scale),
    ))


def runtime_ms(benchmark: str, dataflow: str, **kwargs) -> float:
    return simulate(benchmark, dataflow, **kwargs).runtime_ms


def baseline_runtime_ms(benchmark: str) -> float:
    """The paper's baseline: MP at 64 GB/s with evks pre-loaded on-chip."""
    return runtime_ms(benchmark, "MP", bandwidth_gbs=BASELINE_BW_GBS,
                      evk_on_chip=True)


def matching_bandwidth(
    benchmark: str,
    dataflow: str,
    target_ms: float,
    *,
    evk_on_chip: bool = True,
    modops_scale: float = 1.0,
    lo: float = 1.0,
    hi: float = 2000.0,
    tol: float = 0.01,
) -> Optional[float]:
    """Smallest bandwidth at which runtime <= ``target_ms`` (binary search).

    Returns ``None`` when even ``hi`` GB/s cannot reach the target (the
    configuration is compute-bound above the target runtime).
    """

    def run(bw: float) -> float:
        return runtime_ms(benchmark, dataflow, bandwidth_gbs=bw,
                          evk_on_chip=evk_on_chip, modops_scale=modops_scale)

    if run(hi) > target_ms:
        return None
    if run(lo) <= target_ms:
        return lo
    low, high = lo, hi
    while high - low > tol * low:
        mid = (low * high) ** 0.5  # geometric: bandwidths span decades
        if run(mid) <= target_ms:
            high = mid
        else:
            low = mid
    return high


def grid_ocbase(benchmark: str, target_ms: float,
                evk_on_chip: bool = True) -> Optional[float]:
    """Smallest grid bandwidth where OC matches the target runtime
    (how the paper quotes OCbase, Table IV)."""
    for bw in OCBASE_GRID:
        if runtime_ms(benchmark, "OC", bandwidth_gbs=bw,
                      evk_on_chip=evk_on_chip) <= target_ms:
            return bw
    return None


def all_benchmarks() -> Tuple[str, ...]:
    return ("BTS1", "BTS2", "BTS3", "ARK", "DPRIVE")
