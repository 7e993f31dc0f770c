"""Bootstrapping experiment: the BOOT program across schedules/backends.

The paper's HKS analysis exists because of bootstrapping-class workloads —
ARK/BTS-style accelerators are sized around the thousands of key switches
one bootstrap performs.  This experiment prices exactly the circuit the
functional layer runs (phases lowered from the bootstrap plan, see
:func:`repro.workloads.boot_program`) on all three dataflow schedules,
with keys on-chip and streamed — *level-aware*: every pipeline stage is
charged at its true (descending) point of the modulus chain, and the
per-phase latency breakdown plus the saving over the flat
top-of-chain pricing are reported.
"""

from __future__ import annotations

from repro.api import estimate
from repro.experiments.report import ExperimentResult
from repro.workloads import boot_flat_workload, boot_program


def run() -> ExperimentResult:
    program = boot_program()
    rows = []
    for evk_on_chip in (True, False):
        reports = estimate("BOOT", backend="rpu", schedule="all",
                           evk_on_chip=evk_on_chip)
        flats = estimate(boot_flat_workload(), backend="rpu",
                         schedule="all", evk_on_chip=evk_on_chip)
        for report, flat in zip(reports, flats):
            rows.append(
                {
                    "schedule": report.schedule,
                    "evks": "on-chip" if evk_on_chip else "streamed",
                    "hks_calls": report.hks_calls,
                    "GB": round(report.total_bytes / 1e9, 1),
                    "AI": round(report.arithmetic_intensity, 2),
                    "latency_s": round(report.latency_ms / 1e3, 2),
                    "flat_latency_s": round(flat.latency_ms / 1e3, 2),
                    "level_aware_saving_%": round(
                        100 * (1 - report.latency_ms / flat.latency_ms), 1
                    ),
                    "idle_%": round(report.compute_idle_fraction * 100, 1),
                }
            )
    breakdown = estimate("BOOT", backend="rpu", schedule="OC")
    phase_note = ", ".join(
        f"{p.benchmark} {p.latency_ms / 1e3:.2f}s" for p in breakdown.phases
    )
    mix = program.mix
    notes = [
        program.description,
        f"op mix: {mix.rotations} rotations+conj, {mix.ct_multiplies} "
        f"ct-mults, {mix.pt_multiplies} pt-mults, {mix.additions} adds",
        f"OC per-phase latency: {phase_note}",
        "HKS counts derive from the same BootstrapPlan the functional "
        "pipeline is instrumentation-tested against (tests/test_bootstrap.py)",
        "flat_latency_s is the flat top-of-chain pricing: the "
        "level-aware program is strictly cheaper on every schedule",
    ]
    return ExperimentResult(
        experiment="bootstrap",
        description="one full CKKS bootstrap (BOOT program, level-aware "
                    "phases) on the RPU: all schedules, evks on-chip vs "
                    "streamed, 64 GB/s",
        rows=rows,
        notes=notes,
    )
