"""Workload-program benchmarks: level-aware deep circuits, both backends.

Prices the three registered programs (``BOOT``, ``RESNET_BOOT``,
``HELR``) on the analytic and RPU backends and emits
``BENCH_workloads.json`` — totals plus the per-phase latency/traffic
breakdown of every program — so the level-aware pricing trajectory is
machine-readable across commits.  Also times the estimate request path
itself (the phase fold is pure accounting and must stay cheap).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_workloads.py -q -s
Quick mode (CI): add ``--benchmark-disable`` — the JSON artifact is still
written, only the repeated timing loops are skipped.
"""

import json
from pathlib import Path

import pytest

from repro.api import estimate
from repro.workloads import boot_flat_workload, get_workload, list_workloads

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_workloads.json"

PROGRAMS = ("BOOT", "RESNET_BOOT", "HELR")


@pytest.mark.benchmark(group="workloads")
@pytest.mark.parametrize("name", PROGRAMS)
def test_bench_estimate_request_path(benchmark, name):
    """Latency of one warm estimate() request per program (RPU backend)."""
    estimate(name, backend="rpu", schedule="OC")  # warm the schedule caches
    report = benchmark(lambda: estimate(name, backend="rpu", schedule="OC"))
    assert report.hks_calls == get_workload(name).hks_calls


def _phase_row(phase, spec_name: str) -> dict:
    return {
        "phase": phase.benchmark,
        "spec": spec_name,
        "hks_calls": phase.hks_calls,
        "total_bytes": phase.total_bytes,
        "mod_ops": phase.mod_ops,
        "latency_ms": phase.latency_ms,
    }


def test_emit_workloads_artifact():
    """Write BENCH_workloads.json: per-program totals and the per-phase
    breakdown on both backends, plus the flat-vs-level-aware saving."""
    payload = {"programs": {}}
    for name in PROGRAMS:
        program = get_workload(name)
        spec_by_label = {p.label: p.spec.name for p in program}
        entry = {
            "description": program.description,
            "num_phases": len(program),
            "hks_calls": program.hks_calls,
            "backends": {},
        }
        for backend in ("analytic", "rpu"):
            report = estimate(name, backend=backend, schedule="OC")
            rows = [
                _phase_row(phase, spec_by_label[phase.benchmark])
                for phase in report.phases
            ]
            entry["backends"][backend] = {
                "total_bytes": report.total_bytes,
                "mod_ops": report.mod_ops,
                "latency_ms": report.latency_ms,
                "phases": rows,
            }
        payload["programs"][name] = entry

    flat = estimate(boot_flat_workload(), backend="rpu",
                    schedule="OC")
    level_aware = estimate("BOOT", backend="rpu", schedule="OC")
    payload["boot_flat_vs_level_aware"] = {
        "flat_latency_ms": flat.latency_ms,
        "level_aware_latency_ms": level_aware.latency_ms,
        "saving_fraction": 1 - level_aware.latency_ms / flat.latency_ms,
    }

    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    saving = payload["boot_flat_vs_level_aware"]["saving_fraction"]
    print(f"wrote {ARTIFACT.name}: {len(PROGRAMS)} programs, level-aware "
          f"BOOT {saving:.1%} below flat pricing")

    assert set(payload["programs"]) == set(PROGRAMS) <= set(list_workloads())
    for entry in payload["programs"].values():
        rpu = entry["backends"]["rpu"]
        assert rpu["latency_ms"] == pytest.approx(
            sum(p["latency_ms"] for p in rpu["phases"])
        )
        assert entry["hks_calls"] == sum(
            p["hks_calls"] for p in rpu["phases"]
        )
    assert saving > 0
