"""Static-analysis overhead benchmarks: verification must stay cheap.

The analyzer sits on the serving hot path (strict admission verifies
every distinct plan once) and inside codegen when
``REPRO_VERIFY_CODEGEN`` is set, so its latency budget is explicit:
verifying a plan must cost **under 5% of one cold HELR estimate** — the
work admission is protecting.  Emits ``BENCH_analysis.json``:

* cold HELR estimate time (backend lru caches cleared first) as the
  reference cost;
* plan verification latency (full pass registry, recursing into the
  workload IR), amortized over repeats;
* RPU kernel and task-graph verification latency for the other two pass
  families;
* strict-admission overhead on a warm service (memoized digest: the
  second submit pays a set lookup, not a re-analysis).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_analysis.py -q -s
Quick mode (CI): add ``--benchmark-disable`` — the JSON artifact is
still written, only the repeated timing loops are skipped.
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis import analyze
from repro.api import build_plan, estimate
from repro.core import DATAFLOWS, DataflowConfig
from repro.ntt.primes import generate_primes
from repro.params import get_benchmark
from repro.rpu import codegen
from repro.sched import clear_memos
from repro.serve import EstimateService

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_analysis.json"

WORKLOAD = "HELR"
REPEATS = 50
#: The acceptance bar: plan verification under this fraction of one
#: cold estimate of the same workload.
BUDGET_FRACTION = 0.05


def _timed(fn, repeats=1):
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


@pytest.mark.benchmark(group="analysis")
def test_bench_plan_verification(benchmark):
    """Latency of one full-plan analyze() (plan + workload-IR passes)."""
    plan = build_plan(WORKLOAD, backend="rpu", schedule="OC")
    report = benchmark(lambda: analyze(plan))
    assert report.ok


@pytest.mark.benchmark(group="analysis")
def test_bench_kernel_verification(benchmark):
    """Latency of the RPU abstract interpreter on a generated kernel."""
    q = generate_primes(1, 64, 26)[0]
    program = codegen.build_ntt_kernel(64, q).program
    report = benchmark(lambda: analyze(program))
    assert report.ok


def test_emit_analysis_artifact_and_budget_guard():
    """Write BENCH_analysis.json and enforce the <5% overhead bar."""
    plan = build_plan(WORKLOAD, backend="rpu", schedule="OC")

    clear_memos()
    cold_estimate_s = _timed(
        lambda: estimate(WORKLOAD, backend="rpu", schedule="OC")
    )

    plan_verify_s = _timed(lambda: analyze(plan), REPEATS)

    q = generate_primes(1, 64, 26)[0]
    program = codegen.build_ntt_kernel(64, q).program
    kernel_verify_s = _timed(lambda: analyze(program), REPEATS)

    spec = get_benchmark("ARK")
    graph = DATAFLOWS["OC"].build(spec, DataflowConfig())
    graph_verify_s = _timed(lambda: analyze(graph), REPEATS)

    # Strict admission on a warm service: the first submit of a digest
    # analyzes, every repeat is a memoized set lookup.
    strict = EstimateService(disk_cache=False)
    off = EstimateService(disk_cache=False, admission="off")
    strict.estimate(plan)
    off.estimate(plan)
    strict_s = _timed(lambda: strict.estimate(plan), REPEATS)
    off_s = _timed(lambda: off.estimate(plan), REPEATS)

    fraction = plan_verify_s / cold_estimate_s
    payload = {
        "workload": WORKLOAD,
        "repeats": REPEATS,
        "cold_estimate_s": cold_estimate_s,
        "plan_verify_s": plan_verify_s,
        "plan_verify_fraction_of_cold_estimate": fraction,
        "budget_fraction": BUDGET_FRACTION,
        "kernel_verify_s": kernel_verify_s,
        "graph_verify_s": graph_verify_s,
        "graph_tasks": len(graph.tasks),
        "warm_submit_strict_s": strict_s,
        "warm_submit_admission_off_s": off_s,
        "memoized_admission_overhead_s": strict_s - off_s,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"wrote {ARTIFACT.name}: plan verify {plan_verify_s * 1e3:.2f} ms "
          f"= {fraction:.1%} of a cold {WORKLOAD} estimate "
          f"({cold_estimate_s * 1e3:.1f} ms)")

    # The acceptance bar: verification under 5% of the estimate it gates.
    assert fraction < BUDGET_FRACTION, (
        f"plan verification costs {fraction:.1%} of a cold {WORKLOAD} "
        f"estimate ({plan_verify_s:.4f}s vs {cold_estimate_s:.4f}s); "
        f"budget is {BUDGET_FRACTION:.0%}"
    )
