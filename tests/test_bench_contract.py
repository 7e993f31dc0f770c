"""The traced half of the acceptance run, rehearsed in tier-1.

The acceptance driver runs ``python3 bench/run.py --workload <name>
--trace 0|1`` for each of the five workloads against a frozen ``bench/``.
``bench/test_bench_smoke.py`` covers trace 0; this is trace 1 — the run
that patches 38 library names by dotted path (``bench/tracing.py``
``TARGETS``) and dies with ``run_failed`` when one of them moved.  The
names themselves, with their signatures, are held by the manifest
(``tests/test_bench_api.py``); this run catches what resolution alone
cannot see.

``--seconds 1``, not ``--smoke``: the frozen harness cannot combine
``--smoke`` with ``--trace`` (one smoke slice leaves no untraced half, so
``layers.overhead_pct`` raises ``StatisticsError`` / ``IndexError`` on all
five workloads).  The five runs share nothing — each child gets its own
cache directory under ``bench/.work/`` and ``write_json`` replaces its
output whole — so they run side by side, ~40 s on a 2-core box.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"),
    reason="the harness reads CPU and memory from Linux /proc",
)


@pytest.fixture(scope="module")
def traced_runs() -> dict:
    """``{workload: (exit code, stdout, stderr)}`` of the five traced runs."""
    procs = {
        name: subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
             name, "--trace", "1", "--seconds", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=str(ROOT),
        )
        for name in WORKLOADS
    }
    runs = {}
    try:
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=170)
            runs[name] = (proc.returncode, out, err)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return runs


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_passes_and_reports_every_layer(traced_runs, name):
    code, out, err = traced_runs[name]
    assert code == 0, (out[-2000:], err[-2000:])
    final = json.loads(out.strip().splitlines()[-1])
    assert final["failed"] == 0 and final["correct"] is True
    assert final["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert len(declared) == 53 and set(final["metrics"]) == set(declared)
    for metric, entry in final["metrics"].items():
        assert entry["unit"] == declared[metric], metric
        assert math.isfinite(entry["value"]), (metric, entry["value"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_ladder_closes_with_non_negative_remainder(traced_runs, name):
    """The named rows of a ladder never add up to more than the op's wall
    time: the remainder, the row just above ``op wall time``, is >= 0."""
    _code, out, _err = traced_runs[name]
    lines = out.splitlines()
    walls = [i for i, line in enumerate(lines)
             if line.strip().startswith("op wall time")]
    assert walls, out[-2000:]
    for i in walls:
        remainder = lines[i - 1]
        assert float(remainder.split(" ms")[0].split()[-1]) >= 0, remainder
