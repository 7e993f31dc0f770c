"""Smoke test of the benchmark harness (collected by the tier-1 pytest run).

One ``run.py --smoke`` over all five workloads (1 slice, minimal sizes,
no second set-up probe) and two sweep_cold-only smoke runs for the digest
checks; about 20 s together.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"),
    reason="the harness reads CPU and memory from Linux /proc",
)


def start_smoke(*extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--smoke", *extra],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
    )


def output_of(proc: subprocess.Popen) -> str:
    out, _ = proc.communicate(timeout=170)
    assert proc.returncode == 0, out[-2000:]
    return out


def final_line(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_names_are_well_formed(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert spec["paths"] == ["bench"]


@pytest.fixture(scope="module")
def full_run() -> dict:
    return final_line(output_of(start_smoke("--seed", "1")))


def test_smoke_run_reports_every_declared_metric(spec, full_run):
    final = full_run
    assert final["correct"] is True and final["failed"] == 0
    assert set(final["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, result in final["workloads"].items():
        assert result["attempted"] >= 1 and result["failed"] == 0, name
        assert set(result["metrics"]) == \
            {m["name"] for m in spec["end_to_end"]}, name
        for metric in spec["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0, (name, metric["name"])


def test_sweep_digest_follows_the_seed(full_run):
    # One workload, the way the driver asks for it; the two runs share
    # nothing (each has its own cache directory), so they run side by side.
    runs = {seed: start_smoke("--workload", "sweep_cold", "--seed", str(seed))
            for seed in (1, 2)}
    digests = {}
    for seed, proc in runs.items():
        out = output_of(proc)
        assert set(final_line(out)) == \
            {"correct", "attempted", "failed", "metrics"}
        digests[seed] = re.search(r"result_digest ([0-9a-f]{64})", out).group(1)
    assert digests[1] == full_run["workloads"]["sweep_cold"]["result_digest"]
    assert digests[2] != digests[1]
