"""The frozen benchmark's API, held to a committed manifest.

``bench/`` cannot change in the PR that renames or re-signs a library
name it reaches, and some of those names are only reached lazily (in a
workload's set-up, in the traced server, or as a CLI string).
``tests/golden/bench_api.json`` lists them — written by
``python -m tools.bench_manifest`` from an ``ast`` walk of ``bench/*.py``
— and this test re-derives every entry from the live library, so a
rename fails here, naming the entry and the bench file that needs it,
instead of as ``run_failed`` at acceptance.
"""

from __future__ import annotations

import copy
import json

import pytest

from tools import bench_manifest


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads(bench_manifest.MANIFEST.read_text(encoding="utf-8"))


def test_every_entry_holds_in_the_live_library(committed):
    problems = bench_manifest.check(committed)
    assert not problems, "\n".join(problems)


def test_manifest_is_a_fresh_walk_of_bench(committed):
    fresh = bench_manifest.build()
    assert bench_manifest.render(fresh) == bench_manifest.render(committed), (
        "tests/golden/bench_api.json is stale: a library change moved an "
        "entry, or bench/ changed; regenerate it with "
        "`python -m tools.bench_manifest` only if that was meant")


def test_a_moved_entry_is_named_with_its_bench_file(committed):
    doctored = copy.deepcopy(committed)
    doctored["names"]["repro.serve.pool:ShardPool.run_batches"] = \
        doctored["names"]["repro.serve.pool:ShardPool.run_plans"]
    doctored["server_args"]["argv"].append("--no-such-flag")
    doctored["counters"]["lookups"] = ["bench/workloads.py"]
    doctored["status"]["service"]["occupancy"] = ["bench/workloads.py"]
    problems = bench_manifest.check(doctored)
    assert problems == [
        "repro.serve.pool:ShardPool.run_batches (needed by bench/tracing.py): "
        "recorded function " + committed["names"][
            "repro.serve.pool:ShardPool.run_plans"]["signature"]
        + ", live unresolved KeyError: 'run_batches'",
        "SERVER_ARGS --no-such-flag (needed by bench/workloads.py): "
        "not in `python -m repro serve --help`",
        "repro.sched.COUNTERS['lookups'] (needed by bench/workloads.py): "
        "no such key",
        "status['service']['occupancy'] (needed by bench/workloads.py): "
        "not in ServiceStats().as_row()",
    ]
