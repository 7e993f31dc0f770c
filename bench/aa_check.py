"""A/A check: do two sets of runs of the same code agree within the bounds?

    python3 bench/aa_check.py [--runs K] [--per-workload] [--out FILE]

Runs the benchmark K times (K >= 4), each run with another seed, and
splits the runs into two alternating sets (A B A B ...).  For every
(workload, end-to-end metric) it prints both set medians, how much worse
B's median is than A's, and each set's quartile distance as a share of
its median, and exits non-zero if any difference exceeds the metric's
bound in ``BENCHMARK.json``.  A metric whose runs spread wider than its
bound is marked *unresolved*: the medians agreed, but a change of the
size of the bound could not be told from noise with these runs.  By
default one run is the default command (all workloads interleaved in one
session); ``--per-workload`` runs each workload in an invocation of its
own, which is how the acceptance driver runs it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import (
    BENCH, OUT, load_spec, require_program, spread, write_json,
)

#: Run k uses seed FIRST_SEED + k; part of the protocol, so not an option.
FIRST_SEED = 101


def one_run(workload: str, seed: int) -> Dict[str, Dict[str, float]]:
    """{workload: {metric: value}} of one invocation."""
    argv = [sys.executable, str(BENCH / "run.py"), "--seed", str(seed)]
    if workload:
        argv += ["--workload", workload]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"aa_check: {' '.join(argv)} exited with "
                         f"code {done.returncode}")
    final = json.loads(done.stdout.strip().splitlines()[-1])
    if workload:
        final = {"workloads": {workload: final}}
    return {name: {m: entry["value"] for m, entry in w["metrics"].items()}
            for name, w in final["workloads"].items()}


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (a - b) / a if better == "higher" else (b - a) / a


def main() -> int:
    require_program()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=4)
    parser.add_argument("--per-workload", action="store_true")
    parser.add_argument("--out", default=str(OUT / "aa_last.json"))
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]

    runs: List[Dict[str, Dict[str, float]]] = []
    started = time.time()
    for k in range(args.runs):
        seed = FIRST_SEED + k
        if args.per_workload:
            merged: Dict[str, Dict[str, float]] = {}
            for name in names:
                merged.update(one_run(name, seed))
            runs.append(merged)
        else:
            runs.append(one_run("", seed))
        print(f"run {k + 1}/{args.runs} (seed {seed}) done, "
              f"{time.time() - started:.0f} s elapsed", flush=True)

    rows = []
    failures = []
    print(f"{'workload':<14s} {'metric':<14s} {'median A':>12s} "
          f"{'median B':>12s} {'B worse by':>11s} {'IQR A':>7s} "
          f"{'IQR B':>7s} {'IQR all':>8s} {'bound':>6s}")
    for name in names:
        for metric in spec["end_to_end"]:
            values = [run[name][metric["name"]] for run in runs]
            set_a, set_b = values[0::2], values[1::2]
            med_a, med_b = statistics.median(set_a), statistics.median(set_b)
            shift = worse_by(med_a, med_b, metric["better"])
            row = {
                "workload": name, "metric": metric["name"],
                "unit": metric["unit"], "bound": metric["bound"],
                "values": values, "median_a": med_a, "median_b": med_b,
                "b_worse_by": shift, "spread_a": spread(set_a),
                "spread_b": spread(set_b), "spread_all": spread(values),
            }
            rows.append(row)
            flag = ""
            if abs(shift) > metric["bound"]:
                flag = "  << medians differ by more than the bound"
                failures.append((name, metric["name"]))
            elif row["spread_all"] > metric["bound"]:
                flag = "  unresolved: spread exceeds the bound"
            print(f"{name:<14s} {metric['name']:<14s} {med_a:12.4f} "
                  f"{med_b:12.4f} {shift * 100:10.2f}% "
                  f"{row['spread_a'] * 100:6.2f}% {row['spread_b'] * 100:6.2f}% "
                  f"{row['spread_all'] * 100:7.2f}% {metric['bound']:6.2f}{flag}")

    write_json(Path(args.out), {
        "runs": args.runs, "per_workload": args.per_workload,
        "first_seed": FIRST_SEED, "run_seconds": spec["run_seconds"],
        "rows": rows, "passed": not failures,
    })
    if failures:
        print(f"A/A check failed for {failures}")
        return 1
    print(f"A/A check passed: {len(rows)} (workload, metric) pairs within "
          f"their bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
