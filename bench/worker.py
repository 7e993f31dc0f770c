"""One workload's process: set up, run slices on request, check, report.

Started by ``run.py`` with a private ``REPRO_CACHE_DIR``.  Speaks JSON
lines: after set-up it prints ``{"ready": ...}``; then for each line on
stdin — ``slice <i>``, ``trace`` or ``finish`` — it prints one reply.
Between commands it blocks on the pipe, so workloads the orchestrator is
not running cost nothing.  If stdin closes it tears down and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from typing import Dict

from common import cpu_seconds, peak_rss_mb, process_tree
from workloads import WORKLOADS, CheckFailed, Workload, expand


def emit(message: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def run_slice(workload: Workload, index: int) -> Dict[str, object]:
    """Time one slice and reduce it to the per-slice metric values."""
    tree = process_tree(os.getpid())
    cpu_before = cpu_seconds(tree)
    start = time.perf_counter()
    ops = workload.run_slice(index)
    wall = time.perf_counter() - start
    cpu = cpu_seconds(tree) - cpu_before
    workload.check_slice(index, ops)
    attempted = sum(op.count for op in ops)
    succeeded = sum(op.count for op in ops if op.ok)
    good = sum(op.count for op in ops
               if op.ok and op.latency_ms <= op.limit_ms)
    return {
        "slice": index,
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": attempted,
        "failed": attempted - succeeded,
        "ops_per_s": succeeded / wall,
        "goodput_per_s": good / wall,
        "op_p50_ms": statistics.median(expand(ops)),
        "cpu_ms_per_op": cpu * 1e3 / succeeded if succeeded else float("inf"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--per-slice", type=int, required=True)
    parser.add_argument("--slices", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.per_slice, args.slices)
    recorder = None
    try:
        workload.setup()
        emit({"ready": True})
        if args.setup_only:
            return 0
        for line in sys.stdin:
            command = line.split()
            if not command:
                continue
            if command[0] == "slice":
                emit(run_slice(workload, int(command[1])))
            elif command[0] == "trace":
                import tracing

                workload.enable_trace()
                recorder = tracing.install(workload.trace_targets())
                workload.op_span = recorder.op
                emit({"tracing": True})
            elif command[0] == "finish":
                result = workload.finish()
                result["peak_rss_mb"] = peak_rss_mb(process_tree(os.getpid()))
                if recorder is not None:
                    spans = recorder.spans + workload.collect_remote_spans()
                    result["spans"] = spans
                emit({"finished": result})
                return 0
        return 1  # stdin closed before "finish": the orchestrator is gone
    except CheckFailed as exc:
        emit({"error": f"check failed: {exc}"})
        return 1
    except Exception as exc:  # noqa: BLE001 - reported, then non-zero exit
        traceback.print_exc()
        emit({"error": f"{type(exc).__name__}: {exc}"})
        return 1
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
