"""The benchmark's one command.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke]

Runs the workloads declared in ``BENCHMARK.json`` (all five, or the one
named), checks every answer, and prints every end-to-end metric by name
and unit; with ``--trace`` it prints the per-layer metrics and ladders
of a traced run instead.  The last line of output is one JSON object.
Exits non-zero on any failed check.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from common import (
    BENCH, OUT, ROOT, SLICES, child_env, fresh_dir, load_spec, quiet_quartile,
    remove_dir, require_program, session_members, write_json,
)

#: One reply from a child may take this long (a slice, a set-up, a check).
REPLY_TIMEOUT_S = 150.0
#: Slices per workload of a traced run: two untraced, then two traced.
TRACE_SLICES = 4


class BenchError(Exception):
    """The run cannot produce a result (a child died, a check failed)."""


class Child:
    """One ``worker.py`` process and its private cache directory.

    Creating one only starts the process; the caller keeps the object and
    then calls :meth:`wait_ready`, so that a set-up that fails or hangs
    still leaves something to :meth:`close`.
    """

    def __init__(self, name: str, seed: int, per_slice: int, slices: int,
                 setup_only: bool = False):
        self.name = name
        self.cache_dir = fresh_dir(name)
        argv = [sys.executable, str(BENCH / "worker.py"),
                "--workload", name, "--seed", str(seed),
                "--per-slice", str(per_slice), "--slices", str(slices)]
        if setup_only:
            argv.append("--setup-only")
        self.started = time.perf_counter()
        # A session of its own: whatever the workload starts (server, pool
        # workers) can be found and killed as one group if it goes wrong.
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(self.cache_dir), cwd=str(ROOT),
            start_new_session=True,
        )

    def wait_ready(self) -> float:
        """Block until set-up is done; returns spawn-to-ready seconds."""
        self._read()
        return time.perf_counter() - self.started

    def _read(self) -> Dict[str, object]:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError(f"{self.name}: worker gave no reply "
                             f"(exit code {self.proc.poll()})")
        reply = json.loads(line)
        if "error" in reply:
            raise BenchError(f"{self.name}: {reply['error']}")
        return reply

    def ask(self, command: str) -> Dict[str, object]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> List[int]:
        """Let the worker tear down (it does so when stdin closes), then
        scan /proc for anything left in its session; returns the pids that
        had to be killed (none, after a clean run)."""
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(30.0)
        except subprocess.TimeoutExpired:
            pass
        strays = kill_session(self.proc.pid)
        self.proc.wait()
        remove_dir(self.cache_dir)
        return strays


def kill_session(session: int) -> List[int]:
    """Kill whatever still runs in a child's session; returns what did."""
    survivors = session_members(session)
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while session_members(session) and time.monotonic() < deadline:
        time.sleep(0.05)
    return survivors


# -- sizes ----------------------------------------------------------------------

def per_slice_of(cls, seconds: float, smoke: bool) -> int:
    if smoke:
        return cls.SMOKE_PER_SLICE
    step = cls.PER_SLICE_STEP
    units = round(seconds / SLICES / cls.UNIT_S / step) * step
    return max(cls.MIN_PER_SLICE, units)


# -- one session ----------------------------------------------------------------

def run_session(names: Sequence[str], seed: int, seconds: float,
                trace: bool, smoke: bool) -> Dict[str, Dict[str, object]]:
    """Set every workload up, run the slices round-robin, check, probe."""
    from workloads import WORKLOADS

    slices = 1 if smoke else (TRACE_SLICES if trace else SLICES)
    sizes = {n: per_slice_of(WORKLOADS[n], seconds, smoke) for n in names}
    results: Dict[str, Dict[str, object]] = {
        n: {"per_slice": sizes[n], "slices": [], "setup_probes_s": []}
        for n in names
    }
    children: Dict[str, Child] = {}
    strays: List[int] = []
    try:
        for name in names:
            children[name] = Child(name, seed, sizes[name], slices)
            results[name]["setup_probes_s"].append(
                children[name].wait_ready())
        # Round-robin: slice i of every workload before slice i+1 of any,
        # so each workload samples the whole session, not one window of it.
        for index in range(slices):
            if trace and index == slices // 2:
                for name in names:
                    children[name].ask("trace")
            for name in names:
                results[name]["slices"].append(
                    children[name].ask(f"slice {index}"))
        for name in names:
            results[name].update(children[name].ask("finish")["finished"])
    finally:
        for child in children.values():
            strays += child.close()
    if not smoke and not trace:
        # The second set-up probe, at the far end of the session: cold
        # again (a cache directory of its own), set-up only.
        for name in names:
            probe = Child(name, seed, sizes[name], slices, setup_only=True)
            try:
                results[name]["setup_probes_s"].append(probe.wait_ready())
            finally:
                strays += probe.close()
    if strays:
        raise BenchError(f"processes left behind by the run: {strays}")
    return results


def end_to_end(result: Dict[str, object],
               declared: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """The run's value of each end-to-end metric (see README: quiet-side
    quartile across slices; smaller set-up probe; summed VmHWM)."""
    values = {}
    for metric in declared:
        name = metric["name"]
        if name == "setup_s":
            values[name] = min(result["setup_probes_s"])
        elif name == "peak_rss_mb":
            values[name] = result["peak_rss_mb"]
        else:
            values[name] = quiet_quartile(
                [s[name] for s in result["slices"]], metric["better"])
    return values


def run_probes(names: Sequence[str]) -> Dict[str, Dict[str, float]]:
    """The stand-alone probes that apply to ``names``, per workload."""
    cache_dir = fresh_dir("probes")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "probes.py"), *names],
        env=child_env(cache_dir), cwd=str(ROOT), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=REPLY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        kill_session(proc.pid)
        proc.wait()
        remove_dir(cache_dir)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"probes exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def per_layer(name: str, result: Dict[str, object], probes: Dict[str, float],
              declared: Sequence[Dict[str, object]]):
    """The per-layer metrics that apply to one traced workload: its own
    counts, percentiles and layer times, and the stand-alone probes of the
    layers it runs."""
    import layers

    spans = result.pop("spans")
    half = len(result["slices"]) // 2
    values: Dict[str, float] = dict(probes)
    values.update(result.get("counts", {}))
    values.update(result.get("percentiles", {}))
    built, ladder = layers.BUILDERS[name](spans)
    values.update(built)
    values["trace.overhead_pct"] = layers.overhead_pct(
        result["slices"][:half], result["slices"][half:])
    return ({m["name"]: float(values[m["name"]]) for m in declared
             if m["name"] in values}, ladder, spans)


# -- output ---------------------------------------------------------------------

def totals(result: Dict[str, object]) -> Dict[str, int]:
    return {key: sum(s[key] for s in result["slices"])
            for key in ("attempted", "failed")}


def with_units(values: Dict[str, float],
               declared: Sequence[Dict[str, object]]) -> Dict[str, object]:
    units = {m["name"]: m["unit"] for m in declared}
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    require_program()
    spec = load_spec()
    declared_workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=declared_workloads,
                        help="run one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured time per workload at reference speed")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="1 slice, minimal sizes, no second set-up probe")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else declared_workloads
    trace = bool(args.trace)

    try:
        results = run_session(names, args.seed, args.seconds, trace, args.smoke)
        probes = run_probes(names) if trace else {}
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1

    report: Dict[str, Dict[str, object]] = {}
    all_spans = {}
    for name in names:
        result = results[name]
        if trace:
            values, ladder, spans = per_layer(name, result, probes[name],
                                              spec["per_layer"])
            all_spans[name] = spans
            print(ladder.render(name))
            declared = spec["per_layer"]
        else:
            values = end_to_end(result, spec["end_to_end"])
            declared = spec["end_to_end"]
        report[name] = {**totals(result),
                        "metrics": with_units(values, declared)}
        for key in ("result_digest", "max_error", "counts", "slices",
                    "setup_probes_s", "per_slice"):
            if key in result:
                report[name][key] = result[key]
        print(f"== {name}: attempted {report[name]['attempted']}, "
              f"failed {report[name]['failed']}"
              + (f", result_digest {result['result_digest']}"
                 if "result_digest" in result else "")
              + (f", max_error {result['max_error']}"
                 if "max_error" in result else ""))
        for metric, entry in report[name]["metrics"].items():
            print(f"   {metric:<28s} {entry['value']:>14.4f} {entry['unit']}")
    # Everything, per-slice values included, for whoever wants to recompute.
    write_json(OUT / "last_run.json", report)
    if trace:
        write_json(OUT / "trace.json", all_spans)

    failed = sum(r["failed"] for r in report.values())
    correct = failed == 0
    if args.workload:
        only = report[args.workload]
        metrics = only["metrics"]
        if trace:
            # The result line carries every declared per-layer metric; one
            # that does not apply to this workload (a layer it never
            # enters, a thing that never happens in it) reads 0 there and
            # is left out of the table above.
            metrics = {**with_units({m["name"]: 0.0 for m in spec["per_layer"]},
                                    spec["per_layer"]), **metrics}
        final = {"correct": correct, "attempted": only["attempted"],
                 "failed": only["failed"], "metrics": metrics}
    else:
        final = {"correct": correct,
                 "attempted": sum(r["attempted"] for r in report.values()),
                 "failed": failed, "workloads": report}
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
