"""Shared pieces of the benchmark: paths, order statistics, /proc accounting.

Imported by the orchestrator (``run.py``), the per-workload child
(``worker.py``) and the probes; nothing here imports ``repro``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Scratch for one run's cache dirs; emptied again before the run ends.
WORK = BENCH / ".work"
OUT = BENCH / "out"

#: Every workload's op list is cut into this many equal slices.
SLICES = 8

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def load_spec() -> Dict[str, object]:
    """``BENCHMARK.json``: the one declaration of workloads and metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def require_program() -> None:
    """Exit non-zero, printing no result, where the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"bench: {SRC / 'repro'} not found - the benchmark measures the "
            f"repository it sits in and cannot run without it\n"
        )
        raise SystemExit(2)


def child_env(cache_dir: Path) -> Dict[str, str]:
    """Environment of every process the harness starts: the program on
    the path, a private cache directory, no fault plan."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_FAULT_PLAN", None)
    return env


def write_json(path: Path, payload: object) -> None:
    """Write ``payload`` under ``bench/out``; runs may overlap, so the
    file appears whole or not at all."""
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    os.replace(scratch, path)


def fresh_dir(label: str) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()  # only succeeds once the last run's dir is gone
    except OSError:
        pass


# -- order statistics -----------------------------------------------------------

def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile, ``q`` in (0, 1]: the smallest sample with at
    least ``q`` of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quiet_quartile(values: Sequence[float], better: str) -> float:
    """The quartile on the side an undisturbed machine would read.

    Host noise only ever adds time, and it comes in episodes longer than
    a slice, so slices fall into a quiet and a disturbed group.  Ranking
    the slices best-first and taking the nearest-rank first quartile
    (the 2nd best of 8) reads the quiet group as long as it holds a
    quarter of the slices, and ignores one lucky slice.
    """
    if better == "higher":
        return -nearest_rank([-v for v in values], 0.25)
    return nearest_rank(values, 0.25)


def spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median
    (the acceptance rule's spread; needs at least two values)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


# -- /proc accounting -----------------------------------------------------------

def stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
        text = fh.read()
    # The command name may hold spaces and parentheses; fields follow the
    # last ')'.  Index 0 here is field 3 (state) of proc(5).
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant, by one scan of /proc."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parents[int(entry)] = int(stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue  # exited between listdir and read
    tree = [root]
    for pid in tree:
        tree.extend(p for p, parent in parents.items() if parent == pid)
    return tree


def session_members(session: int) -> List[int]:
    """Live (non-zombie) processes whose session id is ``session``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = stat_fields(int(entry))
            if int(fields[3]) == session and fields[0] != "Z":
                members.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue
    return members


def cpu_seconds(pids: Iterable[int]) -> float:
    """CPU seconds (user + system) consumed so far by the live threads of
    ``pids``.

    Read from each thread's ``schedstat`` (nanoseconds on a CPU), because
    ``stat`` counts in 10 ms ticks and a slice is only a couple of
    seconds; ``stat`` is the fallback where schedstats are not compiled in.
    """
    total = 0.0
    for pid in pids:
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
            nanos = 0
            for task in tasks:
                with open(f"/proc/{pid}/task/{task}/schedstat",
                          encoding="ascii") as fh:
                    nanos += int(fh.read().split()[0])
            total += nanos / 1e9
        except (OSError, ValueError, IndexError):
            try:
                fields = stat_fields(pid)
            except OSError:
                continue  # exited
            total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the resident-set high-water marks (``VmHWM``) of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii",
                      errors="replace") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
