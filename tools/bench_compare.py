"""Paired parent/change benchmark runs, judged against ``BENCHMARK.json``.

    python -m tools.bench_compare <parent-rev> [--pairs N]

The protocol every performance statement in this repository rests on, as
one command.  The parent revision (``git archive``) and a snapshot of
this working tree (tracked and untracked-but-not-ignored files) are
unpacked side by side into ``<tmp>/parent`` and ``<tmp>/change``; then,
for each declared workload, N pairs of

    python3 bench/run.py --workload W --seed K

run one after the other, the two checkouts taking turns to go first,
both sides of a pair on the same seed.  The directory names are the same
length on purpose: ``fhe_hks_batch``'s ``peak_rss_mb`` reads 108.8, 111.6
or 114.4 MB (+-0.15 within a directory, bound 5 %) for the same code
depending on nothing but the length of the checkout's path.

That step is glibc's dynamic mmap threshold.  Freeing an mmapped block
raises the threshold to that block's size (and the trim threshold to
twice it), so which of the functional
path's big numpy buffers are later served from the heap, and stay
resident, depends on the heap's layout when they are freed.  Anything
that moves that layout moves the reading between ~109 and ~114 MB
(+4.8 %): the checkout path's length (it is in every module's
``__file__`` and in ``sys.path``), and edits to any module that ``from
repro import FHESession`` imports, which is the whole estimate stack.
Measured on the same code: a 10-character checkout path read 109.1 MB
and a 17-character one 114.4 MB; with ``MALLOC_MMAP_THRESHOLD_=131072``
in the environment (a fixed threshold) both read 102.9 MB.  At one path,
adding a module-level list of 1,024 formatted names to
``core/hks_ops.py`` and nothing else moved the reading from 109.2 to
113.6 MB, and a second such list to 110.4 MB.  So a step of that size in
this metric, with no change to the functional path, is layout, not
memory the change holds.  Lasting fixes: a benchmark change that fixes
the threshold for every side, or pass-scoped buffers in the functional
path that leave no large ``free`` to move it (ROADMAP item 5(d)).

For every (workload, end-to-end metric) it prints both medians, how much
worse the change's is, the parent's quartile distance, the pairs the
change won or tied, and a verdict (see :func:`judge`); then every run
made.  Exits 1 if any verdict is ``worse``.  A run that exits non-zero
stops the comparison, after the other side has rerun the same workload
on the same seed once, so the message says whether the fault is the
change's alone or the parent's too.

This is where the wall-clock guards of the retired ``benchmarks/`` suite
live: a single-shot ratio or an absolute floor is not a guard on a box
that drifts 15-35 % an hour; only the two sides of a pair are comparable.
Each side runs the ``bench/`` of its own checkout; this tool writes no
file outside the temporary directory, which is removed on the way out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Pair k runs on seed FIRST_SEED + k (``bench/aa_check.py``'s numbering).
FIRST_SEED = 101
#: A gain needs this many pairs, and the change to win this share of them.
GAIN_PAIRS = 10
WIN_SHARE = 0.9


def quartile_distance(values: Sequence[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(parent: Sequence[float], change: Sequence[float], better: str,
          bound: float) -> Dict[str, object]:
    """The verdict on one (workload, metric) from its paired readings.

    ``parent[k]`` and ``change[k]`` are the two sides of pair k (at least
    two pairs).  In this order:

    * ``worse`` — the change's median is worse than the parent's by more
      than ``bound`` (a share of the parent's median);
    * ``improved`` — ten or more pairs were run, the change wins at least
      nine tenths of them, ties counting for neither side, and the medians
      differ by more than the distance between the parent's quartiles;
    * ``unresolved`` — the wider side's quartile distance (as a share of
      its median) exceeds the gap left between the change's shift and the
      bound, and the runs interleave: some run of the change reads no
      better than some run of the parent.  The medians agree, but a
      change the size of the bound could not be told from noise;
    * ``within bound`` — otherwise.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs, both sides of each")
    sign = 1.0 if better == "higher" else -1.0  # x better than y: sign*(x-y) > 0
    median_parent = statistics.median(parent)
    median_change = statistics.median(change)
    gain = sign * (median_change - median_parent)
    shift = -gain / median_parent
    parent_iqr = quartile_distance(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    spread = max(parent_iqr / median_parent,
                 quartile_distance(change) / median_change)
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if shift > bound:
        verdict = "worse"
    elif (len(parent) >= GAIN_PAIRS and wins >= WIN_SHARE * len(parent)
          and gain > parent_iqr):
        verdict = "improved"
    elif spread > bound - max(shift, 0.0) and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "median_parent": median_parent, "median_change": median_change,
        "worse_by": shift, "parent_iqr": parent_iqr, "wins": wins,
        "ties": ties, "pairs": len(parent), "verdict": verdict,
    }


# -- running --------------------------------------------------------------------

def unpack(rev: str, into: Path) -> None:
    """The tracked files of ``rev``, as ``git archive`` gives them."""
    archive = subprocess.Popen(
        ["git", "-C", str(REPO_ROOT), "archive", "--format=tar", rev],
        stdout=subprocess.PIPE,
    )
    try:
        subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                       check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"bench_compare: git archive {rev} failed")


def snapshot(into: Path) -> None:
    """The working tree as a commit of it would be: every tracked or
    untracked-but-not-ignored file that is on disk."""
    listed = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "ls-files", "-z", "--cached",
         "--others", "--exclude-standard"],
        stdout=subprocess.PIPE, check=True,
    ).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        if (REPO_ROOT / rel).is_file():
            (into / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(REPO_ROOT / rel, into / rel)


def one_run(root: Path, workload: str, seed: int, *, side: str,
            pair: int) -> Dict[str, object]:
    """The final JSON line of one ``bench/run.py`` invocation in ``root``,
    the ``side`` (parent or change) of pair number ``pair`` (from 1).

    A run that exits non-zero stops the comparison with a message that
    names the run at fault (side, pair, seed, workload) and the command
    that reruns it alone in a checkout of that side.
    """
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed)]
    # The harness puts its own checkout's src/ first; nothing of the
    # caller's path may stand in for the parent's code.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(argv, cwd=str(root), env=env,
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"bench_compare: run at fault: side={side} pair={pair} "
            f"seed={seed} workload={workload} exited with code "
            f"{done.returncode}\n  rerun it alone in a checkout of the "
            f"{side} side: python3 bench/run.py --workload {workload} "
            f"--seed {seed}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def paired_run(roots: Dict[str, Path], workload: str, seed: int, *,
               side: str, pair: int) -> Dict[str, object]:
    """:func:`one_run` of ``side``; if it fails, the other side reruns
    the same workload and seed once, and the failure's message ends with
    whose fault it is: ``both sides fail on seed S (a parent fault)``,
    or the failing side's name with ``only``."""
    try:
        return one_run(roots[side], workload, seed, side=side, pair=pair)
    except SystemExit as failure:
        other = "change" if side == "parent" else "parent"
        try:
            one_run(roots[other], workload, seed, side=other, pair=pair)
            fault = f"{side} only: the {other} side passes seed {seed}"
        except SystemExit:
            fault = f"both sides fail on seed {seed} (a parent fault)"
        raise SystemExit(f"{failure.code}\n  {fault}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    rev = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "--verify",
         f"{args.parent}^{{commit}}"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip()
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    #: runs[side][workload] = the final lines, in pair order.
    runs: Dict[str, Dict[str, List[Dict[str, object]]]] = {
        side: {name: [] for name in names} for side in ("parent", "change")
    }
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as scratch:
        roots = {side: Path(scratch) / side for side in ("parent", "change")}
        for root in roots.values():
            root.mkdir()
        unpack(rev, roots["parent"])
        snapshot(roots["change"])
        for name in names:
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    runs[side][name].append(
                        paired_run(roots, name, FIRST_SEED + k,
                                   side=side, pair=k + 1))
                print(f"{name}: pair {k + 1}/{args.pairs} done "
                      f"({order[0]} first, seed {FIRST_SEED + k})",
                      flush=True)

    print(f"\nparent {rev[:12]} vs working tree, {args.pairs} pairs per "
          f"workload")
    print(f"{'workload':<14s} {'metric':<14s} {'parent':>11s} {'change':>11s} "
          f"{'worse by':>9s} {'parent IQR':>11s} {'win/tie/n':>10s} "
          f"{'bound':>6s}  verdict")
    verdicts = []
    for name in names:
        for metric in spec["end_to_end"]:
            sides = {side: [run["metrics"][metric["name"]]["value"]
                            for run in runs[side][name]]
                     for side in ("parent", "change")}
            row = judge(sides["parent"], sides["change"], metric["better"],
                        metric["bound"])
            verdicts.append(row["verdict"])
            print(f"{name:<14s} {metric['name']:<14s} "
                  f"{row['median_parent']:11.4f} {row['median_change']:11.4f} "
                  f"{row['worse_by'] * 100:8.2f}% {row['parent_iqr']:11.4f} "
                  f"{row['wins']:>4d}/{row['ties']}/{row['pairs']:<3d} "
                  f"{metric['bound']:6.2f}  {row['verdict']}")
    print("\nevery run, in pair order:")
    for name in names:
        for side in ("parent", "change"):
            failed = sum(run["failed"] for run in runs[side][name])
            attempted = sum(run["attempted"] for run in runs[side][name])
            print(f"{name} {side}: failed {failed} of {attempted}")
            for metric in spec["end_to_end"]:
                values = " ".join(
                    f"{run['metrics'][metric['name']]['value']:.4f}"
                    for run in runs[side][name])
                print(f"   {metric['name']:<14s} {values}")
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
