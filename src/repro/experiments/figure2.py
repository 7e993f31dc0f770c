"""Figure 2: high-level ModUp stage timing per dataflow.

The paper's Figure 2 sketches *when* each ModUp stage (P1..P5) is active
under MP, DC and OC.  We regenerate it from simulated task timelines: for
each stage we report its first start, last end, and active span; MP shows
non-overlapping stage bands, DC shows per-digit repetition, OC shows all
stages interleaved across the whole ModUp window.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core import DATAFLOWS, DataflowConfig
from repro.experiments.common import build_schedule
from repro.experiments.report import ExperimentResult
from repro.rpu import RPUSimulator
from repro.sched import Objective, machine_for

STAGES = ("ModUp.P1", "ModUp.P2", "ModUp.P3", "ModUp.P4")


def stage_windows(benchmark: str, dataflow: str,
                  bandwidth_gbs: float = 64.0) -> Dict[str, Tuple[float, float]]:
    """(first start, last end) in ms for each ModUp stage."""
    graph = build_schedule(benchmark, dataflow, evk_on_chip=True)
    machine = machine_for(DataflowConfig(), Objective.latency(bandwidth_gbs))
    sim = RPUSimulator(machine).simulate(graph, collect_trace=True)
    windows: Dict[str, Tuple[float, float]] = {}
    for t in sim.timeline:
        for stage in STAGES:
            if t.label.startswith(stage):
                lo, hi = windows.get(stage, (float("inf"), 0.0))
                windows[stage] = (min(lo, t.start), max(hi, t.end))
    return {k: (v[0] * 1e3, v[1] * 1e3) for k, v in sorted(windows.items())}


def interleaving_metric(windows: Dict[str, Tuple[float, float]]) -> float:
    """Mean pairwise stage-window overlap, 0 (serial) .. ~1 (fully fused)."""
    keys = list(windows)
    if len(keys) < 2:
        return 0.0
    overlaps: List[float] = []
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            (s0, e0), (s1, e1) = windows[a], windows[b]
            inter = max(0.0, min(e0, e1) - max(s0, s1))
            union = max(e0, e1) - min(s0, s1)
            overlaps.append(inter / union if union else 0.0)
    return sum(overlaps) / len(overlaps)


def run(benchmark: str = "BTS3") -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 2",
        description=(
            f"ModUp stage activity windows for {benchmark} (ms; MP = "
            "serial stage bands, OC = fully interleaved stages)"
        ),
    )
    for dataflow in DATAFLOWS.values():
        windows = stage_windows(benchmark, dataflow.name)
        row: Dict[str, object] = {"dataflow": dataflow.name}
        for stage in STAGES:
            lo, hi = windows.get(stage, (0.0, 0.0))
            row[stage.split(".")[1]] = f"{lo:.1f}-{hi:.1f}"
        row["interleave"] = round(interleaving_metric(windows), 2)
        result.rows.append(row)
    result.notes.append(
        "interleave = mean pairwise overlap of stage windows; the paper's "
        "qualitative claim is MP < DC < OC."
    )
    return result
