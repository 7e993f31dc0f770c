"""Registry mapping experiment ids (table/figure numbers) to runners."""

from __future__ import annotations

from typing import Callable, Dict

from repro.experiments import (
    bootstrap,
    crossover,
    deep,
    extras,
    figure2,
    figure4,
    figure56,
    figure7,
    figure8,
    figure9,
    table2,
    table3,
    table4,
    table5,
)
from repro.experiments.report import ExperimentResult

#: Experiment id -> zero-argument runner.
EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "fig2": figure2.run,
    "fig4": figure4.run,
    "fig5": figure56.run_bts3,
    "fig6": figure56.run_ark,
    "fig7": figure7.run,
    "fig8": figure8.run,
    "fig9": figure9.run,
    "keycompress": extras.run_key_compression,
    "motivation": extras.run_motivation,
    "hoisting": extras.run_hoisting,
    "ablation": extras.run_budget_ablation,
    "crossover": crossover.run,
    "bootstrap": bootstrap.run,
    "deep": deep.run,
}


def run_experiment(name: str) -> ExperimentResult:
    key = name.lower()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]()
