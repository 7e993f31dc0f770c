"""RPU substrate: the machine model and the dual-queue task simulator."""

from repro.rpu.config import (BANDWIDTH_TECH, DEFAULT_KIND_EFFICIENCY, GB,
                              RPUConfig, standard_sweep)
from repro.rpu.simulator import RPUSimulator, SimResult, TaskTiming, lower_bounds

__all__ = [
    "DEFAULT_KIND_EFFICIENCY",
    "BANDWIDTH_TECH",
    "GB",
    "RPUConfig",
    "RPUSimulator",
    "SimResult",
    "TaskTiming",
    "lower_bounds",
    "standard_sweep",
]
