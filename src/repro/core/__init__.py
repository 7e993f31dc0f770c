"""CiFlow core: HKS stage algebra, task graphs, and the one schedule
emitter whose named decisions are the paper's three dataflows."""

from repro.core.analysis import (
    DataflowReport,
    analyze_dataflow,
    minimum_mp_working_set_bytes,
)
from repro.core.dataflow import (
    LEGACY_DECISIONS,
    Dataflow,
    DataflowConfig,
    HKSDecision,
    ScheduleBuilder,
)
from repro.core.stages import HKSShape, OpCount, ntt_tower_ops
from repro.core.taskgraph import DATA_TAG, EVK_TAG, Kind, Queue, Task, TaskGraph
from repro.core.traffic import classify_buffer, traffic_by_class, traffic_rows

#: Registry of the three paper dataflows, in presentation order.
DATAFLOWS = {d.base: Dataflow(d) for d in LEGACY_DECISIONS}


def get_dataflow(name: str) -> Dataflow:
    """Look up a dataflow by its short id (case-insensitive)."""
    key = name.upper()
    if key not in DATAFLOWS:
        raise KeyError(f"unknown dataflow {name!r}; choose from {list(DATAFLOWS)}")
    return DATAFLOWS[key]


__all__ = [
    "DATAFLOWS",
    "DATA_TAG",
    "Dataflow",
    "DataflowConfig",
    "DataflowReport",
    "EVK_TAG",
    "HKSDecision",
    "HKSShape",
    "Kind",
    "LEGACY_DECISIONS",
    "OpCount",
    "Queue",
    "ScheduleBuilder",
    "Task",
    "TaskGraph",
    "analyze_dataflow",
    "classify_buffer",
    "get_dataflow",
    "minimum_mp_working_set_bytes",
    "ntt_tower_ops",
    "traffic_by_class",
    "traffic_rows",
]
