"""repro.sched: resource-constrained schedule search over HKS dataflows.

The three hand-written dataflows (MP / DC / OC) are points in a larger
space of legal schedules.  This package names that space
(:mod:`~repro.sched.space`), emits any point in it through the shared
stage kernels (:mod:`~repro.sched.generic`), re-lists compute queues
against the dual-queue timing model (:mod:`~repro.sched.list_scheduler`)
and searches per (spec, memory config, objective) with content-addressed
caching (:mod:`~repro.sched.solver`).  The legacy dataflows are always
evaluated exactly, so the solved schedule matches or beats the best
hand-written one by construction.

This package sits *below* :mod:`repro.api` (the workload builders import
:data:`~repro.sched.space.RESNET_DECISION` and friends) and never imports
it: the API layer calls down into the schedule store
(:func:`decision_graph`, :func:`simulated`) and registers its own memos
with :mod:`~repro.sched.memo` so :func:`clear_memos` reaches them.
"""

from repro.core.hks_ops import pin_capacity
from repro.sched.generic import DecisionDataflow
from repro.sched.list_scheduler import reorder_for_latency
from repro.sched.solver import (
    COUNTERS,
    SCHED_VERSION,
    Objective,
    ScheduleArtifact,
    ScheduleDecision,
    SolvedSchedule,
    artifact,
    clear_memos,
    decision_graph,
    machine_for,
    schedule_digest,
    simulated,
    solve,
    solve_key,
    solve_workload,
    solved_graph,
)
from repro.sched.space import (
    HELR_DECISION,
    LEGACY_DECISIONS,
    RESNET_DECISION,
    HKSDecision,
    ProgramDecision,
    enumerate_decisions,
    predict_cost,
)
from repro.sched.stats import ScheduleStats

__all__ = [
    "COUNTERS",
    "SCHED_VERSION",
    "DecisionDataflow",
    "HELR_DECISION",
    "HKSDecision",
    "LEGACY_DECISIONS",
    "Objective",
    "ProgramDecision",
    "RESNET_DECISION",
    "ScheduleArtifact",
    "ScheduleDecision",
    "ScheduleStats",
    "SolvedSchedule",
    "artifact",
    "clear_memos",
    "decision_graph",
    "enumerate_decisions",
    "machine_for",
    "pin_capacity",
    "predict_cost",
    "reorder_for_latency",
    "schedule_digest",
    "simulated",
    "solve",
    "solve_key",
    "solve_workload",
    "solved_graph",
]
