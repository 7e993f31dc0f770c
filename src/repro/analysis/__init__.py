"""repro.analysis — static verification of plans, workload IR and schedules.

The legality kernel of the estimation stack: ``analyze(obj)`` runs a
registry of read-only passes over a :class:`~repro.api.plan.Plan`, a
:class:`~repro.workloads.ir.WorkloadProgram`, a
:class:`~repro.core.taskgraph.TaskGraph` or a solved
:class:`~repro.sched.solver.ScheduleArtifact` and returns an
:class:`AnalysisReport` of located, severity-tagged
:class:`Diagnostic` findings; ``verify(obj)`` additionally raises
:class:`~repro.errors.AnalysisError` on any error.

Three pass families ship here:

* **plan/IR** (``plan.*``, ``ir.*``) — level monotonicity, tower
  budgets, bootstrap-group structure, HKS-count cross-checks against
  the :class:`~repro.ckks.bootstrap.plan.BootstrapPlan` arithmetic, and
  required-evk derivation (:func:`required_evks`);
* **task graphs** (``graph.*``) — structural/deadlock checks, buffer
  write-write races and SRAM resource overflow for the MP/DC/OC
  schedules;
* **solved schedules** (``sched.*``) — op-count invariance, key/data
  traffic bounds, SRAM-budget and decision-legality checks on every
  :class:`~repro.sched.solver.ScheduleArtifact` the schedule solver
  emits.

Integration points: ``EstimateService`` verifies plans at admission,
the schedule solver gates candidates through the graph passes, and
``python -m repro verify`` runs the whole registry from the command
line.
"""

from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.registry import (
    AnalysisContext,
    AnalysisPass,
    analysis_pass,
    analyze,
    registered_passes,
    verify,
)

# Importing the pass modules registers their passes.
from repro.analysis import (  # noqa: F401,E402
    graph_passes,
    plan_passes,
    sched_passes,
)
from repro.analysis.plan_passes import required_evks
from repro.errors import AnalysisError

__all__ = [
    "AnalysisContext",
    "AnalysisError",
    "AnalysisPass",
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "analysis_pass",
    "analyze",
    "registered_passes",
    "required_evks",
    "verify",
]
