"""Workload-level modelling: where does time go in a full HE application?

The paper's motivation is that hybrid key switching consumes ~70% of
private-inference runtime (ResNet-20: 3,306 rotations).  This package
represents whole applications as phase-structured
:class:`~repro.workloads.ir.WorkloadProgram`\\ s — ordered lists of
:class:`~repro.workloads.ir.Phase` entries, each priced at its own point
of the modulus chain — so the claim can be reproduced quantitatively,
*level-aware*, on the same simulator.

Layout:

* :mod:`repro.workloads.mix` — op mixes and per-op task models;
* :mod:`repro.workloads.ir` — the phase IR;
* :mod:`repro.workloads.builders` — structural lowering of the bootstrap
  plan and the deep scenarios (``BOOT``, ``RESNET_BOOT``, ``HELR``);
* :mod:`repro.workloads.registry` — name -> program lookup and the
  request-level :func:`resolve_workload` used by ``estimate()``, plans
  and the solver.
"""

from repro.workloads.builders import (
    boot_flat_workload,
    boot_program,
    bootstrap_phases,
    bootstrap_plan,
    bootstrap_workload,
    helr_program,
    resnet_boot_program,
)
from repro.workloads.ir import (
    BOOTSTRAP_KINDS,
    PHASE_KINDS,
    Phase,
    WorkloadProgram,
    as_program,
    level_spec,
)
from repro.workloads.mix import HEOpMix, build_pointwise_graph, hks_time_share
from repro.workloads.registry import (
    WORKLOADS,
    Workload,
    get_workload,
    list_workloads,
    resolve_workload,
)

__all__ = [
    "BOOTSTRAP_KINDS",
    "HEOpMix",
    "PHASE_KINDS",
    "Phase",
    "WORKLOADS",
    "Workload",
    "WorkloadProgram",
    "as_program",
    "boot_flat_workload",
    "boot_program",
    "bootstrap_phases",
    "bootstrap_plan",
    "bootstrap_workload",
    "build_pointwise_graph",
    "get_workload",
    "helr_program",
    "hks_time_share",
    "level_spec",
    "list_workloads",
    "resnet_boot_program",
    "resolve_workload",
]
