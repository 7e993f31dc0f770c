"""repro.serve — multi-session throughput on top of the plan/execute API.

The ROADMAP's "millions of users" direction: many sessions ask the same
accelerator-scale questions, so the serving layer turns repeated
:class:`~repro.api.plan.Plan` executions into cache hits and spreads the
remaining distinct work across processes.

* :class:`EstimateService` — ``submit(plan) -> handle`` / ``gather()``
  micro-batching with digest-level dedup, static admission verification
  through :mod:`repro.analysis` (``admission="strict"|"warn"|"off"``),
  an in-memory report LRU and a cross-process disk cache
  (``repro.cache``, namespace ``report``);
* :class:`ShardPool` — worker processes for distinct cold plans, all
  sharing the machine-wide kernel-table disk cache;
* :class:`AsyncEstimateService` — the same service behind ``await``.

Try it: ``examples/serving.py``.
"""

from repro.serve.aio import AsyncEstimateService
from repro.serve.pool import (
    RemotePlanError,
    ShardPool,
    StalledWorker,
    WorkerDied,
)
from repro.serve.service import (
    ADMISSION_MODES,
    AdmissionError,
    EstimateHandle,
    EstimateService,
    REPORT_CACHE_KIND,
    ServeError,
    ServiceStats,
)

__all__ = [
    "ADMISSION_MODES",
    "AdmissionError",
    "AsyncEstimateService",
    "EstimateHandle",
    "EstimateService",
    "REPORT_CACHE_KIND",
    "RemotePlanError",
    "ServeError",
    "ServiceStats",
    "ShardPool",
    "StalledWorker",
    "WorkerDied",
]
