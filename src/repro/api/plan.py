"""Typed estimate plans: the request half of the plan/execute pipeline.

``session.estimate()`` historically resolved the workload, the schedule
and the backend on *every* call, which made requests impossible to share:
two sessions asking for the same HELR estimate could not discover they
were asking for the same thing.  A :class:`Plan` is that resolution done
once, frozen into a value object:

* **validated** — the workload is resolved to a
  :class:`~repro.params.BenchmarkSpec` or a
  :class:`~repro.workloads.ir.WorkloadProgram`, the schedule to one of
  the paper's three dataflows, the options to a typed
  :class:`~repro.api.backends.EstimateOptions`;
* **hashable** — every field is a frozen dataclass, so plans key
  dictionaries and caches directly;
* **JSON-serializable** — :meth:`Plan.to_json` / :meth:`Plan.from_json`
  round-trip the full request, which is how
  :class:`~repro.serve.ShardPool` ships plans to worker processes;
* **content-addressed** — :attr:`Plan.digest` is a stable SHA-256 over
  the canonical JSON payload (sorted keys, phase ``kind`` tags included),
  identical across processes, interpreter hash seeds and dict insertion
  orders.  The serving layer dedups and caches by this digest.

``Plan.run()`` executes the plan on its backend and returns the same
:class:`~repro.api.backends.RunReport` that ``estimate()`` produces —
bit-identical, because ``estimate()`` itself now builds a plan per
schedule and runs it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Optional, Union

if TYPE_CHECKING:
    from repro.analysis import AnalysisReport
    from repro.api.backends import EstimateOptions, RunReport, Workload

from repro.errors import ParameterError
from repro.params import BenchmarkSpec
from repro.workloads import (
    HEOpMix,
    Phase,
    WorkloadProgram,
    resolve_workload,
)

#: Bump when the digest payload layout changes; digests (and anything
#: keyed by them, e.g. the serve layer's disk-cached reports) from other
#: versions then stop colliding with the new format.
PLAN_FORMAT_VERSION = 1

#: The resolved workload forms a plan can carry.
PlanWorkload = Union[BenchmarkSpec, WorkloadProgram]


# -- payload codecs -------------------------------------------------------------
#
# Hand-rolled rather than dataclasses.asdict: the payload is a stable
# wire format (digests depend on it), so every field is spelled out and
# unknown input keys are rejected.

def _spec_to_dict(spec: BenchmarkSpec) -> Dict[str, object]:
    return {
        "name": spec.name,
        "log_n": spec.log_n,
        "kl": spec.kl,
        "kp": spec.kp,
        "dnum": spec.dnum,
    }


def _spec_from_dict(data: Dict[str, object]) -> BenchmarkSpec:
    return BenchmarkSpec(
        name=str(data["name"]),
        log_n=int(data["log_n"]),
        kl=int(data["kl"]),
        kp=int(data["kp"]),
        dnum=int(data["dnum"]),
    )


def _mix_to_dict(mix: HEOpMix) -> Dict[str, int]:
    return {
        "rotations": mix.rotations,
        "ct_multiplies": mix.ct_multiplies,
        "pt_multiplies": mix.pt_multiplies,
        "additions": mix.additions,
    }


def _mix_from_dict(data: Dict[str, object]) -> HEOpMix:
    return HEOpMix(
        rotations=int(data["rotations"]),
        ct_multiplies=int(data["ct_multiplies"]),
        pt_multiplies=int(data["pt_multiplies"]),
        additions=int(data["additions"]),
    )


def _phase_to_dict(phase: Phase) -> Dict[str, object]:
    return {
        "label": phase.label,
        "kind": phase.kind,
        "spec": _spec_to_dict(phase.spec),
        "mix": _mix_to_dict(phase.mix),
    }


def _phase_from_dict(data: Dict[str, object]) -> Phase:
    return Phase(
        label=str(data["label"]),
        spec=_spec_from_dict(data["spec"]),
        mix=_mix_from_dict(data["mix"]),
        kind=str(data.get("kind", "app")),
    )


def _workload_to_dict(workload: PlanWorkload) -> Dict[str, object]:
    if isinstance(workload, BenchmarkSpec):
        return {"benchmark": _spec_to_dict(workload)}
    return {
        "program": {
            "name": workload.name,
            "description": workload.description,
            "phases": [_phase_to_dict(p) for p in workload.phases],
        }
    }


def _workload_from_dict(data: Dict[str, object]) -> PlanWorkload:
    if "benchmark" in data:
        return _spec_from_dict(data["benchmark"])
    if "program" in data:
        prog = data["program"]
        return WorkloadProgram(
            name=str(prog["name"]),
            phases=tuple(_phase_from_dict(p) for p in prog["phases"]),
            description=str(prog.get("description", "")),
        )
    raise ParameterError(
        f"plan workload payload needs a 'benchmark' or 'program' key, "
        f"got {sorted(data)}"
    )


def _options_to_dict(options: "EstimateOptions") -> Dict[str, object]:
    return {
        "bandwidth_gbs": options.bandwidth_gbs,
        "sram_mb": options.sram_mb,
        "evk_on_chip": options.evk_on_chip,
        "key_compression": options.key_compression,
        "modops_scale": options.modops_scale,
    }


def _options_from_dict(data: Dict[str, object]) -> "EstimateOptions":
    from repro.api.backends import EstimateOptions

    valid = set(EstimateOptions.__dataclass_fields__)
    unknown = sorted(set(data) - valid)
    if unknown:
        raise ParameterError(
            f"unknown estimate option(s) {unknown} in plan payload"
        )
    return EstimateOptions(**data)


@lru_cache(maxsize=4096)
def _digest_for(workload: PlanWorkload, backend: str, schedule: str,
                options: "EstimateOptions") -> str:
    """Content digest, memoized by the (hashable) plan fields.

    Serving workloads submit thousands of plans over the *same* resolved
    program object, so the canonical-JSON walk is paid once per distinct
    request shape, not once per request.
    """
    payload = {
        "version": PLAN_FORMAT_VERSION,
        "backend": backend,
        "schedule": schedule,
        "options": _options_to_dict(options),
        "workload": _workload_to_dict(workload),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Plan:
    """One fully resolved estimate request: workload x backend x schedule.

    Build plans with :meth:`FHESession.plan` or :func:`build_plan`; the
    constructor validates eagerly so an invalid request fails where it is
    made, not where it is executed.
    """

    workload: PlanWorkload
    backend: str = "rpu"
    schedule: str = "OC"
    options: "EstimateOptions" = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        from repro.api.backends import (
            KNOWN_SCHEDULES,
            EstimateOptions,
            get_backend,
        )

        if self.options is None:
            object.__setattr__(self, "options", EstimateOptions())
        if not isinstance(self.options, EstimateOptions):
            raise ParameterError(
                f"plan options must be EstimateOptions, "
                f"got {type(self.options).__name__}"
            )
        if not isinstance(self.workload, (BenchmarkSpec, WorkloadProgram)):
            raise ParameterError(
                f"plan workload must be a BenchmarkSpec or WorkloadProgram, "
                f"got {type(self.workload).__name__}"
            )
        object.__setattr__(self, "backend", str(self.backend).lower())
        get_backend(self.backend)  # fail now, not at run time
        schedule = str(self.schedule).upper()
        if schedule not in KNOWN_SCHEDULES:
            raise ParameterError(
                f"unknown schedule {self.schedule!r}; "
                f"choose from {KNOWN_SCHEDULES}"
            )
        object.__setattr__(self, "schedule", schedule)

    # -- identity ---------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def digest(self) -> str:
        """Stable SHA-256 content digest of this request.

        Identical for identical requests across processes, hash seeds and
        construction orders; differs when any priced input differs —
        including per-phase ``kind`` tags and every estimate option.
        """
        return _digest_for(self.workload, self.backend, self.schedule,
                           self.options)

    def __repr__(self) -> str:
        return (
            f"Plan({self.name!r}, backend={self.backend!r}, "
            f"schedule={self.schedule!r}, digest={self.digest[:12]}...)"
        )

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Full-fidelity JSON-compatible payload (see :meth:`from_dict`)."""
        return {
            "version": PLAN_FORMAT_VERSION,
            "backend": self.backend,
            "schedule": self.schedule,
            "options": _options_to_dict(self.options),
            "workload": _workload_to_dict(self.workload),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Plan":
        version = int(data.get("version", PLAN_FORMAT_VERSION))
        if version != PLAN_FORMAT_VERSION:
            raise ParameterError(
                f"plan payload version {version} != {PLAN_FORMAT_VERSION}"
            )
        return cls(
            workload=_workload_from_dict(data["workload"]),
            backend=str(data["backend"]),
            schedule=str(data["schedule"]),
            options=_options_from_dict(dict(data.get("options", {}))),
        )

    def to_json(self) -> str:
        """Canonical JSON (sorted keys — digests are computed over this)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        return cls.from_dict(json.loads(text))

    # -- execution --------------------------------------------------------------

    def run(self) -> "RunReport":
        """Execute on the plan's backend; bit-identical to ``estimate()``."""
        from repro.api.backends import execute_plan

        return execute_plan(self)

    def verify(self) -> "AnalysisReport":
        """Run the static analyzers over this plan (and its workload IR).

        Returns the :class:`~repro.analysis.AnalysisReport`; raises
        :class:`~repro.errors.AnalysisError` if any pass reports an
        error.  Read-only: the plan (and its digest) are unchanged.
        """
        from repro.analysis import analyze

        report = analyze(self)
        report.raise_if_errors()
        return report


def build_plan(workload: "Workload", *, backend: str = "rpu",
               schedule: str = "OC",
               options: Optional["EstimateOptions"] = None,
               **option_fields: object) -> Plan:
    """Resolve an estimate request into a :class:`Plan`.

    ``workload`` accepts everything ``estimate()`` accepts — a Table III
    benchmark name or :class:`BenchmarkSpec`, a registered program name
    (``"BOOT"``, ``"RESNET_BOOT"``, ``"HELR"``) or any
    :class:`WorkloadProgram`.  Options come either as a ready
    ``options=EstimateOptions(...)`` object or as keyword fields
    (``bandwidth_gbs=12.8``), never both.  ``schedule`` must name a single
    dataflow — a plan is one executable request; loop (or use
    ``estimate(schedule="all")``) for sweeps.
    """
    from repro.api.backends import EstimateOptions

    if options is not None and option_fields:
        raise ParameterError(
            "pass options=EstimateOptions(...) or option keywords, not both"
        )
    if options is None:
        valid = sorted(EstimateOptions.__dataclass_fields__)
        unknown = sorted(set(option_fields) - set(valid))
        if unknown:
            raise ParameterError(
                f"unknown estimate option(s) {unknown}; valid options: {valid}"
            )
        options = EstimateOptions(**option_fields)
    if not isinstance(schedule, str) or schedule.lower() == "all":
        raise ParameterError(
            "a plan targets exactly one schedule; build one plan per "
            "dataflow (or call estimate(schedule='all') for the sweep)"
        )
    return Plan(
        workload=resolve_workload(workload),
        backend=backend,
        schedule=schedule,
        options=options,
    )


# -- RunReport wire codec -------------------------------------------------------
#
# The serving layer persists reports on disk and ships them between
# worker processes; both paths use this JSON codec so a report survives
# the round-trip bit-identically (Python's json preserves ints exactly
# and floats via repr, which round-trips IEEE-754 doubles).

def report_to_dict(report: "RunReport") -> Dict[str, object]:
    return {
        "benchmark": report.benchmark,
        "backend": report.backend,
        "schedule": report.schedule,
        "total_bytes": report.total_bytes,
        "data_bytes": report.data_bytes,
        "evk_bytes": report.evk_bytes,
        "mod_ops": report.mod_ops,
        "num_tasks": report.num_tasks,
        "peak_on_chip_bytes": report.peak_on_chip_bytes,
        "spill_stores": report.spill_stores,
        "reloads": report.reloads,
        "latency_ms": report.latency_ms,
        "compute_idle_fraction": report.compute_idle_fraction,
        "hks_calls": report.hks_calls,
        "phases": [report_to_dict(p) for p in report.phases],
        "options": _options_to_dict(report.options),
        "schedule_stats": (
            None if report.schedule_stats is None
            else report.schedule_stats.to_dict()
        ),
    }


def report_from_dict(data: Dict[str, object]) -> "RunReport":
    from repro.api.backends import RunReport

    from repro.sched.stats import ScheduleStats

    latency = data.get("latency_ms")
    idle = data.get("compute_idle_fraction")
    hks = data.get("hks_calls")
    raw_stats = data.get("schedule_stats")
    return RunReport(
        benchmark=str(data["benchmark"]),
        backend=str(data["backend"]),
        schedule=str(data["schedule"]),
        total_bytes=int(data["total_bytes"]),
        data_bytes=int(data["data_bytes"]),
        evk_bytes=int(data["evk_bytes"]),
        mod_ops=int(data["mod_ops"]),
        num_tasks=int(data["num_tasks"]),
        peak_on_chip_bytes=int(data["peak_on_chip_bytes"]),
        spill_stores=int(data.get("spill_stores", 0)),
        reloads=int(data.get("reloads", 0)),
        latency_ms=None if latency is None else float(latency),
        compute_idle_fraction=None if idle is None else float(idle),
        hks_calls=None if hks is None else int(hks),
        phases=tuple(report_from_dict(p) for p in data.get("phases", ())),
        options=_options_from_dict(dict(data.get("options", {}))),
        schedule_stats=(
            None if raw_stats is None else ScheduleStats.from_dict(dict(raw_stats))
        ),
    )
