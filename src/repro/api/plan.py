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
from typing import TYPE_CHECKING, Dict, Optional, Type, Union

if TYPE_CHECKING:
    from repro.analysis import AnalysisReport
    from repro.api.backends import EstimateOptions, RunReport, Workload

from repro import codec
from repro.errors import ParameterError
from repro.params import BenchmarkSpec
from repro.workloads import WorkloadProgram, resolve_workload

#: Bump when the digest payload layout changes; digests (and anything
#: keyed by them, e.g. the serve layer's disk-cached reports) from other
#: versions then stop colliding with the new format.
PLAN_FORMAT_VERSION = 1

#: The resolved workload forms a plan can carry.
PlanWorkload = Union[BenchmarkSpec, WorkloadProgram]


# -- payload codec ---------------------------------------------------------------
#
# Every record is encoded by repro.codec (one policy: typed fields, unknown
# keys rejected, floats written as floats so the digest does not depend on
# how a number was spelled).  A plan adds only its format version and the
# {"benchmark"|"program": ...} tag of its workload union.

_WORKLOAD_TAGS: Dict[str, "Type[PlanWorkload]"] = {
    "benchmark": BenchmarkSpec, "program": WorkloadProgram}
_PLAN_KEYS = ("version", "backend", "schedule", "options", "workload")


def _payload(workload: PlanWorkload, backend: str, schedule: str,
             options: "EstimateOptions") -> Dict[str, object]:
    """The plan payload; :meth:`Plan.to_dict` and the digest both use it."""
    tag = "benchmark" if isinstance(workload, BenchmarkSpec) else "program"
    return {
        "version": PLAN_FORMAT_VERSION,
        "backend": backend,
        "schedule": schedule,
        "options": codec.to_dict(options),
        "workload": {tag: codec.to_dict(workload)},
    }


@lru_cache(maxsize=4096)
def _digest_for(workload: PlanWorkload, backend: str, schedule: str,
                options: "EstimateOptions") -> str:
    """Content digest, memoized by the (hashable) plan fields.

    Serving workloads submit thousands of plans over the *same* resolved
    program object, so the canonical-JSON walk is paid once per distinct
    request shape, not once per request.
    """
    payload = _payload(workload, backend, schedule, options)
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

    def to_dict(self) -> Dict[str, object]:  # lint: allow-hand-codec
        """Full-fidelity JSON-compatible payload (see :meth:`from_dict`)."""
        return _payload(self.workload, self.backend, self.schedule,
                        self.options)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Plan":  # lint: allow-hand-codec
        """Decode a payload; any malformed one raises ``ParameterError``."""
        from repro.api.backends import EstimateOptions

        if not isinstance(data, dict) or not set(data) <= set(_PLAN_KEYS):
            raise ParameterError(f"a plan payload is an object with keys "
                                 f"from {_PLAN_KEYS}, got {data!r:.80}")
        version = data.get("version", PLAN_FORMAT_VERSION)
        if type(version) is not int or version != PLAN_FORMAT_VERSION:
            raise ParameterError(f"plan payload version {version!r:.60} != "
                                 f"{PLAN_FORMAT_VERSION}")
        workload, backend, schedule = (
            data.get("workload"), data.get("backend"), data.get("schedule"))
        if not isinstance(workload, dict) or len(workload) != 1 \
                or next(iter(workload)) not in _WORKLOAD_TAGS:
            raise ParameterError(f"Plan.workload needs one 'benchmark' or "
                                 f"'program' key, got {workload!r:.60}")
        if not (isinstance(backend, str) and isinstance(schedule, str)):
            raise ParameterError(f"Plan.backend and Plan.schedule must be "
                                 f"str, got {backend!r:.30}, {schedule!r:.30}")
        ((tag, body),) = workload.items()
        return cls(
            workload=codec.from_dict(_WORKLOAD_TAGS[tag], body),
            backend=backend,
            schedule=schedule,
            options=codec.from_dict(EstimateOptions, data.get("options", {})),
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
# worker processes; both paths use these two names, which delegate to
# repro.codec, so a report survives the round-trip bit-identically
# (Python's json preserves ints exactly and floats via repr, which
# round-trips IEEE-754 doubles).

def report_to_dict(report: "RunReport") -> Dict[str, object]:  # lint: allow-hand-codec
    return codec.to_dict(report)


def report_from_dict(data: Dict[str, object]) -> "RunReport":  # lint: allow-hand-codec
    from repro.api.backends import RunReport

    return codec.from_dict(RunReport, data)
