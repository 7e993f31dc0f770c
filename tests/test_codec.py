"""The one record codec: its policy, and a fuzzer over every decoder.

Every record that crosses the wire, a process or the disk goes through
``repro.codec``.  The policy tests pin each rule of its module docstring.
The fuzzer takes a valid payload of each wire record, damages it (one leaf
replaced by an arbitrary JSON value, or one key dropped or added) and
holds the decoder to its contract: it raises ``ParameterError``
(``ReproError`` for a ``FaultPlan``) or returns a value that round-trips
through JSON — never a ``KeyError``, ``TypeError``, ``ValueError`` or
``AttributeError``.
"""

import copy
import json
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import codec
from repro.analysis import AnalysisReport
from repro.analysis.diagnostics import error, warning
from repro.api import Plan, build_plan, report_from_dict, report_to_dict
from repro.api.backends import EstimateOptions
from repro.core.dataflow import DataflowConfig
from repro.errors import ParameterError, ReproError
from repro.faults import FaultPlan, FaultRule
from repro.net.tenants import TenantSpec
from repro.params import get_benchmark
from repro.sched import HKSDecision, Objective, solve
from repro.sched.solver import SolvedSchedule


class TestPolicy:
    def test_int_fields_refuse_bools_and_floats_accept_ints(self):
        with pytest.raises(ParameterError, match="EstimateOptions.sram_mb"):
            codec.from_dict(EstimateOptions, {"sram_mb": True})
        options = codec.from_dict(EstimateOptions, {"bandwidth_gbs": 64})
        assert type(options.bandwidth_gbs) is float
        assert type(codec.to_dict(EstimateOptions(bandwidth_gbs=64))
                    ["bandwidth_gbs"]) is float

    def test_missing_and_unknown_fields_are_errors(self):
        assert codec.from_dict(HKSDecision, {}) == HKSDecision()
        with pytest.raises(ParameterError, match="TenantSpec.token"):
            codec.from_dict(TenantSpec, {"name": "a"})
        with pytest.raises(ParameterError, match="HKSDecision.nope"):
            codec.from_dict(HKSDecision, {"nope": 1})
        with pytest.raises(ParameterError, match="HKSDecision payload"):
            codec.from_dict(HKSDecision, ["base", "MP"])

    def test_enums_travel_as_lower_case_names(self):
        report = AnalysisReport("s", (warning("p", "here", "msg"),))
        payload = codec.to_dict(report)
        assert payload["diagnostics"][0]["severity"] == "warning"
        assert codec.from_dict(AnalysisReport, payload) == report
        payload["diagnostics"][0]["severity"] = "WARNING"
        with pytest.raises(ParameterError, match="Diagnostic.severity"):
            codec.from_dict(AnalysisReport, payload)

    def test_runtime_state_is_not_serialized(self):
        rule = FaultRule(point="cache.load", action="error")
        rule.visits, rule.hits = 3, 1
        payload = codec.to_dict(rule)
        assert "visits" not in payload and "hits" not in payload
        # Every declared field travels, defaults included.
        assert payload["max_hits"] == 1 and payload["delay_s"] == 0.05
        assert codec.from_dict(FaultRule, payload) == rule


# -- the fuzzer ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _payloads():
    """name -> (valid payload, decode, encode, the error decode may raise)."""
    report = build_plan("BOOT", backend="rpu", schedule="OC").run()
    solved = solve(get_benchmark("ARK"), DataflowConfig(), Objective())
    faults = FaultPlan([
        FaultRule(point="cache.load", action="delay", probability=0.5,
                  max_hits=None),
        FaultRule(point="net.decode", action="error", match="submit"),
    ], seed=3)
    analysis = AnalysisReport("plan", (
        error("ir.level", "phase[0]", "too deep", hint="bootstrap"),
        warning("sched.gap", "task[3]", "idle"),
    ))

    def record(cls):
        return (lambda data: codec.from_dict(cls, data)), codec.to_dict

    return {
        "plan-benchmark": (build_plan("ARK", bandwidth_gbs=12.8).to_dict(),
                           Plan.from_dict, Plan.to_dict, ParameterError),
        "plan-program": (build_plan("HELR", schedule="MP").to_dict(),
                         Plan.from_dict, Plan.to_dict, ParameterError),
        "run-report": (report_to_dict(report), report_from_dict,
                       report_to_dict, ParameterError),
        "solved-schedule": (codec.to_dict(solved),
                            *record(SolvedSchedule), ParameterError),
        "fault-plan": (faults.to_dict(), FaultPlan.from_dict,
                       FaultPlan.to_dict, ReproError),
        "tenant-spec": (codec.to_dict(TenantSpec("a", "t", rate=2.0)),
                        *record(TenantSpec), ParameterError),
        "analysis-report": (codec.to_dict(analysis),
                            *record(AnalysisReport), ParameterError),
    }


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8)
    | st.sampled_from(["MP", "GEN", "error", "app", "rpu", "OC", ""]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)


def _slots(data, dicts_only=False):
    """Every (container, key) whose value is a leaf, or every dict."""
    if isinstance(data, (dict, list)):
        if dicts_only and isinstance(data, dict):
            yield data, None
        keys = data if isinstance(data, dict) else range(len(data))
        for key in keys:
            value = data[key]
            if isinstance(value, (dict, list)):
                yield from _slots(value, dicts_only)
            elif not dicts_only:
                yield data, key


@st.composite
def damaged(draw, payload):
    data = copy.deepcopy(payload)
    how = draw(st.sampled_from(("replace", "drop", "add")))
    if how == "replace":
        parent, key = draw(st.sampled_from(list(_slots(data))))
        parent[key] = draw(JSON_VALUES)
    else:
        target, _ = draw(st.sampled_from(list(_slots(data, dicts_only=True))))
        if how == "add":
            target[draw(st.text(max_size=12))] = draw(JSON_VALUES)
        elif target:
            del target[draw(st.sampled_from(sorted(target)))]
    return data


@pytest.mark.parametrize("name", ("plan-benchmark", "plan-program",
                                  "run-report", "solved-schedule",
                                  "fault-plan", "tenant-spec",
                                  "analysis-report"))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_decoders_reject_or_round_trip_damaged_payloads(name, data):
    payload, decode, encode, allowed = _payloads()[name]
    assert encode(decode(payload)) == payload
    try:
        value = decode(data.draw(damaged(payload)))
    except allowed:
        return
    wire = json.loads(json.dumps(encode(value)))
    assert encode(decode(wire)) == encode(value)
