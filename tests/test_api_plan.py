"""Tests for the plan/execute pipeline: typed plans, digests, equivalence.

The serving layer keys everything on plan digests, so the contracts here
are strict: validation happens at construction, digests are stable
across processes and dict orderings (and change when any priced input —
including phase ``kind`` tags — changes), and ``plan().run()`` is
bit-identical to ``estimate()`` everywhere.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    EstimateOptions,
    FHESession,
    Plan,
    build_plan,
    estimate,
    execute_plan,
    report_from_dict,
    report_to_dict,
)
from repro.errors import ParameterError
from repro.params import get_benchmark
from repro.workloads import Phase, WorkloadProgram, get_workload, level_spec
from repro.workloads.mix import HEOpMix

REPO_ROOT = Path(__file__).resolve().parent.parent

PROGRAMS = ("BOOT", "RESNET_BOOT", "HELR")
BENCHMARK_NAMES = ("ARK", "BTS2")


class TestPlanConstruction:
    def test_resolves_names_and_normalizes(self):
        plan = build_plan("ark", backend="RPU", schedule="oc")
        assert plan.backend == "rpu"
        assert plan.schedule == "OC"
        assert plan.workload == get_benchmark("ARK")
        assert plan.name == "ARK"
        assert plan.options == EstimateOptions()

    def test_program_names_resolve(self):
        plan = build_plan("HELR")
        assert isinstance(plan.workload, WorkloadProgram)
        assert plan.workload is get_workload("HELR")

    def test_session_plan_equals_build_plan(self):
        session = FHESession.create("n10_fast")
        assert session.plan("BOOT", bandwidth_gbs=12.8) == build_plan(
            "BOOT", bandwidth_gbs=12.8
        )

    def test_invalid_inputs_fail_at_construction(self):
        with pytest.raises(ParameterError):
            build_plan("NOPE")
        with pytest.raises(ParameterError):
            build_plan("ARK", backend="quantum")
        with pytest.raises(ParameterError):
            build_plan("ARK", schedule="XX")
        with pytest.raises(ParameterError):
            build_plan("ARK", schedule="all")
        with pytest.raises(ParameterError):
            build_plan("ARK", nonsense_option=1)
        with pytest.raises(ParameterError):
            build_plan("ARK", options=EstimateOptions(), bandwidth_gbs=1.0)
        with pytest.raises(ParameterError):
            Plan(workload=12345)

    def test_plans_are_hashable_and_comparable(self):
        a = build_plan("BOOT", schedule="OC")
        b = build_plan("BOOT", schedule="OC")
        c = build_plan("BOOT", schedule="MP")
        assert a == b and hash(a) == hash(b)
        assert len({a, b, c}) == 2

    def test_flat_pricing_plans_as_a_one_phase_program(self):
        from repro.workloads import boot_flat_workload

        plan = build_plan(boot_flat_workload())
        assert isinstance(plan.workload, WorkloadProgram)
        assert len(plan.workload.phases) == 1


class TestPlanSerialization:
    @pytest.mark.parametrize("workload", ("ARK", "BOOT", "HELR"))
    def test_json_roundtrip_identity(self, workload):
        plan = build_plan(workload, backend="rpu", schedule="DC",
                          bandwidth_gbs=12.8, sram_mb=64)
        clone = Plan.from_json(plan.to_json())
        assert clone == plan
        assert clone.digest == plan.digest

    def test_dict_ordering_does_not_change_digest(self):
        plan = build_plan("BOOT", schedule="OC")
        payload = plan.to_dict()
        scrambled = json.loads(
            json.dumps(payload, sort_keys=True)
        )
        # Rebuild with every mapping reversed — digest must not care.
        def reverse(obj):
            if isinstance(obj, dict):
                return {k: reverse(obj[k]) for k in reversed(list(obj))}
            if isinstance(obj, list):
                return [reverse(v) for v in obj]
            return obj

        assert Plan.from_dict(reverse(scrambled)).digest == plan.digest

    def test_unknown_payload_versions_rejected(self):
        payload = build_plan("ARK").to_dict()
        payload["version"] = 99
        with pytest.raises(ParameterError):
            Plan.from_dict(payload)

    def test_digest_ignores_how_a_number_is_spelled(self):
        """``64`` and ``64.0`` are one request, whichever arrives first
        (the digest memo treats the two equal options as one key)."""
        from repro.api.plan import _digest_for

        digests = set()
        for order in ((64, 64.0), (64.0, 64)):
            _digest_for.cache_clear()
            digests.update(build_plan("ARK", bandwidth_gbs=spelling).digest
                           for spelling in order)
        payload = build_plan("ARK", bandwidth_gbs=64.0).to_dict()
        payload["options"]["bandwidth_gbs"] = 64
        _digest_for.cache_clear()
        digests.add(Plan.from_dict(payload).digest)
        assert len(digests) == 1

    @pytest.mark.parametrize("field,value", (
        ("evk_on_chip", "no"), ("sram_mb", "32"), ("log_n", "x"),
    ))
    def test_mistyped_fields_are_rejected(self, field, value):
        payload = build_plan("ARK").to_dict()
        target = (payload["workload"]["benchmark"] if field == "log_n"
                  else payload["options"])
        target[field] = value
        with pytest.raises(ParameterError, match=field):
            Plan.from_dict(payload)

    def test_digest_differs_for_every_priced_input(self):
        base = build_plan("BOOT", schedule="OC")
        assert base.digest != build_plan("BOOT", schedule="MP").digest
        assert base.digest != build_plan("BOOT", backend="analytic").digest
        assert base.digest != build_plan("BOOT", bandwidth_gbs=1.0).digest
        assert base.digest != build_plan("HELR", schedule="OC").digest

    def test_digest_includes_phase_kind(self):
        spec = level_spec(get_benchmark("ARK"), 10)
        mix = HEOpMix(1, 1, 1, 1)
        app = WorkloadProgram("W", (Phase("p", spec, mix, kind="app"),))
        cts = WorkloadProgram("W", (Phase("p", spec, mix, kind="cts"),))
        assert (build_plan(app).digest != build_plan(cts).digest)

    def test_digest_stable_across_processes(self):
        """Fresh interpreter (new hash seed) derives the same digest."""
        plan = build_plan("HELR", backend="rpu", schedule="OC",
                          bandwidth_gbs=12.8)
        script = (
            "from repro.api import build_plan\n"
            "print(build_plan('HELR', backend='rpu', schedule='OC',"
            " bandwidth_gbs=12.8).digest)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == plan.digest


class TestPlanExecution:
    @pytest.mark.parametrize("workload", PROGRAMS + BENCHMARK_NAMES)
    @pytest.mark.parametrize("schedule", ("MP", "DC", "OC"))
    def test_plan_run_equals_estimate_analytic(self, workload, schedule):
        plan = build_plan(workload, backend="analytic", schedule=schedule)
        assert plan.run() == estimate(workload, backend="analytic",
                                      schedule=schedule)

    @pytest.mark.parametrize("workload", PROGRAMS + BENCHMARK_NAMES)
    def test_plan_run_equals_estimate_rpu(self, workload):
        plan = build_plan(workload, backend="rpu", schedule="OC")
        report = plan.run()
        assert report == estimate(workload, backend="rpu", schedule="OC")
        if workload in PROGRAMS:
            assert report.hks_calls == get_workload(workload).hks_calls
            assert len(report.phases) == len(get_workload(workload))

    def test_execute_plan_is_plan_run(self):
        plan = build_plan("ARK", backend="rpu", schedule="OC")
        assert execute_plan(plan) == plan.run()

    def test_legacy_run_adapters_still_work(self):
        """run()/run_composite() are thin adapters over run_plan()."""
        from repro.api import get_backend

        backend = get_backend("rpu")
        plan = build_plan("ARK", schedule="OC")
        assert backend.run(plan.workload, "OC", plan.options) == plan.run()
        program = build_plan("BOOT", schedule="OC")
        assert backend.run_composite(
            program.workload, "OC", program.options
        ) == program.run()

    def test_legacy_run_only_backend_adapts(self):
        """A pre-plan backend (only run()) still serves benchmark plans."""
        from repro.api import get_backend, register_backend
        from repro.api.backends import _REGISTRY, RunReport

        class LegacyBackend:
            name = "legacy-plan-test"

            def run(self, spec, schedule, options):
                return RunReport(
                    benchmark=spec.name, backend=self.name,
                    schedule=schedule, total_bytes=1, data_bytes=1,
                    evk_bytes=0, mod_ops=1, num_tasks=1,
                    peak_on_chip_bytes=0, options=options,
                )

        register_backend(LegacyBackend())
        try:
            report = build_plan("ARK", backend="legacy-plan-test").run()
            assert report.backend == "legacy-plan-test"
            with pytest.raises(ParameterError):
                estimate("BOOT", backend="legacy-plan-test")
        finally:
            del _REGISTRY["legacy-plan-test"]


class TestReportCodec:
    @pytest.mark.parametrize("backend", ("analytic", "rpu"))
    def test_roundtrip_bit_identical(self, backend):
        report = estimate("BOOT", backend=backend, schedule="OC",
                          bandwidth_gbs=12.8)
        clone = report_from_dict(report_to_dict(report))
        assert clone == report
        assert clone.phases == report.phases
        assert clone.options == report.options

    def test_payload_is_plain_json(self):
        payload = report_to_dict(estimate("ARK", backend="rpu",
                                          schedule="OC"))
        assert json.loads(json.dumps(payload)) == payload
