"""Tests for the repro.api backend registry and estimate() request path.

The registry must round-trip every (backend, schedule, benchmark)
combination and its ``RunReport`` numbers must match the legacy
per-module entry points (``analyze_dataflow``, ``RPUSimulator``) exactly.
"""

import pytest

from repro.api import (
    EstimateOptions,
    FHESession,
    RunReport,
    SCHEDULES,
    estimate,
    get_backend,
    list_backends,
    register_backend,
)
from repro.api.backends import _REGISTRY
from repro.errors import ParameterError
from repro.params import BENCHMARKS, MB, get_benchmark


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"analytic", "rpu"} <= set(list_backends())

    def test_get_backend_case_insensitive(self):
        assert get_backend("RPU") is get_backend("rpu")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError):
            get_backend("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ParameterError):
            register_backend(get_backend("rpu"))

    def test_custom_backend_roundtrip(self):
        class ConstantBackend:
            name = "constant-test"

            def run(self, spec, schedule, options):
                return RunReport(
                    benchmark=spec.name, backend=self.name,
                    schedule=schedule, total_bytes=1, data_bytes=1,
                    evk_bytes=0, mod_ops=10, num_tasks=1,
                    peak_on_chip_bytes=0, latency_ms=1.0, options=options,
                )

        register_backend(ConstantBackend())
        try:
            report = estimate("ARK", backend="constant-test", schedule="OC")
            assert report.backend == "constant-test"
            assert report.arithmetic_intensity == 10.0
        finally:
            del _REGISTRY["constant-test"]

    def test_backend_without_run_rejected(self):
        class Broken:
            name = "broken-test"
            run = None

        with pytest.raises(ParameterError):
            register_backend(Broken())


class TestEstimate:
    def test_single_schedule_returns_report(self):
        report = estimate("ARK", backend="rpu", schedule="OC")
        assert isinstance(report, RunReport)
        assert report.schedule == "OC" and report.benchmark == "ARK"
        assert report.latency_ms > 0

    def test_all_schedules_in_one_call(self):
        reports = estimate("ARK", backend="rpu", schedule="all",
                           bandwidth_gbs=12.8)
        assert [r.schedule for r in reports] == list(SCHEDULES)
        assert all(r.latency_ms > 0 for r in reports)

    def test_schedule_list_preserves_order(self):
        reports = estimate("DPRIVE", backend="analytic", schedule=["OC", "MP"])
        assert [r.schedule for r in reports] == ["OC", "MP"]

    def test_spec_workload_accepted(self):
        spec = get_benchmark("BTS1")
        assert estimate(spec, backend="analytic", schedule="OC").benchmark == "BTS1"

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ParameterError):
            estimate("ARK", backend="rpu", schedule="ZZ")

    def test_bad_options_rejected(self):
        with pytest.raises(ParameterError):
            estimate("ARK", backend="rpu", schedule="OC", bandwidth_gbs=-1)
        with pytest.raises(ParameterError, match="warp_factor"):
            estimate("ARK", backend="rpu", schedule="OC", warp_factor=9)

    def test_session_estimate_delegates(self):
        session = FHESession.create("tiny_ci", seed=5)
        reports = session.estimate("ARK", backend="rpu", schedule="all")
        assert len(reports) == 3


class TestLegacyAgreement:
    """RunReport numbers == the legacy per-module entry points."""

    @pytest.mark.parametrize("bench", list(BENCHMARKS))
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_analytic_matches_analyze_dataflow(self, bench, schedule):
        from repro.core import DataflowConfig, analyze_dataflow, get_dataflow

        legacy = analyze_dataflow(
            get_benchmark(bench),
            get_dataflow(schedule),
            DataflowConfig(data_sram_bytes=32 * MB, evk_on_chip=False),
        )
        report = estimate(bench, backend="analytic", schedule=schedule,
                          evk_on_chip=False)
        assert report.total_bytes == legacy.total_bytes
        assert report.data_bytes == legacy.data_bytes
        assert report.evk_bytes == legacy.evk_bytes
        assert report.mod_ops == legacy.mod_ops
        assert report.num_tasks == legacy.num_tasks
        assert report.peak_on_chip_bytes == legacy.peak_on_chip_bytes
        assert report.spill_stores == legacy.spill_stores
        assert report.reloads == legacy.reloads
        assert report.arithmetic_intensity == pytest.approx(
            legacy.arithmetic_intensity
        )

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_rpu_matches_simulator(self, schedule):
        from repro.core import DataflowConfig, get_dataflow
        from repro.rpu import RPUConfig, RPUSimulator

        spec = get_benchmark("ARK")
        graph = get_dataflow(schedule).build(
            spec, DataflowConfig(data_sram_bytes=32 * MB, evk_on_chip=True)
        )
        legacy = RPUSimulator(
            RPUConfig(bandwidth_bytes_per_s=12.8e9)
        ).simulate(graph)
        report = estimate("ARK", backend="rpu", schedule=schedule,
                          bandwidth_gbs=12.8)
        assert report.latency_ms == pytest.approx(legacy.runtime_ms)
        assert report.total_bytes == legacy.total_bytes
        assert report.mod_ops == legacy.total_modops
        assert report.compute_idle_fraction == pytest.approx(
            legacy.compute_idle_fraction
        )

    def test_rpu_config_variants_roundtrip(self):
        """Registry covers the paper's machine sweep axes."""
        for opts in (
            {"evk_on_chip": False},
            {"evk_on_chip": False, "key_compression": True},
            {"sram_mb": 16},
            {"modops_scale": 4.0},
        ):
            report = estimate("DPRIVE", backend="rpu", schedule="OC",
                              bandwidth_gbs=64.0, **opts)
            assert report.latency_ms > 0
            assert report.options == EstimateOptions(bandwidth_gbs=64.0, **opts)

    def test_key_compression_halves_evk_traffic(self):
        plain = estimate("BTS3", backend="analytic", schedule="OC",
                         evk_on_chip=False)
        compressed = estimate("BTS3", backend="analytic", schedule="OC",
                              evk_on_chip=False, key_compression=True)
        assert compressed.evk_bytes * 2 == plain.evk_bytes


class TestRunReport:
    def test_as_row_contains_headline_numbers(self):
        row = estimate("ARK", backend="rpu", schedule="OC").as_row()
        assert {"benchmark", "backend", "schedule", "MB", "AI",
                "latency_ms"} <= set(row)

    def test_analytic_has_no_latency(self):
        report = estimate("ARK", backend="analytic", schedule="OC")
        assert report.latency_ms is None
        assert report.achieved_gbs is None
        assert "latency_ms" not in report.as_row()

    def test_achieved_rates_consistent(self):
        report = estimate("ARK", backend="rpu", schedule="OC")
        secs = report.latency_ms / 1e3
        assert report.achieved_gbs == pytest.approx(
            report.total_bytes / secs / 1e9
        )
        assert report.achieved_gops == pytest.approx(
            report.mod_ops / secs / 1e9
        )


class TestDeprecationShims:
    def test_every_historic_export_still_importable(self):
        import repro

        historic = [
            "BENCHMARKS", "BenchmarkSpec", "CKKSContext", "CKKSParams",
            "Ciphertext", "DATAFLOWS", "DataflowConfig", "Decryptor",
            "Encoder", "Encryptor", "Evaluator", "HKSShape", "KeyGenerator",
            "RPUConfig", "RPUSimulator", "TaskGraph", "analyze_dataflow",
            "get_benchmark", "get_dataflow", "key_switch",
        ]
        for name in historic:
            assert getattr(repro, name) is not None
