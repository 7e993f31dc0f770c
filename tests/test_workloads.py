"""Tests for workload-level modelling (the paper's ~70% motivation claim)."""

import pytest

from repro.errors import ParameterError
from repro.params import get_benchmark
from repro.workloads import HEOpMix, build_pointwise_graph, hks_time_share


class TestOpGraphs:
    @pytest.mark.parametrize("kind", ["tensor", "plain", "add", "automorphism"])
    def test_graphs_validate(self, kind):
        g = build_pointwise_graph(get_benchmark("ARK"), kind)
        g.validate()
        assert g.total_bytes() > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            build_pointwise_graph(get_benchmark("ARK"), "bootstrap")

    def test_tensor_is_heaviest(self):
        spec = get_benchmark("ARK")
        tensor = build_pointwise_graph(spec, "tensor").total_mod_ops()
        add = build_pointwise_graph(spec, "add").total_mod_ops()
        assert tensor > add


class TestHksShare:
    def test_resnet_mix_matches_paper_claim(self):
        """Paper: ~70% of private inference time is key switching."""
        for bench in ("BTS3", "DPRIVE"):
            row = hks_time_share(get_benchmark(bench), HEOpMix())
            assert 0.55 < row["hks_share"] < 0.9, (bench, row["hks_share"])

    def test_share_drops_without_rotations(self):
        spec = get_benchmark("ARK")
        heavy = hks_time_share(spec, HEOpMix())
        light = hks_time_share(
            spec,
            HEOpMix(rotations=10, ct_multiplies=10, pt_multiplies=2500,
                    additions=6000),
        )
        assert light["hks_share"] < heavy["hks_share"]

    def test_oc_dataflow_reduces_hks_share(self):
        spec = get_benchmark("ARK")
        mp = hks_time_share(spec, HEOpMix(), dataflow="MP", bandwidth_gbs=12.8)
        oc = hks_time_share(spec, HEOpMix(), dataflow="OC", bandwidth_gbs=12.8)
        assert oc["hks_s"] < mp["hks_s"]
        assert oc["hks_share"] < mp["hks_share"]

    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError):
            HEOpMix(rotations=-1)


class TestKeyCompression:
    def test_compression_halves_key_traffic(self):
        from repro.core import DataflowConfig, analyze_dataflow, get_dataflow
        from repro.params import MB

        spec = get_benchmark("ARK")
        plain = analyze_dataflow(
            spec, get_dataflow("OC"),
            DataflowConfig(32 * MB, evk_on_chip=False),
        )
        compressed = analyze_dataflow(
            spec, get_dataflow("OC"),
            DataflowConfig(32 * MB, evk_on_chip=False, key_compression=True),
        )
        assert compressed.evk_bytes * 2 == plain.evk_bytes
        assert compressed.arithmetic_intensity > plain.arithmetic_intensity

    def test_compression_noop_with_onchip_keys(self):
        from repro.core import DataflowConfig, analyze_dataflow, get_dataflow
        from repro.params import MB

        spec = get_benchmark("ARK")
        a = analyze_dataflow(
            spec, get_dataflow("OC"), DataflowConfig(32 * MB, evk_on_chip=True)
        )
        b = analyze_dataflow(
            spec, get_dataflow("OC"),
            DataflowConfig(32 * MB, evk_on_chip=True, key_compression=True),
        )
        assert a.total_bytes == b.total_bytes
        assert a.mod_ops == b.mod_ops


class TestExtrasExperiments:
    def test_key_compression_experiment(self):
        from repro.experiments.extras import run_key_compression

        rows = run_key_compression().rows
        assert len(rows) == 5
        for row in rows:
            assert row["AI_compressed"] > row["AI_plain"]

    def test_motivation_experiment(self):
        from repro.experiments.extras import run_motivation

        rows = run_motivation().rows
        assert all(55 < r["hks_share_%"] < 90 for r in rows)

    def test_hoisting_experiment(self):
        from repro.experiments.extras import run_hoisting

        rows = run_hoisting().rows
        assert all(0 < r["savings_%"] < 75 for r in rows)

    def test_budget_ablation_converges(self):
        from repro.experiments.extras import run_budget_ablation

        rows = run_budget_ablation().rows
        assert rows[-1]["MP/OC"] == 1.0
        assert rows[0]["MP/OC"] > 1.5
        # OC dominates at every budget, and at 32 MB is already near its
        # huge-memory floor (the paper's Section IV argument, quantified).
        assert all(row["OC_MB"] <= row["MP_MB"] for row in rows)
        by_budget = {row["SRAM_MB"]: row["OC_MB"] for row in rows}
        assert by_budget[32] / by_budget[256] < 1.6


class TestCompositeWorkloads:
    def test_boot_registered(self):
        from repro.workloads import get_workload, list_workloads

        assert "BOOT" in list_workloads()
        boot = get_workload("boot")  # case-insensitive
        assert boot.name == "BOOT"
        assert boot.spec.log_n == 16

    def test_unknown_workload_rejected(self):
        from repro.workloads import get_workload

        with pytest.raises(ParameterError):
            get_workload("RESNET")

    def test_boot_counts_derive_from_plan(self):
        from repro.workloads import bootstrap_plan, bootstrap_workload

        plan, boot = bootstrap_plan(), bootstrap_workload()
        ops = plan.op_counts()
        assert boot.hks_calls == ops.hks_calls
        assert boot.mix.rotations == ops.rotations + ops.conjugations
        assert boot.mix.ct_multiplies == ops.ct_multiplies

    def test_boot_is_cached(self):
        from repro.workloads import bootstrap_workload

        assert bootstrap_workload() is bootstrap_workload()

    def test_boot_hks_share_dominates(self):
        """Bootstrapping is the archetypal HKS-bound workload."""
        from repro.workloads import bootstrap_workload, hks_time_share

        boot = bootstrap_workload()
        row = hks_time_share(boot.spec, boot.mix)
        assert row["hks_share"] > 0.6
        assert row["hks_calls"] == boot.hks_calls
