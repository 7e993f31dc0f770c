"""Tests for the phase-structured workload IR and level-aware pricing.

The acceptance bar of the refactor: ``estimate("BOOT")`` prices each
bootstrap stage at its true (descending) chain level and comes in
strictly below the flat top-of-chain pricing it replaced; the one-phase
degenerate program reproduces the legacy flat report exactly; and the
deep programs (``RESNET_BOOT``, ``HELR``) are estimable by name on both
backends through the same IR.
"""

import pytest

from repro.api import RunReport, estimate
from repro.errors import ParameterError
from repro.params import get_benchmark
from repro.workloads import (
    HEOpMix,
    Phase,
    WorkloadProgram,
    as_program,
    boot_flat_workload,
    boot_program,
    bootstrap_plan,
    get_workload,
    level_spec,
    list_workloads,
)


class TestLevelSpec:
    def test_top_of_chain_is_identity(self):
        spec = get_benchmark("ARK")
        assert level_spec(spec, spec.kl) is spec

    def test_towers_descend_with_fixed_digit_width(self):
        spec = get_benchmark("ARK")  # kl=24, dnum=4 -> alpha=6
        lower = level_spec(spec, 12)
        assert lower.kl == 12
        assert lower.kp == spec.kp  # P never shrinks
        assert lower.dnum == 2  # ceil(12 / alpha=6)
        assert lower.log_n == spec.log_n

    def test_partial_digit_level(self):
        spec = get_benchmark("ARK")
        lower = level_spec(spec, 21)
        assert lower.dnum == 4  # ceil(21/6): last digit partial
        assert sum(lower.digit_sizes) == 21

    def test_out_of_range_rejected(self):
        spec = get_benchmark("ARK")
        for towers in (0, spec.kl + 1, -3):
            with pytest.raises(ParameterError):
                level_spec(spec, towers)


class TestProgramIR:
    def test_single_phase_aggregates(self):
        spec = get_benchmark("ARK")
        mix = HEOpMix(rotations=10, ct_multiplies=2, pt_multiplies=3,
                      additions=4)
        program = WorkloadProgram.single("APP", spec, mix)
        assert len(program) == 1
        assert program.spec is spec
        assert program.mix == mix
        assert program.hks_calls == 12

    def test_aggregate_mix_sums_phases(self):
        program = boot_program()
        total = program.mix
        by_hand = [p.mix for p in program]
        assert total.rotations == sum(m.rotations for m in by_hand)
        assert total.additions == sum(m.additions for m in by_hand)

    def test_duplicate_labels_rejected(self):
        spec = get_benchmark("ARK")
        mix = HEOpMix(1, 1, 1, 1)
        with pytest.raises(ParameterError):
            WorkloadProgram("X", (Phase("a", spec, mix), Phase("a", spec, mix)))

    def test_empty_program_rejected(self):
        with pytest.raises(ParameterError):
            WorkloadProgram("X", ())

    def test_mix_split_is_exact(self):
        mix = HEOpMix(rotations=10, ct_multiplies=3, pt_multiplies=7,
                      additions=1)
        pieces = mix.split(4)
        assert len(pieces) == 4
        total = pieces[0]
        for piece in pieces[1:]:
            total = total + piece
        assert total == mix

    def test_as_program_passthrough(self):
        program = boot_program()
        assert as_program(program) is program
        flat = boot_flat_workload()
        assert as_program(flat) is flat
        assert len(flat) == 1
        assert flat.hks_calls == bootstrap_plan().op_counts().hks_calls

    def test_as_program_rejects_garbage(self):
        with pytest.raises(ParameterError):
            as_program("BOOT")


class TestBootLowering:
    def test_phases_descend_the_chain(self):
        program = boot_program()
        tower_counts = [p.spec.kl for p in program]
        assert tower_counts == sorted(tower_counts, reverse=True)
        assert tower_counts[0] == program.spec.kl  # enters at the top
        assert tower_counts[-1] < tower_counts[0]

    def test_phase_hks_sum_matches_plan(self):
        """Satellite acceptance: per-phase HKS counts sum to the plan's
        circuit total (493 at the accelerator shape)."""
        plan = bootstrap_plan()
        program = boot_program()
        assert program.hks_calls == plan.op_counts().hks_calls == 493
        per_stage = plan.phase_hks_calls()
        by_label = program.phase_hks_calls()
        assert sum(
            v for k, v in by_label.items() if k.startswith("cts")
        ) == per_stage["coeff_to_slot"]
        assert by_label["evalmod"] == per_stage["eval_mod"]
        assert sum(
            v for k, v in by_label.items() if k.startswith("stc")
        ) == per_stage["slot_to_coeff"]

    def test_slot_to_coeff_runs_at_lower_levels(self):
        program = boot_program()
        cts = [p for p in program if p.label.startswith("cts")]
        stc = [p for p in program if p.label.startswith("stc")]
        assert max(p.spec.kl for p in stc) < min(p.spec.kl for p in cts)


class TestLevelAwarePricing:
    @pytest.mark.parametrize("backend", ["analytic", "rpu"])
    def test_boot_strictly_below_flat(self, backend):
        """Acceptance: level-aware BOOT totals strictly below the flat
        top-of-chain estimate on both backends."""
        level_aware = estimate("BOOT", backend=backend, schedule="OC")
        flat = estimate(boot_flat_workload(), backend=backend,
                        schedule="OC")
        assert level_aware.total_bytes < flat.total_bytes
        assert level_aware.mod_ops < flat.mod_ops
        if backend == "rpu":
            assert level_aware.latency_ms < flat.latency_ms

    @pytest.mark.parametrize("backend", ["analytic", "rpu"])
    def test_boot_reports_per_phase_breakdown(self, backend):
        report = estimate("BOOT", backend=backend, schedule="OC")
        assert [p.benchmark for p in report.phases] == [
            "cts0", "cts1", "cts2", "evalmod", "stc0", "stc1", "stc2"
        ]
        assert sum(p.hks_calls for p in report.phases) == report.hks_calls
        assert sum(p.total_bytes for p in report.phases) == report.total_bytes
        assert report.peak_on_chip_bytes == max(
            p.peak_on_chip_bytes for p in report.phases
        )
        if backend == "rpu":
            assert report.latency_ms == pytest.approx(
                sum(p.latency_ms for p in report.phases)
            )

    def test_one_phase_program_matches_legacy_flat_exactly(self):
        """A one-phase program built from the flat pricing's aggregate
        views (one spec x one mix) reproduces its report exactly."""
        flat = boot_flat_workload()
        single = WorkloadProgram.single(flat.name, flat.spec, flat.mix)
        for backend in ("analytic", "rpu"):
            legacy = estimate(flat, backend=backend, schedule="OC")
            modern = estimate(single, backend=backend, schedule="OC")
            assert modern.total_bytes == legacy.total_bytes
            assert modern.data_bytes == legacy.data_bytes
            assert modern.evk_bytes == legacy.evk_bytes
            assert modern.mod_ops == legacy.mod_ops
            assert modern.num_tasks == legacy.num_tasks
            assert modern.hks_calls == legacy.hks_calls
            assert modern.peak_on_chip_bytes == legacy.peak_on_chip_bytes
            assert modern.spill_stores == legacy.spill_stores
            if backend == "rpu":
                assert modern.latency_ms == legacy.latency_ms
                assert modern.compute_idle_fraction == pytest.approx(
                    legacy.compute_idle_fraction
                )

    def test_one_phase_matches_hand_computed_flat_formula(self):
        """Legacy semantics, re-derived: calls x one-HKS analysis plus the
        point-wise op graphs, all at the top-of-chain spec."""
        from repro.api.backends import _pointwise_graph, get_backend

        flat = boot_flat_workload()
        report = estimate(flat, backend="analytic", schedule="OC")
        base = get_backend("analytic").run(
            flat.spec, "OC", report.options
        )
        expected = flat.hks_calls * base.total_bytes
        for field, kind in (
            ("rotations", "automorphism"), ("ct_multiplies", "tensor"),
            ("pt_multiplies", "plain"), ("additions", "add"),
        ):
            graph = _pointwise_graph(flat.spec, kind)
            expected += getattr(flat.mix, field) * graph.total_bytes()
        assert report.total_bytes == expected

    def test_one_phase_matches_hand_computed_flat_latency(self):
        """Legacy RPU semantics, re-derived independently of the fold:
        calls x one-HKS simulation plus one simulation per point-wise
        kind, scaled by the mix — all at the top-of-chain spec."""
        from repro.api.backends import _pointwise_graph, get_backend
        from repro.params import MB
        from repro.rpu import RPUConfig, RPUSimulator

        flat = boot_flat_workload()
        report = estimate(flat, backend="rpu", schedule="OC")
        base = get_backend("rpu").run(flat.spec, "OC", report.options)
        sim = RPUSimulator(RPUConfig(
            bandwidth_bytes_per_s=64e9,
            data_sram_bytes=32 * MB,
            key_sram_bytes=360 * MB,
        ))
        expected = flat.hks_calls * base.latency_ms
        for field, kind in (
            ("rotations", "automorphism"), ("ct_multiplies", "tensor"),
            ("pt_multiplies", "plain"), ("additions", "add"),
        ):
            result = sim.simulate(_pointwise_graph(flat.spec, kind))
            expected += getattr(flat.mix, field) * result.runtime_ms
        assert report.latency_ms == pytest.approx(expected)


class TestDeepPrograms:
    def test_registered_by_name(self):
        assert {"BOOT", "RESNET_BOOT", "HELR"} <= set(list_workloads())

    @pytest.mark.parametrize("name", ["RESNET_BOOT", "HELR"])
    @pytest.mark.parametrize("backend", ["analytic", "rpu"])
    def test_estimable_on_both_backends(self, name, backend):
        """Acceptance: deep programs estimable by name via the same IR."""
        report = estimate(name, backend=backend, schedule="OC")
        assert report.benchmark == name
        assert report.hks_calls == get_workload(name).hks_calls
        assert len(report.phases) == len(get_workload(name))
        assert sum(p.hks_calls for p in report.phases) == report.hks_calls
        if backend == "rpu":
            assert report.latency_ms > 0
            assert report.latency_ms == pytest.approx(
                sum(p.latency_ms for p in report.phases))

    def test_backends_agree_on_traffic(self):
        for name in ("RESNET_BOOT", "HELR"):
            analytic = estimate(name, backend="analytic", schedule="OC",
                                evk_on_chip=False)
            rpu = estimate(name, backend="rpu", schedule="OC",
                           evk_on_chip=False)
            assert analytic.total_bytes == rpu.total_bytes
            assert analytic.mod_ops == rpu.mod_ops

    def test_resnet_boot_contains_app_and_boot_phases(self):
        program = get_workload("RESNET_BOOT")
        labels = [p.label for p in program]
        assert any(l.startswith("seg0/") for l in labels)
        assert any(l.startswith("boot0/") for l in labels)
        assert any(l.startswith("boot1/") for l in labels)
        # App HKS (paper ResNet-20 mix: 3306 rotations + 500 ct-mults)
        # + two full bootstraps.
        boot_hks = bootstrap_plan().op_counts().hks_calls
        assert program.hks_calls == 3806 + 2 * boot_hks

    def test_helr_iterates_bootstraps(self):
        program = get_workload("HELR")
        boots = {l.split("/")[0] for l in (p.label for p in program)
                 if l.startswith("boot")}
        assert len(boots) == 5  # one bootstrap per training iteration

    def test_deep_programs_price_below_their_flat_equivalents(self):
        """The whole point of the IR: level-aware deep circuits are
        strictly cheaper than pricing every op at top-of-chain."""
        for name in ("RESNET_BOOT", "HELR"):
            program = get_workload(name)
            flat = WorkloadProgram.single(name, program.spec, program.mix)
            level_aware = estimate(program, backend="rpu", schedule="OC")
            flattened = estimate(flat, backend="rpu", schedule="OC")
            assert level_aware.latency_ms < flattened.latency_ms
            assert level_aware.total_bytes < flattened.total_bytes


class TestRunReportHardening:
    def _report(self, **overrides):
        fields = dict(
            benchmark="X", backend="test", schedule="OC", total_bytes=0,
            data_bytes=0, evk_bytes=0, mod_ops=0, num_tasks=0,
            peak_on_chip_bytes=0,
        )
        fields.update(overrides)
        return RunReport(**fields)

    def test_zero_byte_report_does_not_raise(self):
        """Satellite: degenerate (e.g. add-only) phases may move no bytes;
        derived metrics must degrade to None, not raise."""
        report = self._report()
        assert report.arithmetic_intensity is None
        assert report.achieved_gbs is None
        assert report.achieved_gops is None
        row = report.as_row()  # must not raise on the None AI
        assert row["AI"] == "-"

    def test_zero_latency_report_does_not_raise(self):
        report = self._report(total_bytes=10, mod_ops=5, latency_ms=0.0)
        assert report.achieved_gbs is None
        assert report.achieved_gops is None
        assert report.arithmetic_intensity == 0.5

    def test_populated_report_unchanged(self):
        report = self._report(total_bytes=100, mod_ops=200, latency_ms=1.0)
        assert report.arithmetic_intensity == 2.0
        assert report.achieved_gbs == pytest.approx(100 / 1e-3 / 1e9)

    def test_zero_op_phase_estimable_end_to_end(self):
        empty = WorkloadProgram.single(
            "EMPTY", get_benchmark("ARK"), HEOpMix(0, 0, 0, 0)
        )
        for backend in ("analytic", "rpu"):
            report = estimate(empty, backend=backend, schedule="OC")
            assert report.hks_calls == 0
            assert report.total_bytes == 0
            # No key switch ever runs, so no HKS working set is held.
            assert report.peak_on_chip_bytes == 0
            assert report.arithmetic_intensity is None
            report.as_row()  # renders without raising


class TestDerivedStructureCaches:
    def test_converter_cached_per_basis_pair(self):
        from repro.rns.basis import RNSBasis
        from repro.rns.bconv import get_converter

        source = RNSBasis((97, 193))
        target = RNSBasis((257, 12289))
        assert get_converter(source, target) is get_converter(source, target)
        # Equal-but-distinct basis objects share one converter entry.
        assert get_converter(RNSBasis((97, 193)), target) is get_converter(
            source, target
        )

    def test_derived_bases_shared_per_process(self):
        from repro.rns.basis import RNSBasis

        basis = RNSBasis((97, 193, 257, 12289))
        assert basis.prefix(2) is basis.prefix(2)
        assert basis.subbasis([1, 3]) is basis.subbasis([1, 3])

    def test_context_complement_basis_cached_and_correct(self):
        from repro.ckks.context import CKKSContext, CKKSParams

        context = CKKSContext(CKKSParams())
        level = context.params.max_level
        first = context.complement_basis(level, 0)
        assert context.complement_basis(level, 0) is first
        expected = context.extended_basis(level).subbasis(
            context.complement_indices(level, 0)
        )
        assert first.moduli == expected.moduli
