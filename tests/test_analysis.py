"""Tests for repro.analysis: the static verifier for plans, IR and programs.

Four angles of attack:

* **read-only contract** — ``analyze()`` never mutates its subject
  (digests, canonical JSON and program listings are bit-identical across
  a run), property-checked with hypothesis on adversarial programs;
* **clean-corpus regression** — every registered workload x backend x
  schedule, every dataflow graph and every generated kernel verifies
  clean, so the analyzer cannot rot into rejecting the repo's own
  output;
* **mutation kill-tests** — each pass family is fed a minimally
  corrupted subject and must report the planted defect (and only then);
* **VM parity** — a program the VM kills dynamically at ``pc=k`` is
  reported statically at the same instruction, parametrized over the
  SimulationError classes both sides model.
"""

import dataclasses
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AnalysisContext,
    AnalysisError,
    analysis_pass,
    analyze,
    registered_passes,
    required_evks,
    verify,
)
from repro.api import FHESession, build_plan, list_backends
from repro.core import DATAFLOWS, DataflowConfig
from repro.core.taskgraph import Kind, Queue, TaskGraph
from repro.errors import ParameterError, SimulationError
from repro.ntt.modmath import inv_mod
from repro.ntt.primes import generate_primes
from repro.params import BENCHMARKS, get_benchmark
from repro.rpu import codegen
from repro.rpu.program import assemble
from repro.rpu.vm import B1KVM
from repro.serve import AdmissionError, EstimateService
from repro.workloads import get_workload, list_workloads
from repro.workloads.ir import Phase, WorkloadProgram, level_spec
from repro.workloads.mix import HEOpMix

SCHEDULES = ("MP", "DC", "OC")


def _with_phases(program, phases):
    return WorkloadProgram(program.name + "*", tuple(phases),
                           program.description)


def _level_bumped(program):
    """Raise one non-ModRaise phase above its predecessor's tower count."""
    phases = list(program.phases)
    i = next(k for k in range(1, len(phases)) if phases[k].kind != "cts")
    prev_kl = phases[i - 1].spec.kl
    spec = dataclasses.replace(phases[i].spec, kl=prev_kl + 1)
    phases[i] = Phase(phases[i].label, spec, phases[i].mix, phases[i].kind)
    return _with_phases(program, phases)


def _corrupted_plan():
    plan = build_plan("HELR")
    return dataclasses.replace(plan, workload=_level_bumped(plan.workload))


# -- registry / dispatch ----------------------------------------------------------


class TestRegistry:
    def test_all_families_populated(self):
        for family in ("plan", "workload", "rpu", "graph"):
            assert registered_passes(family), family

    def test_pass_ids_unique(self):
        ids = [p.pass_id for p in registered_passes()]
        assert len(ids) == len(set(ids))

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError):
            registered_passes("kernel")
        with pytest.raises(ParameterError):
            analysis_pass("x.y", "kernel", "bogus family")

    def test_duplicate_pass_id_rejected(self):
        with pytest.raises(ParameterError):
            analysis_pass("ir.level-monotonic", "workload", "dup")(
                lambda obj, ctx: ()
            )

    def test_unsupported_object_rejected(self):
        with pytest.raises(ParameterError):
            analyze(42)

    def test_bare_benchmark_spec_is_trivially_clean(self):
        report = analyze(get_benchmark("ARK"))
        assert report.ok and not report.diagnostics

    def test_pass_filter_by_prefix(self):
        report = analyze(build_plan("HELR"), passes=["ir."])
        assert report.diagnostics == tuple(
            d for d in report.diagnostics if d.pass_id.startswith("ir.")
        )


# -- read-only contract -----------------------------------------------------------


class TestReadOnly:
    @pytest.mark.parametrize("name", list_workloads())
    def test_plan_identity_survives_analysis(self, name):
        plan = build_plan(name)
        digest, payload = plan.digest, plan.to_json()
        analyze(plan)
        plan.verify()
        assert plan.digest == digest
        assert plan.to_json() == payload

    def test_program_listing_survives_analysis(self):
        q = generate_primes(1, 64, 26)[0]
        program = codegen.build_ntt_kernel(64, q).program
        listing = program.render()
        analyze(program)
        assert program.render() == listing

    @settings(max_examples=25, deadline=None)
    @given(vl=st.integers(min_value=-4, max_value=2000),
           idx=st.integers(min_value=-4, max_value=2000))
    def test_analyze_reports_instead_of_raising(self, vl, idx):
        """Arbitrary (often illegal) programs produce reports, not crashes."""
        program = assemble(
            f"setvl {vl}\n setmod m0\n li s1, {idx}\n vbcast v2, s1\n"
            f" li s1, 0\n vbcast v1, s1\n vshuf v3, v1, v2\n halt"
        )
        listing = program.render()
        report = analyze(program, context=AnalysisContext(vl_max=64))
        assert program.render() == listing
        assert report.ok == (not report.errors)


# -- the repo's own corpus verifies clean -----------------------------------------


class TestCleanCorpus:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("backend", list_backends())
    @pytest.mark.parametrize("name", list_workloads())
    def test_registered_workload_plans_clean(self, name, backend, schedule):
        report = analyze(build_plan(name, backend=backend,
                                    schedule=schedule))
        assert report.ok, report.render()

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_benchmark_plans_clean(self, name):
        assert analyze(build_plan(name)).ok

    @pytest.mark.parametrize("dataflow", sorted(DATAFLOWS))
    def test_schedule_graphs_clean(self, dataflow):
        spec = get_benchmark("ARK")
        graph = DATAFLOWS[dataflow].build(spec, DataflowConfig())
        report = analyze(graph)
        assert report.ok, report.render()

    def test_generated_kernels_clean(self):
        qs = generate_primes(3, 64, 26)
        images = [
            codegen.build_ntt_kernel(64, qs[0]),
            codegen.build_ntt_kernel(64, qs[0], inverse=True),
            codegen.build_bconv_kernel(list(qs[:2]), qs[2], 64),
            codegen.build_mulkey_kernel(64, qs[0], accumulate=False),
            codegen.build_mulkey_kernel(64, qs[0], accumulate=True),
            codegen.build_moddown_finish_kernel(
                64, qs[0], inv_mod(qs[1] % qs[0], qs[0])),
        ]
        for image in images:
            verify(image.program)  # raises on any error

    def test_cli_verify_exits_clean(self, capsys):
        from repro.__main__ import main

        assert main(["verify", "HELR"]) == 0
        out = capsys.readouterr().out
        assert "subjects clean" in out and "OK" in out


# -- plan / workload-IR mutation kill-tests ---------------------------------------


class TestWorkloadMutations:
    def test_level_bump_caught(self):
        report = analyze(_level_bumped(get_workload("HELR")))
        assert not report.ok
        assert report.by_pass("ir.level-monotonic")

    def test_ring_change_caught(self):
        program = get_workload("BOOT")
        phases = list(program.phases)
        spec = dataclasses.replace(phases[1].spec,
                                   log_n=phases[1].spec.log_n - 1)
        phases[1] = Phase(phases[1].label, spec, phases[1].mix,
                          phases[1].kind)
        report = analyze(_with_phases(program, phases))
        assert any(d.pass_id == "ir.tower-budget" for d in report.errors)

    def test_missing_evalmod_stage_caught(self):
        program = get_workload("BOOT")
        phases = [p for p in program.phases if p.kind != "evalmod"]
        report = analyze(_with_phases(program, phases))
        assert any(d.pass_id == "ir.bootstrap-structure"
                   for d in report.errors)

    def test_edited_hks_count_caught(self):
        program = get_workload("BOOT")
        phases = list(program.phases)
        i = next(k for k, p in enumerate(phases) if p.kind == "cts")
        mix = phases[i].mix
        doctored = HEOpMix(mix.rotations + 1, mix.ct_multiplies,
                           mix.pt_multiplies, mix.additions)
        phases[i] = Phase(phases[i].label, phases[i].spec, doctored,
                          phases[i].kind)
        report = analyze(_with_phases(program, phases))
        assert any(d.pass_id == "ir.hks-consistency" for d in report.errors)

    def test_plan_verify_raises_with_report(self):
        with pytest.raises(AnalysisError) as exc_info:
            _corrupted_plan().verify()
        report = exc_info.value.report
        assert report is not None and report.errors

    def test_key_compression_on_chip_warns(self):
        plan = build_plan("ARK", evk_on_chip=True, key_compression=True)
        report = analyze(plan)
        assert report.ok  # a warning, not an error
        assert report.by_pass("plan.options")


class TestRequiredEvks:
    def test_kinds_and_widest_levels(self):
        spec = get_workload("HELR").spec
        program = WorkloadProgram("evk-probe", (
            Phase("rots", spec, HEOpMix(2, 0, 0, 0)),
            Phase("muls", level_spec(spec, spec.kl - 2), HEOpMix(0, 1, 0, 0)),
        ))
        assert required_evks(program) == {
            "galois": spec.kl, "relin": spec.kl - 2,
        }

    def test_rotation_free_program_needs_no_galois(self):
        spec = get_workload("HELR").spec
        program = WorkloadProgram("mul-only", (
            Phase("muls", spec, HEOpMix(0, 3, 0, 0)),
        ))
        assert required_evks(program) == {"relin": spec.kl}

    def test_bare_spec_implies_nothing(self):
        assert required_evks(get_benchmark("ARK")) == {}

    def test_session_missing_evks_drain(self):
        session = FHESession.create("tiny_ci")
        missing = session.missing_evks("HELR")
        assert set(missing) == {"relin", "galois"}
        session.relin_key
        session.rotation_key(1)
        assert session.missing_evks("HELR") == {}


# -- RPU program passes -----------------------------------------------------------


class TestRpuPasses:
    CTX = AnalysisContext(vl_max=64, memory_words=4096)

    def test_uninitialized_scalar_is_warning_only(self):
        report = analyze(assemble("setvl 8\n sadd s1, s0, 1\n halt"),
                         context=self.CTX)
        assert report.ok
        assert any(d.pass_id == "rpu.def-before-use"
                   for d in report.warnings)

    def test_setvl_zero_rejected(self):
        report = analyze(assemble("setvl 0\n halt"), context=self.CTX)
        assert report.by_pass("rpu.vl") and not report.ok

    def test_odd_vl_butterfly_rejected(self):
        src = ("setvl 63\n setmod m0\n li s1, 1\n vbcast v1, s1\n"
               " vbcast v2, s1\n vbfly v3, v1, v2, 0\n halt")
        report = analyze(assemble(src), context=self.CTX)
        assert any(d.pass_id == "rpu.vl" for d in report.errors)

    def test_vswap_width_mismatch_rejected(self):
        src = ("setvl 8\n li s1, 1\n vbcast v1, s1\n li s2, 3\n"
               " vswap v2, v1, s2\n halt")
        report = analyze(assemble(src), context=self.CTX)
        assert any(d.pass_id == "rpu.vl" for d in report.errors)

    def test_constant_address_overflow_rejected(self):
        ctx = AnalysisContext(vl_max=64, memory_words=64)
        src = "setvl 64\n li s0, 32\n vld v1, s0\n halt"
        report = analyze(assemble(src), context=ctx)
        assert any(d.pass_id == "rpu.capacity" for d in report.errors)

    def test_footprint_info_always_present(self):
        report = analyze(assemble("halt"), context=self.CTX)
        assert any(d.pass_id == "rpu.capacity" for d in report.infos)

    def test_dead_vector_write_warns(self):
        src = ("setvl 4\n setmod m0\n li s0, 0\n li s1, 1\n"
               " vbcast v1, s1\n vbcast v1, s1\n vst v1, s0\n halt")
        report = analyze(assemble(src), context=self.CTX)
        assert any("dead write" in d.message
                   for d in report.by_pass("rpu.hazards"))

    def test_cross_pipe_aliasing_warns_and_fence_clears_it(self):
        racy = ("setvl 4\n setmod m0\n li s0, 0\n li s1, 1\n"
                " vbcast v1, s1\n vst v1, s0\n sld s2, s0\n halt")
        report = analyze(assemble(racy), context=self.CTX)
        assert any("aliasing" in d.message
                   for d in report.by_pass("rpu.hazards"))
        fenced = racy.replace(" sld", " fence\n sld")
        report = analyze(assemble(fenced), context=self.CTX)
        assert not any("aliasing" in d.message
                       for d in report.by_pass("rpu.hazards"))


# -- VM <-> static parity ---------------------------------------------------------

PARITY_CASES = [
    pytest.param(
        "setvl 64\n setmod m0\n li s1, 1\n vbcast v1, s1\n"
        " vmadd v2, v1, v3\n halt",
        4, "rpu.def-before-use", id="undefined-vector-read"),
    pytest.param(
        "setvl 64\n li s1, 1\n vbcast v1, s1\n vmadd v2, v1, v1\n halt",
        3, "rpu.modulus", id="no-active-modulus"),
    pytest.param(
        "setvl 100\n halt",
        0, "rpu.vl", id="setvl-out-of-range"),
    pytest.param(
        "setvl 64\n setmod m0\n li s1, 99\n vbcast v2, s1\n li s1, 0\n"
        " vbcast v1, s1\n vshuf v3, v1, v2\n halt",
        6, "rpu.shuffle-bounds", id="vshuf-index-out-of-bounds"),
]


class TestVmStaticParity:
    """The VM's dynamic kill site and the static diagnostic agree."""

    CTX = AnalysisContext(vl_max=64, memory_words=4096)

    @pytest.mark.parametrize("source, pc, pass_id", PARITY_CASES)
    def test_same_fault_same_location(self, source, pc, pass_id):
        program = assemble(source)

        vm = B1KVM(vector_length=64, memory_words=4096)
        vm.set_modulus_register(0, generate_primes(1, 64, 26)[0])
        with pytest.raises(SimulationError) as exc_info:
            vm.run(program)
        assert exc_info.value.pc == pc

        report = analyze(program, context=self.CTX)
        matches = [d for d in report.errors if d.pass_id == pass_id]
        assert matches, report.render()
        assert any(d.location.startswith(f"pc={pc} ") for d in matches)

    @pytest.mark.parametrize("source, pc, pass_id", PARITY_CASES)
    def test_verify_raises_like_the_vm(self, source, pc, pass_id):
        with pytest.raises(AnalysisError):
            verify(assemble(source), context=self.CTX)


# -- task-graph passes ------------------------------------------------------------


def _clean_graph():
    graph = TaskGraph("probe")
    load = graph.add(Kind.LOAD, bytes_moved=64, label="load t0")
    mul = graph.add(Kind.PWISE, mod_muls=4, deps=[load], label="mul t0->t1")
    graph.add(Kind.STORE, bytes_moved=64, deps=[mul], label="store t1")
    return graph


def _append_unchecked(graph, kind, bytes_moved=0, mod_muls=0, deps=()):
    """Hand-append one row to every column, past TaskGraph.add()'s checks."""
    graph.kinds.append(kind)
    graph.is_memory.append(kind.queue is Queue.MEMORY)
    graph.bytes_moved.append(bytes_moved)
    graph.mod_muls.append(mod_muls)
    graph.mod_adds.append(0)
    graph.deps.append(deps)
    graph.labels.append("")
    graph.traffic_tags.append("data")
    order = graph.memory_order if graph.is_memory[-1] else graph.compute_order
    order.append(len(graph) - 1)


class TestGraphPasses:
    def test_clean_graph_verifies(self):
        assert analyze(_clean_graph()).ok

    def test_index_mismatch_caught(self):
        graph = _clean_graph()
        graph.labels.append("load t7")  # a row in one column only
        report = analyze(graph)
        assert any("list position" in d.message
                   for d in report.by_pass("graph.structure"))

    def test_forward_dependency_caught(self):
        graph = _clean_graph()
        _append_unchecked(graph, Kind.LOAD, bytes_moved=8, deps=(9,))
        report = analyze(graph)
        assert any("does not name a task" in d.message
                   for d in report.by_pass("graph.structure"))
        graph.deps[3] = (3,)
        report = analyze(graph)
        assert any("deadlock" in d.message
                   for d in report.by_pass("graph.structure"))

    def test_workless_tasks_caught(self):
        graph = _clean_graph()
        _append_unchecked(graph, Kind.LOAD, bytes_moved=0)
        _append_unchecked(graph, Kind.PWISE, mod_muls=0)
        report = analyze(graph)
        messages = [d.message for d in report.by_pass("graph.structure")]
        assert any("moves no bytes" in m for m in messages)
        assert any("no modular work" in m for m in messages)

    def test_unordered_buffer_writers_race(self):
        graph = TaskGraph("race")
        graph.add(Kind.LOAD, bytes_moved=64, label="load t0")
        graph.add(Kind.PWISE, mod_muls=4, label="mul d0->t0")
        report = analyze(graph)
        assert any(d.pass_id == "graph.buffer-race" for d in report.errors)

    def test_dependency_orders_the_writers(self):
        graph = TaskGraph("ordered")
        load = graph.add(Kind.LOAD, bytes_moved=64, label="load t0")
        graph.add(Kind.PWISE, mod_muls=4, deps=[load], label="mul d0->t0")
        assert analyze(graph).ok

    def test_oversized_transfer_caught(self):
        ctx = AnalysisContext(data_sram_bytes=100)
        graph = TaskGraph("big")
        graph.add(Kind.LOAD, bytes_moved=200, label="load t0")
        report = analyze(graph, context=ctx)
        assert any(d.pass_id == "graph.resources" for d in report.errors)

    def test_operand_set_over_sram_caught(self):
        ctx = AnalysisContext(data_sram_bytes=100)
        graph = TaskGraph("fat-operands")
        a = graph.add(Kind.LOAD, bytes_moved=60, label="load t0")
        b = graph.add(Kind.LOAD, bytes_moved=60, label="load t1")
        graph.add(Kind.PWISE, mod_muls=1, deps=[a, b], label="mul ->t2")
        report = analyze(graph, context=ctx)
        assert any("resident together" in d.message
                   for d in report.by_pass("graph.resources"))


# -- serving admission ------------------------------------------------------------


class TestAdmission:
    def test_strict_rejects_corrupted_plan_at_submit(self):
        service = EstimateService(disk_cache=False)
        with pytest.raises(AdmissionError) as exc_info:
            service.submit(_corrupted_plan())
        report = exc_info.value.report
        assert report is not None
        assert any(d.pass_id == "ir.level-monotonic" for d in report.errors)

    def test_warn_mode_admits_with_warning(self):
        service = EstimateService(disk_cache=False, admission="warn")
        with pytest.warns(UserWarning, match="rejected by static analysis"):
            service.submit(_corrupted_plan())

    def test_off_mode_is_silent(self):
        service = EstimateService(disk_cache=False, admission="off")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            service.submit(_corrupted_plan())
        assert not caught

    def test_clean_plan_admitted_and_runs(self):
        service = EstimateService(disk_cache=False)
        plan = build_plan("ARK")
        handle = service.submit(plan)
        second = service.submit(plan)  # memoized admission: set lookup only
        service.gather()
        assert handle.result().total_bytes == second.result().total_bytes

    def test_unknown_admission_mode_rejected(self):
        with pytest.raises(ParameterError):
            EstimateService(admission="maybe")

    def test_concurrent_admissions_analyze_one_at_a_time(self, monkeypatch):
        """A server admits on several executor threads at once: their
        analyses queue instead of building cold model tables side by
        side, and a digest admitted while its caller waited is not
        analyzed again."""
        import threading
        import time

        import repro.analysis

        real_analyze = repro.analysis.analyze
        running, overlap, analyzed = [0], [0], []
        count = threading.Lock()

        def slow_analyze(plan):
            with count:
                running[0] += 1
                overlap[0] = max(overlap[0], running[0])
                analyzed.append(plan.digest)
            time.sleep(0.02)  # hold the race open
            try:
                return real_analyze(plan)
            finally:
                with count:
                    running[0] -= 1

        monkeypatch.setattr(repro.analysis, "analyze", slow_analyze)
        service = EstimateService(disk_cache=False)
        plans = [build_plan("ARK", bandwidth_gbs=bw)
                 for bw in (16.0, 32.0, 64.0)] * 2
        start = threading.Barrier(len(plans))

        def admit(plan):
            start.wait()
            service.admit(plan)

        threads = [threading.Thread(target=admit, args=(plan,))
                   for plan in plans]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert overlap[0] == 1
        assert sorted(analyzed) == sorted({p.digest for p in plans})


# -- codegen verification flag ----------------------------------------------------


class TestCodegenVerifyFlag:
    def test_kernels_build_under_the_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_CODEGEN", "1")
        q = generate_primes(1, 64, 26)[0]
        image = codegen.build_ntt_kernel(64, q)
        assert image.program.instructions[-1].mnemonic == "halt"
