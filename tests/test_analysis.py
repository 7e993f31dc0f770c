"""Tests for repro.analysis: the static verifier for plans, IR and graphs.

Three angles of attack:

* **read-only contract** — ``analyze()`` never mutates its subject
  (digests and canonical JSON are bit-identical across a run), and
  arbitrary, often illegal, task graphs produce reports, not crashes;
* **clean-corpus regression** — every registered workload x backend x
  schedule and every dataflow graph verifies clean, so the analyzer
  cannot rot into rejecting the repo's own output;
* **mutation kill-tests** — each pass family is fed a minimally
  corrupted subject and must report the planted defect (and only then).
"""

import dataclasses
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sched
from repro.analysis import (
    AnalysisContext,
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    Severity,
    analysis_pass,
    analyze,
    registered_passes,
    required_evks,
    verify,
)
from repro.analysis.graph_passes import written_buffer
from repro.api import FHESession, build_plan, list_backends
from repro.core import DATAFLOWS, DataflowConfig
from repro.core.dataflow import HKSDecision
from repro.core.taskgraph import DATA_TAG, EVK_TAG, Kind, Queue, TaskGraph
from repro.errors import ParameterError
from repro.params import BENCHMARKS, get_benchmark
from repro.sched import Objective, pin_capacity, schedule_digest
from repro.serve import AdmissionError, EstimateService
from repro.workloads import get_workload, list_workloads
from repro.workloads.ir import Phase, WorkloadProgram, level_spec
from repro.workloads.mix import HEOpMix

SCHEDULES = ("MP", "DC", "OC")
BENCHMARK_NAMES = tuple(sorted(BENCHMARKS))

#: Streamed, seed-compressed keys: the config whose key traffic the
#: ``sched`` passes bound from both sides.
STREAMED = DataflowConfig(evk_on_chip=False, key_compression=True)


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


def _artifact(name, config=DataflowConfig()):
    """The solver's artifact for one benchmark.  Its graph is the schedule
    store's shared object: tests corrupt copies (:func:`_with_tasks`)."""
    spec = get_benchmark(name)
    objective = Objective()
    return sched.artifact(spec, config, objective,
                          sched.solve(spec, config, objective))


def _with_tasks(art, edit):
    """``art`` with ``edit`` applied to a copy of its task rows.

    The record's digest follows the edited graph, as if the solver had
    emitted and recorded the corrupted schedule itself, so the planted
    defect is the only thing wrong with the artifact.
    """
    payload = art.graph.to_json()
    edit(payload["tasks"])
    graph = TaskGraph.from_json(payload)
    solved = dataclasses.replace(art.solved, digest=schedule_digest(graph))
    return dataclasses.replace(art, graph=graph, solved=solved)


def _error_ids(subject):
    return {d.pass_id for d in analyze(subject).errors}


# -- registry / dispatch ----------------------------------------------------------


class TestRegistry:
    def test_all_families_populated(self):
        for family in ("plan", "workload", "graph"):
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

    def test_unsupported_object_names_what_is_accepted(self):
        with pytest.raises(ParameterError) as exc_info:
            analyze(42)
        message = str(exc_info.value)
        for accepted in ("Plan", "WorkloadProgram", "TaskGraph",
                         "ScheduleArtifact"):
            assert accepted in message
        assert message.endswith("got int")

    def test_artifact_dispatches_to_the_sched_family(self):
        assert {p.pass_id for p in registered_passes("sched")} == {
            "sched.ops-invariant", "sched.evk-traffic",
            "sched.compulsory-data", "sched.sram-budget",
            "sched.decision-legal",
        }
        report = analyze(_with_tasks(_artifact("ARK", STREAMED),
                                     _restream_one_key_byte))
        assert report.subject == "solved schedule ARK"
        assert report.diagnostics
        assert all(d.pass_id.startswith("sched.") for d in report.diagnostics)

    def test_bare_benchmark_spec_is_trivially_clean(self):
        report = analyze(get_benchmark("ARK"))
        assert report.ok and not report.diagnostics

    def test_pass_filter_by_prefix(self):
        report = analyze(build_plan("HELR"), passes=["ir."])
        assert report.diagnostics == tuple(
            d for d in report.diagnostics if d.pass_id.startswith("ir.")
        )


# -- reports ----------------------------------------------------------------------

ERR = Diagnostic(Severity.ERROR, "graph.structure", "task[3]",
                 "memory task moves no bytes", hint="rebuild it")
WARN = Diagnostic(Severity.WARNING, "plan.options", "options",
                  "compressed keys kept on chip")
NOTE = Diagnostic(Severity.INFO, "graph.resources", "task[1]",
                  "peak per-task operand footprint 64 bytes")


def _report(*diags):
    return AnalysisReport("probe", diags)


class TestReport:
    def test_severity_renders_lowercase(self):
        assert [str(s) for s in Severity] == ["error", "warning", "info"]

    def test_views_split_by_severity(self):
        report = _report(NOTE, ERR, WARN)
        assert report.errors == [ERR]
        assert report.warnings == [WARN]
        assert report.infos == [NOTE]
        assert not report.ok
        assert _report(WARN, NOTE).ok

    def test_diagnostics_frozen_into_a_tuple(self):
        report = AnalysisReport("probe", [ERR, NOTE])
        assert report.diagnostics == (ERR, NOTE)
        assert repr(report) == (
            "AnalysisReport('probe', errors=1, warnings=0, infos=1)")

    def test_by_pass_takes_an_id_or_a_family_prefix(self):
        report = _report(ERR, WARN, NOTE)
        assert report.by_pass("graph.structure") == [ERR]
        assert report.by_pass("graph.") == [ERR, NOTE]
        assert report.by_pass("graph") == []

    def test_render_lists_errors_first_with_hints(self):
        lines = _report(NOTE, WARN, ERR).render().splitlines()
        assert lines == [
            "probe: 1 error(s), 1 warning(s), 1 info(s)",
            "  error: [graph.structure] task[3]: memory task moves no "
            "bytes (hint: rebuild it)",
            "  warning: [plan.options] options: compressed keys kept on "
            "chip",
            "  info: [graph.resources] task[1]: peak per-task operand "
            "footprint 64 bytes",
        ]

    def test_merged_keeps_the_first_subject_and_the_order(self):
        merged = _report(ERR).merged(AnalysisReport("other", (NOTE,)))
        assert merged.subject == "probe"
        assert merged.diagnostics == (ERR, NOTE)

    def test_raise_if_errors_carries_the_report(self):
        report = _report(WARN, ERR)
        with pytest.raises(AnalysisError,
                           match=r"probe failed verification with 1 "
                                 r"error\(s\); first: error:") as exc_info:
            report.raise_if_errors()
        assert exc_info.value.report is report
        clean = _report(WARN, NOTE)
        assert clean.raise_if_errors() is clean

    def test_verify_returns_a_warning_only_report(self):
        plan = build_plan("ARK", evk_on_chip=True, key_compression=True)
        report = verify(plan)
        assert report.ok and report.warnings
        assert report.by_pass("plan.options")


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

    @pytest.mark.parametrize("dataflow", sorted(DATAFLOWS))
    def test_graph_survives_analysis(self, dataflow):
        graph = DATAFLOWS[dataflow].build(get_benchmark("ARK"),
                                          DataflowConfig())
        payload = graph.to_json()
        totals = (graph.total_bytes(), graph.total_mod_muls(),
                  graph.total_mod_adds())
        analyze(graph)
        assert graph.to_json() == payload
        assert (graph.total_bytes(), graph.total_mod_muls(),
                graph.total_mod_adds()) == totals

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_artifact_survives_analysis(self, name):
        art = _artifact(name, STREAMED)
        payload, solved, stats = art.graph.to_json(), art.solved, art.stats
        analyze(art)
        assert art.graph.to_json() == payload
        assert art.solved == solved and art.stats == stats

    @settings(max_examples=25, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.sampled_from(list(Kind)),
        st.integers(min_value=-4, max_value=300),
        st.integers(min_value=-2, max_value=8),
        st.lists(st.integers(min_value=-3, max_value=12), max_size=3),
        st.sampled_from(["", "load t0", "store t0", "mul d0->t0",
                         "ntt t0->t1", "mul d0->"]),
    ), max_size=10))
    def test_analyze_reports_instead_of_raising(self, rows):
        """Arbitrary (often illegal) graphs produce reports, not crashes."""
        graph = TaskGraph("fuzz")
        for kind, nbytes, muls, deps, label in rows:
            _append_unchecked(graph, kind, bytes_moved=nbytes,
                              mod_muls=muls, deps=tuple(deps))
            graph.labels[-1] = label
        payload = graph.to_json()
        report = analyze(graph, context=AnalysisContext(data_sram_bytes=256))
        assert graph.to_json() == payload
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

    @pytest.mark.parametrize("argv", [["verify", "HELR"],
                                      ["verify", "--graphs"]])
    def test_cli_verify_exits_clean(self, argv, capsys):
        from repro.__main__ import main

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "subjects clean" in out and "OK" in out

    def test_cli_verify_graphs_covers_a_programs_phase_specs(self, capsys):
        from repro.__main__ import main

        assert main(["verify", "HELR", "--graphs"]) == 0
        out = capsys.readouterr().out
        specs = {phase.spec.name for phase in get_workload("HELR").phases}
        for name in specs:
            for dataflow in sorted(DATAFLOWS):
                assert f"graph {name}/{dataflow}" in out
        rows = [line for line in out.splitlines()
                if line.strip().startswith("graph ")]
        assert len(rows) == len(specs) * len(DATAFLOWS)


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

    @pytest.mark.parametrize("name", list_workloads())
    def test_plan_reports_its_required_evks(self, name):
        plan = build_plan(name)
        needs = required_evks(plan.workload)
        assert needs
        found = analyze(plan).by_pass("plan.required-evks")
        assert all(d.severity is Severity.INFO for d in found)
        assert sorted(d.message for d in found) == sorted(
            f"requires a {kind} evaluation key covering {towers} towers"
            for kind, towers in needs.items()
        )

    def test_bare_spec_plan_reports_no_evks(self):
        assert not analyze(build_plan("ARK")).by_pass("plan.required-evks")

    def test_session_missing_evks_drain(self):
        session = FHESession.create("tiny_ci")
        missing = session.missing_evks("HELR")
        assert set(missing) == {"relin", "galois"}
        session.relin_key
        session.rotation_key(1)
        assert session.missing_evks("HELR") == {}


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

    def test_ragged_graph_reported_once(self):
        graph = _clean_graph()
        graph.deps.append(())  # a row in one column only
        report = analyze(graph)
        assert [d.pass_id for d in report.diagnostics] == ["graph.structure"]
        assert "columns disagree" in report.errors[0].message

    def test_race_check_degrades_to_info_above_the_limit(self, monkeypatch):
        from repro.analysis import graph_passes

        graph = TaskGraph("race")
        graph.add(Kind.LOAD, bytes_moved=64, label="load t0")
        graph.add(Kind.PWISE, mod_muls=4, label="mul d0->t0")
        monkeypatch.setattr(graph_passes, "RACE_CHECK_TASK_LIMIT", 1)
        found = analyze(graph).by_pass("graph.buffer-race")
        assert [d.severity for d in found] == [Severity.INFO]
        assert "race check skipped above 1 tasks" in found[0].message

    @pytest.mark.parametrize("kind, label, buffer", [
        (Kind.LOAD, "load t0", "t0"),
        (Kind.LOAD, "prefetch t0", None),
        (Kind.STORE, "store t1", None),
        (Kind.NTT, "ModUp.P3 ntt d0->t7", "t7"),
        (Kind.PWISE, "mul d0->t2 acc", "t2"),
        (Kind.BCONV, "bconv d0", None),
        (Kind.PWISE, "mul d0->", None),
        (Kind.PWISE, "  ", None),
    ], ids=["load", "load-unlabelled", "store", "arrow", "arrow-suffix",
            "no-arrow", "empty-target", "blank"])
    def test_written_buffer_follows_the_label_conventions(self, kind, label,
                                                           buffer):
        assert written_buffer(kind, label) == buffer


# -- schedule-artifact passes -----------------------------------------------------


def _first(tasks, predicate):
    return next(t for t in tasks if predicate(t))


def _drop_one_multiplication(tasks):
    _first(tasks, lambda t: t["muls"] > 1)["muls"] -= 1


def _add_one_addition(tasks):
    _first(tasks, lambda t: t["adds"] > 0)["adds"] += 1


def _unload_one_key_byte(tasks):
    _first(tasks, lambda t: t["tag"] == EVK_TAG and t["bytes"] > 1)[
        "bytes"] -= 1


def _restream_one_key_byte(tasks):
    _first(tasks, lambda t: t["tag"] == EVK_TAG)["bytes"] += 1


def _stream_one_load_as_key(tasks):
    _first(tasks, lambda t: t["kind"] == "load"
           and t["tag"] == DATA_TAG)["tag"] = EVK_TAG


def _starve_data(spec):
    """An edit leaving data traffic one byte under the compulsory
    input + output movement."""
    def edit(tasks):
        moved = [t for t in tasks if t["tag"] == DATA_TAG and t["bytes"] > 1]
        excess = (sum(t["bytes"] for t in moved) + 1
                  - spec.input_bytes - spec.output_bytes)
        for task in moved:
            cut = min(task["bytes"] - 1, excess)
            task["bytes"] -= cut
            excess -= cut
        assert excess == 0
    return edit


class TestSchedPasses:
    """Each ``sched`` pass against a solved schedule with one planted
    defect: the pass reports it, and no other pass errs."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_streamed_artifact_clean(self, name):
        report = analyze(_artifact(name, STREAMED))
        assert report.ok, report.render()

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_dropped_multiplication_caught(self, name):
        art = _with_tasks(_artifact(name, STREAMED), _drop_one_multiplication)
        assert _error_ids(art) == {"sched.ops-invariant"}

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_extra_addition_caught(self, name):
        art = _with_tasks(_artifact(name), _add_one_addition)
        assert _error_ids(art) == {"sched.ops-invariant"}

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_unloaded_key_bytes_caught(self, name):
        art = _with_tasks(_artifact(name, STREAMED), _unload_one_key_byte)
        assert _error_ids(art) == {"sched.evk-traffic"}

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_restreamed_key_is_info_only(self, name):
        art = _with_tasks(_artifact(name, STREAMED), _restream_one_key_byte)
        report = analyze(art)
        assert report.ok, report.render()
        assert any("re-streamed" in d.message
                   for d in report.by_pass("sched.evk-traffic")
                   if d.severity is Severity.INFO)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_on_chip_key_streaming_caught(self, name):
        art = _with_tasks(_artifact(name), _stream_one_load_as_key)
        assert _error_ids(art) == {"sched.evk-traffic"}

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_skipped_compulsory_data_caught(self, name):
        art = _artifact(name)
        art = _with_tasks(art, _starve_data(art.spec))
        assert _error_ids(art) == {"sched.compulsory-data"}

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_sram_overrun_caught(self, name):
        art = _artifact(name)
        stats = dataclasses.replace(
            art.stats, peak_bytes=art.config.data_sram_bytes + 1)
        assert _error_ids(dataclasses.replace(art, stats=stats)) == {
            "sched.sram-budget"}

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_digest_drift_caught(self, name):
        art = _artifact(name)
        solved = dataclasses.replace(art.solved, digest="0" * 24)
        report = analyze(dataclasses.replace(art, solved=solved))
        assert {d.pass_id for d in report.errors} == {"sched.decision-legal"}
        assert "does not match" in report.errors[0].message

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_overpinned_decision_caught(self, name):
        art = _artifact(name)
        spec = art.spec
        budget = 2 * spec.tower_bytes  # room for the margin towers only
        assert pin_capacity(spec, budget) < spec.dnum
        record = dataclasses.replace(
            art.solved.record, decision=HKSDecision(pinned_digits=spec.dnum))
        art = dataclasses.replace(
            art,
            config=dataclasses.replace(art.config, data_sram_bytes=budget),
            solved=dataclasses.replace(art.solved, record=record),
            stats=dataclasses.replace(art.stats, peak_bytes=budget),
        )
        report = analyze(art)
        assert {d.pass_id for d in report.errors} == {"sched.decision-legal"}
        assert "digit prefixes fit" in report.errors[0].message

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_decision_pinned_to_capacity_is_legal(self, name):
        art = _artifact(name)
        pins = pin_capacity(art.spec, art.config.data_sram_bytes)
        record = dataclasses.replace(
            art.solved.record, decision=HKSDecision(pinned_digits=pins))
        solved = dataclasses.replace(art.solved, record=record)
        report = analyze(dataclasses.replace(art, solved=solved))
        assert report.ok, report.render()


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
