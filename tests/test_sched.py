"""Schedule-solver tests: determinism, legality, match-or-beat, caching.

The solver's contract with the rest of the stack is strict: the same
(spec, config, objective) always yields the same schedule digest — in
this process, in a fresh interpreter, under a different hash seed; every
schedule it emits passes the ``sched.*`` analysis passes; its cost never
exceeds the best hand-written dataflow on any workload, on either
backend; and a warm cache means a second process runs zero searches.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import codec, sched
from repro.analysis import analyze
from repro.api import (
    KNOWN_SCHEDULES,
    SCHEDULES,
    EstimateOptions,
    build_plan,
    estimate,
    report_from_dict,
    report_to_dict,
)
from repro.core.dataflow import DataflowConfig
from repro.errors import ParameterError
from repro.params import BENCHMARKS, MB, BenchmarkSpec, get_benchmark
from repro.sched import (
    HELR_DECISION,
    RESNET_DECISION,
    HKSDecision,
    Objective,
    enumerate_decisions,
    pin_capacity,
    schedule_digest,
    solve,
    solve_workload,
)
from repro.core.dataflow import Dataflow as DecisionDataflow
from repro.sched.space import LEGACY_DECISIONS, ProgramDecision
from repro.workloads import HEOpMix

REPO_ROOT = Path(__file__).resolve().parent.parent

PROGRAMS = ("BOOT", "RESNET_BOOT", "HELR")
BENCHMARK_NAMES = tuple(sorted(BENCHMARKS))

#: A config whose streamed, compressed keys open the generic decision space.
STREAMED = DataflowConfig(evk_on_chip=False, key_compression=True)


def _subprocess_env(cache_dir, hash_seed="0"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONHASHSEED"] = hash_seed
    return env


class TestDeterminism:
    def test_same_inputs_same_digest_in_process(self):
        spec = get_benchmark("ARK")
        a = solve(spec, DataflowConfig(), Objective())
        b = solve(spec, DataflowConfig(), Objective())
        assert a.digest == b.digest
        assert codec.to_dict(a) == codec.to_dict(b)

    def test_rebuild_matches_digest(self):
        spec = get_benchmark("ARK")
        solved = solve(spec, STREAMED, Objective.traffic())
        graph, _ = sched.solved_graph(spec, STREAMED, Objective.traffic(),
                                      solved)
        assert schedule_digest(graph) == solved.digest

    def test_digest_stable_across_processes(self, tmp_path):
        """Fresh interpreters with different hash seeds agree on the solve."""
        script = (
            "from repro.core.dataflow import DataflowConfig\n"
            "from repro.params import get_benchmark\n"
            "from repro.sched import Objective, solve\n"
            "s = solve(get_benchmark('ARK'), DataflowConfig(), Objective())\n"
            "print(s.digest, s.decision.summary(), f'{s.cost:.9e}')\n"
        )
        lines = []
        for seed in ("12345", "54321"):
            env = _subprocess_env(tmp_path / f"cache-{seed}", seed)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            lines.append(out.stdout.strip())
        assert lines[0] == lines[1]


class TestLegality:
    @pytest.mark.parametrize("workload", PROGRAMS + BENCHMARK_NAMES)
    def test_every_solved_schedule_passes_analysis(self, workload):
        config = DataflowConfig()
        objective = Objective()
        for spec, _, solved in solve_workload(workload, config, objective):
            art = sched.artifact(spec, config, objective, solved)
            report = analyze(art)
            assert report.ok, f"{spec.name}: {report.render()}"

    def test_streamed_traffic_solve_passes_analysis(self):
        spec = get_benchmark("ARK")
        objective = Objective.traffic()
        solved = solve(spec, STREAMED, objective)
        assert analyze(sched.artifact(spec, STREAMED, objective, solved)).ok

    def test_generic_decision_preserves_op_counts(self):
        """A pinned-digit GEN emission is work-equivalent to the algebra."""
        from repro.core.stages import HKSShape

        spec = get_benchmark("ARK")
        capacity = pin_capacity(spec, STREAMED.data_sram_bytes)
        decision = HKSDecision(base="GEN", loop="digit",
                               pinned_digits=min(2, capacity))
        graph, _ = DecisionDataflow(decision).build_with_stats(spec, STREAMED)
        expected = HKSShape(spec).total_ops()
        regen = spec.dnum * spec.extended_towers * spec.n
        assert sum(t.mod_muls for t in graph.tasks) == expected.muls + regen
        assert sum(t.mod_adds for t in graph.tasks) == expected.adds
        graph.validate()


class TestMatchOrBeat:
    @pytest.mark.parametrize("workload", PROGRAMS + BENCHMARK_NAMES)
    def test_analytic_solver_at_most_best_legacy_traffic(self, workload):
        auto = estimate(workload, backend="analytic", schedule="SOLVER")
        best = min(
            estimate(workload, backend="analytic", schedule=s).total_bytes
            for s in SCHEDULES
        )
        assert auto.total_bytes <= best

    @pytest.mark.parametrize("workload", PROGRAMS + BENCHMARK_NAMES)
    def test_rpu_solver_at_most_best_legacy_latency(self, workload):
        auto = estimate(workload, backend="auto")
        best = min(
            estimate(workload, backend="rpu", schedule=s).latency_ms
            for s in SCHEDULES
        )
        assert auto.latency_ms <= best

    def test_memory_bound_config_still_matches_or_beats(self):
        spec = get_benchmark("ARK")
        objective = Objective.latency(bandwidth_gbs=8.0)
        solved = solve(spec, STREAMED, objective)
        machine = sched.solver.machine_for(STREAMED, objective)
        legacy_costs = []
        for decision in LEGACY_DECISIONS:
            graph, _ = DecisionDataflow(decision).build_with_stats(
                spec, STREAMED)
            from repro.rpu.simulator import RPUSimulator

            legacy_costs.append(RPUSimulator(machine).simulate(graph)
                                .runtime_ms)
        assert solved.cost <= min(legacy_costs)


class TestCaching:
    def test_warm_cache_second_process_runs_zero_searches(self, tmp_path):
        script = (
            "import json\n"
            "from repro import sched\n"
            "from repro.api import estimate\n"
            "r = estimate('BOOT', backend='auto')\n"
            "print(json.dumps({'searches': sched.COUNTERS['searches'],"
            " 'latency': r.latency_ms}))\n"
        )
        env = _subprocess_env(tmp_path / "cache")
        runs = []
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        assert runs[0]["searches"] > 0
        assert runs[1]["searches"] == 0
        assert runs[1]["latency"] == runs[0]["latency"]

    def test_cold_estimate_writes_solves_only(self, tmp_path, monkeypatch):
        """The per-solve entries are the solver's only disk tier: a cold
        plan records nothing plan-level and no per-call marginal."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        sched.clear_memos()
        estimate("BOOT", backend="auto")
        # Entries are named ``{kind}-{key}.{ext}``.
        kinds = {path.name.rsplit("-", 1)[0] for path in tmp_path.iterdir()}
        assert kinds == {"sched"}

    @pytest.mark.parametrize("fault", ({"base": "XYZ"}, {"pinned_digits": -1}))
    def test_bad_cache_entries_are_misses(self, tmp_path, monkeypatch, fault):
        """Valid JSON holding a bad decision in the solve store is searched
        again instead of crashing the solve."""
        from repro import cache as disk_cache

        spec, config, objective = get_benchmark("ARK"), STREAMED, Objective()
        want = codec.to_dict(solve(spec, config, objective))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = sched.solve_key(spec, config, objective)
        bad = json.loads(json.dumps(want))
        bad["record"]["decision"].update(fault)
        disk_cache.store_json("sched", key, bad)
        sched.clear_memos()
        before = dict(sched.COUNTERS)
        assert codec.to_dict(solve(spec, config, objective)) == want
        assert sched.COUNTERS["searches"] == before["searches"] + 1
        assert sched.COUNTERS["disk_hits"] == before["disk_hits"]

    def test_objective_traffic_ignores_timing_axes(self):
        """Traffic sweeps at different bandwidths share one cache entry."""
        a = Objective(metric="traffic", bandwidth_gbs=12.8, modops_scale=2.0)
        assert a.key_parts() == Objective.traffic().key_parts()

    def test_solve_key_separates_configs(self):
        spec = get_benchmark("ARK")
        assert (sched.solve_key(spec, DataflowConfig(), Objective())
                != sched.solve_key(spec, STREAMED, Objective()))


class TestScheduleStats:
    @pytest.mark.parametrize("backend", ("analytic", "rpu", "auto"))
    def test_stats_present_and_sane_on_all_backends(self, backend):
        report = estimate("BOOT", backend=backend)
        stats = report.schedule_stats
        assert stats is not None
        assert stats.compute_tasks > 0 and stats.memory_tasks > 0
        assert 0 < stats.critical_path_tasks <= (
            stats.compute_tasks + stats.memory_tasks)
        assert 0 < stats.sram_high_water_bytes
        assert 0.0 <= stats.compute_occupancy <= 1.0
        assert 0.0 <= stats.memory_occupancy <= 1.0

    def test_stats_present_on_legacy_schedules(self):
        report = estimate("ARK", backend="rpu", schedule="MP")
        assert report.schedule_stats is not None
        assert report.schedule_stats.sram_high_water_bytes <= 32 * MB

    def test_stats_roundtrip_through_report_codec(self):
        report = estimate("HELR", backend="auto")
        data = report_to_dict(report)
        back = report_from_dict(data)
        assert back.schedule_stats == report.schedule_stats
        assert back == report

    def test_stats_roundtrip_through_json(self):
        report = estimate("ARK", backend="auto")
        blob = json.dumps(report_to_dict(report), sort_keys=True)
        assert report_from_dict(json.loads(blob)) == report


class TestPlanIntegration:
    def test_solver_plan_runs_and_roundtrips(self):
        plan = build_plan("BOOT", backend="rpu", schedule="SOLVER")
        assert plan.run() == estimate("BOOT", backend="rpu",
                                      schedule="SOLVER")
        from repro.api import Plan

        assert Plan.from_dict(plan.to_dict()).digest == plan.digest

    def test_auto_backend_forces_solver_schedule(self):
        report = estimate("ARK", backend="auto", schedule="MP")
        assert report.schedule == "SOLVER"

    def test_all_still_expands_to_legacy_trio(self):
        from repro.api.backends import _resolve_schedules

        assert tuple(_resolve_schedules("all")) == SCHEDULES
        assert KNOWN_SCHEDULES == SCHEDULES + ("SOLVER",)

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ParameterError):
            build_plan("ARK", backend="rpu", schedule="BOGUS")


class TestPhasePricing:
    #: BOOT's first CoeffToSlot phase: 62 rotations on a memory-bound
    #: machine whose solver winner is a re-listed OC schedule.
    SPEC = BenchmarkSpec("BOOT", log_n=16, kl=24, kp=6, dnum=4)
    OPTIONS = EstimateOptions(bandwidth_gbs=12.8, sram_mb=32,
                              evk_on_chip=False)
    CALLS = 62

    @pytest.mark.parametrize("schedule", ("SOLVER",) + SCHEDULES)
    @pytest.mark.parametrize("backend", ("rpu", "auto"))
    def test_k_calls_cost_k_single_calls(self, backend, schedule):
        """One rule for every schedule, the re-listed winner included."""
        from repro.api.backends import (
            _dataflow_config,
            _machine_of,
            _pointwise_graph,
            get_backend,
        )
        from repro.rpu.simulator import RPUSimulator

        priced = get_backend(backend)
        options, k = self.OPTIONS, self.CALLS
        solved = solve(self.SPEC, _dataflow_config(options),
                       priced._objective(options))
        assert solved.decision == HKSDecision(base="OC", reordered=True)
        single = priced._spec_report(self.SPEC, schedule, options)
        report = priced._mix_report(
            self.SPEC, HEOpMix(rotations=k, ct_multiplies=0,
                               pt_multiplies=0, additions=0),
            schedule, options)
        # Every rotation also permutes its ciphertext: that point-wise
        # share is added after the key switches, in the same order.
        permute = RPUSimulator(_machine_of(options)).simulate(
            _pointwise_graph(self.SPEC, "automorphism")).runtime_ms
        assert report.hks_calls == k
        assert report.latency_ms == k * single.latency_ms + k * permute

    @pytest.mark.parametrize("backend", ("rpu", "auto"))
    def test_a_reordered_winner_keeps_its_gain_on_every_call(self, backend):
        """SOLVER beats the plain OC listing by the same margin on each of
        the k calls, not on the first call only."""
        from repro.api.backends import get_backend

        priced = get_backend(backend)
        options, k = self.OPTIONS, self.CALLS
        mix = HEOpMix(rotations=k, ct_multiplies=0, pt_multiplies=0,
                      additions=0)
        single = {schedule: priced._spec_report(
            self.SPEC, schedule, options).latency_ms
            for schedule in ("SOLVER", "OC")}
        phase = {schedule: priced._mix_report(
            self.SPEC, mix, schedule, options).latency_ms
            for schedule in ("SOLVER", "OC")}
        gain = single["OC"] - single["SOLVER"]
        assert gain > 0
        assert phase["OC"] - phase["SOLVER"] == pytest.approx(k * gain,
                                                              rel=1e-9)


class TestDecisionSpace:
    def test_enumeration_leads_with_legacy_trio(self):
        decisions = enumerate_decisions(get_benchmark("ARK"), STREAMED)
        assert tuple(decisions[:3]) == LEGACY_DECISIONS
        assert len(set(decisions)) == len(decisions)

    def test_pin_capacity_monotone_in_budget(self):
        spec = get_benchmark("ARK")
        small = DataflowConfig(data_sram_bytes=8 * MB, evk_on_chip=False)
        large = DataflowConfig(data_sram_bytes=64 * MB, evk_on_chip=False)
        assert 0 <= pin_capacity(spec, small.data_sram_bytes) \
            <= pin_capacity(spec, large.data_sram_bytes)

    def test_shared_program_decisions_match_builders(self):
        assert RESNET_DECISION.num_bootstraps == 2
        assert RESNET_DECISION.segment_depth(10) == 7
        assert HELR_DECISION.max_segment_depth == 5
        assert HELR_DECISION.segment_depth(10) == 5
        assert HELR_DECISION.segment_depth(4) == 1
        assert ProgramDecision().segment_depth(2) == 1
        assert any("segment depth 7" in line
                   for line in RESNET_DECISION.explain(10))


class TestReorder:
    def test_reorder_preserves_work_or_declines(self):
        from repro.sched import reorder_for_latency

        spec = get_benchmark("ARK")
        graph, _ = DecisionDataflow(LEGACY_DECISIONS[2]).build_with_stats(
            spec, STREAMED)
        machine = sched.solver.machine_for(STREAMED,
                                           Objective.latency(8.0))
        better = reorder_for_latency(graph, machine)
        if better is not None:
            better.validate()
            assert len(better) == len(graph)
            assert better.total_mod_ops() == graph.total_mod_ops()
            assert better.total_bytes() == graph.total_bytes()
