"""Tests for tooling: trace reports, schedule serialization, CLI, crossover."""

import pytest

from repro.core import DataflowConfig, TaskGraph, get_dataflow
from repro.core.taskgraph import Kind
from repro.errors import SimulationError
from repro.params import MB, get_benchmark
from repro.rpu import RPUConfig, RPUSimulator
from repro.rpu.trace_report import kind_breakdown, occupancy_strip, render_trace_summary


@pytest.fixture(scope="module")
def traced_result():
    graph = get_dataflow("OC").build(
        get_benchmark("ARK"), DataflowConfig(32 * MB, evk_on_chip=True)
    )
    return RPUSimulator(RPUConfig()).simulate(graph, collect_trace=True)


class TestTraceReport:
    def test_breakdown_covers_all_kinds(self, traced_result):
        rows = kind_breakdown(traced_result)
        kinds = {r["kind"] for r in rows}
        assert {"load", "store", "intt", "ntt", "bconv", "mulkey"} <= kinds

    def test_breakdown_counts_match_task_total(self, traced_result):
        rows = kind_breakdown(traced_result)
        assert sum(r["tasks"] for r in rows) == traced_result.num_tasks

    def test_strip_dimensions(self, traced_result):
        strip = occupancy_strip(traced_result, width=40)
        lines = strip.splitlines()
        assert len(lines) == 3
        assert lines[0].count("|") == 2

    def test_summary_renders(self, traced_result):
        text = render_trace_summary(traced_result, title="t")
        assert "runtime" in text and "compute" in text

    def test_untraced_result_rejected(self):
        graph = get_dataflow("OC").build(
            get_benchmark("ARK"), DataflowConfig(32 * MB, evk_on_chip=True)
        )
        result = RPUSimulator(RPUConfig()).simulate(graph)
        with pytest.raises(SimulationError):
            kind_breakdown(result)


class TestSerialization:
    def test_json_roundtrip(self):
        graph = get_dataflow("DC").build(
            get_benchmark("DPRIVE"), DataflowConfig(32 * MB, evk_on_chip=False)
        )
        payload = graph.to_json()
        back = TaskGraph.from_json(payload)
        assert len(back) == len(graph)
        assert back.total_bytes() == graph.total_bytes()
        assert back.total_mod_ops() == graph.total_mod_ops()
        assert back.tasks[10].deps == graph.tasks[10].deps

    def test_json_is_plain_data(self):
        import json

        graph = TaskGraph("t")
        graph.add(Kind.LOAD, bytes_moved=8)
        text = json.dumps(graph.to_json())
        assert "load" in text


class TestCrossover:
    def test_oc_crosses_over_before_mp(self):
        from repro.experiments.crossover import crossover_bandwidth

        oc = crossover_bandwidth("ARK", "OC")
        mp = crossover_bandwidth("ARK", "MP")
        assert oc is not None and mp is not None
        assert oc < mp

    def test_crossover_experiment_rows(self):
        from repro.experiments.crossover import run

        rows = run().rows
        assert len(rows) == 5


class TestCLI:
    def test_info(self, capsys):
        from repro.__main__ import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "BTS3" in out and "Output-Centric" in out

    def test_analyze(self, capsys):
        from repro.__main__ import main

        assert main(["analyze", "ARK"]) == 0
        out = capsys.readouterr().out
        assert "OC" in out

    def test_simulate(self, capsys):
        from repro.__main__ import main

        assert main(["simulate", "ARK", "--dataflow", "OC",
                     "--bandwidth", "12.8"]) == 0
        assert "runtime" in capsys.readouterr().out

    def test_trace(self, capsys):
        from repro.__main__ import main

        assert main(["trace", "ARK", "--dataflow", "MP", "--bandwidth", "8"]) == 0
        out = capsys.readouterr().out
        assert "memory" in out and "compute" in out

    def test_experiments_cli_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "crossover" in out


class TestProjectLint:
    """tools/lint_repro.py — the REPRO004 layer-import and REPRO005
    hand-codec rules."""

    @staticmethod
    def _rules(source, rel):
        from tools.lint_repro import lint_source

        return [(line, rule) for line, rule, _ in lint_source(source, rel)]

    @pytest.mark.parametrize("source", [
        "from repro.api import backends\n",
        "from repro.api.backends import RunReport\n",
        "import repro.api.plan\n",
        "from repro import api\n",
        "from ..api import backends\n",
        "from .. import api\n",
        "def f():\n    from repro.api import backends\n    return backends\n",
    ])
    def test_lower_layers_may_not_import_the_api(self, source):
        line = source.count("\n", 0, source.index("import")) + 1
        for rel in ("core/dataflow.py", "rpu/simulator.py",
                    "sched/solver.py", "workloads/registry.py"):
            assert self._rules(source, rel) == [(line, "REPRO004")]

    @pytest.mark.parametrize("source", [
        "from repro.sched.space import HKSDecision\n",
        "from repro import sched\n",
        "import repro.workloads\n",
        "from ..workloads import registry\n",
        "def f():\n    from repro.sched import solver\n    return solver\n",
        "def f():\n    import repro.workloads.ir\n",
    ])
    def test_core_and_rpu_may_not_import_sched_or_workloads(self, source):
        line = source.count("\n", 0, source.index("import")) + 1
        for rel in ("core/dataflow.py", "core/__init__.py", "rpu/simulator.py"):
            assert self._rules(source, rel) == [(line, "REPRO004")]
        for rel in ("sched/solver.py", "workloads/builders.py", "api/plan.py"):
            assert self._rules(source, rel) == []

    @pytest.mark.parametrize("source", [
        "from repro.net import EstimateClient\n",
        "import repro.serve.service\n",
        "from repro import net\n",
        "from repro import serve\n",
        "from ..serve import pool\n",
        "def f():\n    from repro.net.protocol import encode_frame\n",
        "def f():\n    import repro.serve\n",
    ])
    def test_functional_and_estimate_paths_may_not_import_serving(
            self, source):
        line = source.count("\n", 0, source.index("import")) + 1
        for rel in ("ntt/batch.py", "rns/bconv.py", "ckks/keyswitch.py",
                    "core/dataflow.py", "rpu/simulator.py",
                    "sched/solver.py"):
            assert self._rules(source, rel) == [(line, "REPRO004")]
        for rel in ("api/plan.py", "net/server.py", "serve/aio.py",
                    "experiments/common.py", "workloads/registry.py"):
            assert self._rules(source, rel) == []

    def test_names_that_only_start_like_serving_are_fine(self):
        source = ("import repro.network\n"
                  "from repro import serving\n")
        for rel in ("ntt/batch.py", "ckks/keyswitch.py", "sched/solver.py"):
            assert self._rules(source, rel) == []

    def test_the_api_layer_and_its_peers_may(self):
        source = "from repro.api import backends\n"
        for rel in ("api/plan.py", "serve/service.py", "experiments/common.py",
                    "__init__.py"):
            assert self._rules(source, rel) == []

    def test_importing_below_or_beside_is_fine(self):
        source = ("from repro.core import DataflowConfig\n"
                  "from repro import sched\n"
                  "from . import space\n"
                  "import repro.apiary\n")
        assert self._rules(source, "sched/solver.py") == []

    def test_pragma_silences_the_finding(self):
        source = "from repro.api import Plan  # lint: allow-layer-import\n"
        assert self._rules(source, "workloads/ir.py") == []

    @pytest.mark.parametrize("source", [
        "def to_dict(self):\n    pass\n",
        "class A:\n    @classmethod\n    def from_dict(cls, d):\n        pass\n",
        "def report_to_dict(r):\n    pass\n",
        "def _spec_from_dict(d):\n    pass\n",
    ])
    def test_hand_codecs_live_only_in_the_codec_module(self, source):
        line = source.count("\n", 0, source.index("def ")) + 1
        for rel in ("api/plan.py", "sched/solver.py", "net/tenants.py"):
            assert self._rules(source, rel) == [(line, "REPRO005")]
        assert self._rules(source, "codec.py") == []

    def test_other_dict_helpers_and_the_pragma_pass(self):
        source = ("def as_dict(x):\n    pass\n"
                  "def to_dictionary(x):\n    pass\n"
                  "def to_dict(x):  # lint: allow-hand-codec\n    pass\n")
        assert self._rules(source, "api/plan.py") == []

    def test_the_tree_is_clean(self):
        from tools.lint_repro import main

        assert main([]) == 0


class TestBenchCompareVerdict:
    """tools/bench_compare.py — the verdict rule on paired readings."""

    @staticmethod
    def _judge(parent, change, better="higher", bound=0.25):
        from tools.bench_compare import judge

        return judge(parent, change, better, bound)

    def test_identical_quiet_runs_are_within_bound(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
                  100.0]
        row = self._judge(parent, list(parent))
        assert row["verdict"] == "within bound"
        assert (row["wins"], row["ties"], row["pairs"]) == (0, 10, 10)
        assert row["worse_by"] == 0.0

    def test_median_worse_by_more_than_the_bound(self):
        parent = [100.0, 102.0, 98.0, 101.0, 99.0] * 2
        slower = [70.0, 72.0, 69.0, 71.0, 70.5] * 2
        assert self._judge(parent, slower)["verdict"] == "worse"
        # The same readings of a lower-is-better metric are a gain.
        assert self._judge(parent, slower, "lower")["verdict"] == "improved"
        row = self._judge([4.0, 4.1, 3.9, 4.0], [5.5, 5.4, 5.6, 5.5], "lower")
        assert row["verdict"] == "worse"
        assert row["worse_by"] == pytest.approx(0.375)

    def test_gain_needs_nine_tenths_of_pairs_and_the_parents_iqr(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
                  100.0]
        faster = [p + 5.0 for p in parent]
        row = self._judge(parent, faster)
        assert row["verdict"] == "improved" and row["wins"] == 10
        # Eight wins of ten is not nine tenths.
        mixed = faster[:8] + [p - 1.0 for p in parent[8:]]
        assert self._judge(parent, mixed)["verdict"] == "within bound"
        # Ties count for neither side: nine wins and a tie still pass...
        tied = faster[:9] + parent[9:]
        assert self._judge(parent, tied)["wins"] == 9
        assert self._judge(parent, tied)["verdict"] == "improved"
        # ...but a median gain inside the parent's own quartile distance
        # does not, however many pairs it wins; nor do fewer than ten pairs.
        hair = [p + 0.1 for p in parent]
        row = self._judge(parent, hair)
        assert row["wins"] == 10 and row["verdict"] == "within bound"
        row = self._judge(parent[:9], faster[:9])
        assert row["wins"] == 9 and row["verdict"] == "within bound"

    def test_wide_interleaved_runs_are_unresolved_not_unchanged(self):
        parent = [100.0, 140.0, 70.0, 130.0, 75.0, 135.0]
        change = [135.0, 72.0, 128.0, 74.0, 138.0, 101.0]
        row = self._judge(parent, change)
        assert abs(row["worse_by"]) < 0.25
        assert row["verdict"] == "unresolved"
        # A shift eats into the room under the bound: 10 % spread is fine
        # for equal medians, not for medians already 20 % apart.
        parent = [100.0, 105.0, 95.0, 104.0, 96.0, 100.0]
        assert self._judge(parent, list(parent))["verdict"] == "within bound"
        lower = [v * 0.8 for v in reversed(parent)]
        row = self._judge(parent, lower)
        assert row["worse_by"] == pytest.approx(0.2)
        assert row["verdict"] == "unresolved"

    def test_separated_runs_resolve_despite_the_spread(self):
        # Every run of the change better than every run of the parent: the
        # gain is inside the parent's quartile distance, so none is
        # claimed, but "no worse" is not in doubt.
        parent = [4.0, 8.0, 6.0]
        change = [3.0, 2.0, 3.5]
        row = self._judge(parent, change, "lower", 0.05)
        assert row["wins"] == 3 and row["verdict"] == "within bound"
        row = self._judge([4.0, 8.0, 6.0, 5.0], [3.9, 3.0, 3.5, 5.0],
                          "lower", 0.05)
        assert row["verdict"] == "unresolved"  # 5.0 interleaves

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            self._judge([1.0], [1.0])
        with pytest.raises(ValueError):
            self._judge([1.0, 2.0], [1.0])


class TestBenchCompareRuns:
    """tools/bench_compare.py — one paired run, and a run that fails."""

    @staticmethod
    def _checkout(root, script):
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text(script)
        return root

    def test_a_failed_run_names_the_run_at_fault(self, tmp_path):
        from tools.bench_compare import one_run

        root = self._checkout(tmp_path / "change",
                              "import sys\nsys.exit(1)\n")
        with pytest.raises(SystemExit) as excinfo:
            one_run(root, "fhe_hks_batch", 103, side="change", pair=3)
        message = str(excinfo.value.code)
        for field in ("side=change", "pair=3", "seed=103",
                      "workload=fhe_hks_batch", "code 1",
                      "bench/run.py --workload fhe_hks_batch --seed 103"):
            assert field in message

    @pytest.mark.parametrize("parent_script, fault", [
        ("import sys\nsys.exit(1)\n",
         "both sides fail on seed 103 (a parent fault)"),
        ("print('{}')\n", "change only: the parent side passes seed 103"),
    ], ids=["both", "change-only"])
    def test_a_failed_run_says_whose_fault_it_is(self, tmp_path,
                                                 parent_script, fault):
        from tools.bench_compare import paired_run

        roots = {
            "change": self._checkout(tmp_path / "change",
                                     "import sys\nsys.exit(1)\n"),
            "parent": self._checkout(tmp_path / "parent", parent_script),
        }
        with pytest.raises(SystemExit) as excinfo:
            paired_run(roots, "fhe_hks_batch", 103, side="change", pair=3)
        message = str(excinfo.value.code)
        assert "side=change" in message and "seed=103" in message
        assert message.endswith(fault)

    def test_a_run_returns_its_final_json_line(self, tmp_path):
        from tools.bench_compare import one_run

        root = self._checkout(tmp_path / "parent", (
            "import json, sys\n"
            "print('progress')\n"
            "print(json.dumps({'argv': sys.argv[1:]}))\n"))
        line = one_run(root, "serve_hot", 101, side="parent", pair=1)
        assert line == {"argv": ["--workload", "serve_hot", "--seed", "101"]}
