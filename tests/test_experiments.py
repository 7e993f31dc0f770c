"""Tests for the experiment harness: every table/figure runs, matches
the paper's qualitative claims, and reproduces its committed cells."""

import json
from pathlib import Path

import pytest

from repro.experiments import figure2, figure4, figure56, figure7, figure8, figure9
from repro.experiments import table2, table3, table4, table5
from repro.experiments.common import (
    baseline_runtime_ms,
    build_schedule,
    grid_ocbase,
    matching_bandwidth,
    runtime_ms,
    simulate,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.report import ExperimentResult, format_table


class TestCommon:
    def test_schedule_cache(self):
        a = build_schedule("ARK", "OC")
        b = build_schedule("ARK", "OC")
        assert a is b

    def test_simulate_returns_runtime(self):
        res = simulate("ARK", "OC", bandwidth_gbs=64)
        assert res.runtime_ms > 0

    def test_matching_bandwidth_bisects(self):
        target = runtime_ms("ARK", "OC", bandwidth_gbs=32)
        bw = matching_bandwidth("ARK", "OC", target)
        assert bw == pytest.approx(32, rel=0.15)

    def test_matching_bandwidth_unreachable(self):
        assert matching_bandwidth("ARK", "OC", 0.0001) is None

    def test_grid_ocbase_finds_point(self):
        base = baseline_runtime_ms("ARK")
        ocbase = grid_ocbase("ARK", base)
        assert ocbase is not None and ocbase <= 32


class TestReport:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines[1:])) == 1  # aligned widths

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_render_includes_notes(self):
        r = ExperimentResult("X", "desc", rows=[{"a": 1}], notes=["hello"])
        assert "note: hello" in r.render()


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run()

    def test_fifteen_rows(self, result):
        assert len(result.rows) == 15

    def test_oc_always_below_mp(self, result):
        by_key = {(r["benchmark"], r["dataflow"]): r["MB"] for r in result.rows}
        for bench in ("BTS1", "BTS2", "BTS3", "ARK", "DPRIVE"):
            assert by_key[(bench, "OC")] < by_key[(bench, "MP")]

    def test_within_paper_envelope(self, result):
        for row in result.rows:
            assert abs(row["MB"] - row["paper_MB"]) / row["paper_MB"] < 0.35


class TestTable3:
    def test_exact_evk_match(self):
        for row in table3.run().rows:
            assert row["evk_MB"] == row["paper_evk"]


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return table4.run()

    def test_all_benchmarks_have_ocbase(self, result):
        assert len(result.rows) == 5
        for row in result.rows:
            assert row["OCbase_GBs"] != "n/a"

    def test_speedups_exceed_one(self, result):
        for row in result.rows:
            assert row["speedup"] > 1.0

    def test_bandwidth_savings(self, result):
        """The paper reports 2x-8x saved bandwidth; ours must be >= 2x."""
        for row in result.rows:
            assert row["saved_BW"] >= 2.0

    def test_small_benchmarks_save_most(self, result):
        by_bench = {r["benchmark"]: r for r in result.rows}
        assert by_bench["ARK"]["saved_BW"] >= by_bench["BTS1"]["saved_BW"]


class TestTable5:
    def test_relative_bandwidth_ordering(self):
        rows = {r["dataflow"]: r for r in table5.run().rows}
        assert rows["OC"]["rel_BW"] < rows["DC"]["rel_BW"] <= 1.0
        # paper: OC needs ~0.10x, DC ~0.42x of the saturation bandwidth
        assert rows["OC"]["rel_BW"] < 0.2


class TestFigures:
    def test_figure2_interleave_ordering(self):
        rows = {r["dataflow"]: r for r in figure2.run("BTS3").rows}
        assert rows["OC"]["interleave"] > rows["MP"]["interleave"]

    def test_figure4_monotone_and_converging(self):
        result = figure4.run()
        assert len(result.rows) == 50
        for row in result.rows:  # OC never slower than MP on the sweep
            assert row["OC_ms"] <= row["MP_ms"] * 1.02, row
        ark = [r for r in result.rows if r["benchmark"] == "ARK"]
        mp = [r["MP_ms"] for r in ark]
        assert mp == sorted(mp, reverse=True)
        last = ark[-1]
        assert last["MP_ms"] / last["OC_ms"] < 1.15  # converged at 1 TB/s

    @pytest.mark.parametrize("bench", ["ARK", "BTS3"])
    def test_figure56_streaming_never_faster(self, bench):
        # Exact for OC (the paper's Fig. 5/6 claim) and for all of ARK.  On
        # compute-bound BTS3 (1 TB/s) the in-order replay lets streamed DC
        # finish 0.03 % ahead of its on-chip twin (30.02 vs 30.03 ms; MP
        # likewise before rounding): the evk loads reorder its evictions.
        slack = {"ARK": 0.0, "BTS3": 5e-4}[bench]
        for row in figure56.run(bench).rows:
            for df in ("MP", "DC", "OC"):
                floor = row[f"{df}_onchip"] * (1 - (df != "OC") * slack)
                assert row[f"{df}_stream"] >= floor - 1e-6, (row, df)

    def test_figure7_slowdowns_bounded(self):
        for row in figure7.run().rows:
            assert 1.0 <= row["slowdown"] < 3.5
            if row["equiv_BW_GBs"] != "n/a":
                assert row["BW_ratio"] >= 1.0

    def test_figure8_modops_helps_only_when_compute_bound(self):
        result = figure8.run()
        low = result.rows[0]   # 8 GB/s
        high = [r for r in result.rows if r["BW_GBs"] == 1000.0][0]
        # at low BW the 1x and 16x curves nearly coincide
        assert low["1x"] / low["16x"] < 1.6
        # at high BW they are far apart
        assert high["1x"] / high["16x"] > 4.0

    def test_figure9_more_modops_needs_less_bandwidth(self):
        rows = figure9.run().rows
        sat = [r["BW_for_saturation_GBs"] for r in rows]
        numeric = [v for v in sat if v != "n/a"]
        assert numeric == sorted(numeric, reverse=True)


#: Every row of Tables II-V and Figs. 2, 4-9 as the model produced them at
#: the commit that pinned them.  A model change that is *meant* to move a
#: cell regenerates the file with ``json.dump({name: EXPERIMENTS[name]().rows
#: for name in PAPER_EXPERIMENTS}, open(GOLDEN_CELLS, "w"), indent=1)``.
GOLDEN_CELLS = Path(__file__).resolve().parent / "golden" / "paper_cells.json"
PAPER_EXPERIMENTS = ("table2", "table3", "table4", "table5", "fig2", "fig4",
                     "fig5", "fig6", "fig7", "fig8", "fig9")


def first_moved_cell(name, golden_rows, rows):
    """``"<experiment>[<row key>].<column>: ..."`` of the first cell that
    differs from its golden, or ``None``.  A row is named by the shortest
    prefix of its columns that tells the golden rows apart."""
    if len(rows) != len(golden_rows):
        return f"{name}: {len(golden_rows)} golden rows, now {len(rows)}"
    columns = list(golden_rows[0])
    width = next(
        w for w in range(1, len(columns) + 1)
        if len({tuple(r[c] for c in columns[:w]) for r in golden_rows})
        == len(golden_rows)
    )
    for golden, row in zip(golden_rows, rows):
        key = "/".join(str(golden[c]) for c in columns[:width])
        if list(row) != list(golden):
            return f"{name}[{key}]: columns {list(golden)}, now {list(row)}"
        for column, want in golden.items():
            if row[column] != want:
                return (f"{name}[{key}].{column}: golden {want!r}, "
                        f"now {row[column]!r}")
    return None


class TestPaperCells:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_CELLS.read_text())

    def test_golden_file_covers_every_paper_experiment(self, golden):
        assert tuple(golden) == PAPER_EXPERIMENTS
        assert sum(len(r) for rows in golden.values() for r in rows) == 875

    @pytest.mark.parametrize("name", PAPER_EXPERIMENTS)
    def test_cells_match_golden(self, golden, name):
        moved = first_moved_cell(name, golden[name],
                                 EXPERIMENTS[name]().rows)
        assert moved is None, moved

    def test_a_moved_cell_is_named(self, golden):
        rows = [dict(r) for r in golden["table2"]]
        rows[4]["AI"] += 0.01
        assert first_moved_cell("table2", golden["table2"], rows).startswith(
            "table2[BTS2/DC].AI: golden 1.22, now 1.23")
        assert first_moved_cell("fig9", golden["fig9"], rows[:3]) == \
            "fig9: 4 golden rows, now 3"


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table2", "table3", "table4", "table5",
            "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "keycompress", "motivation", "hoisting", "ablation", "crossover",
            "bootstrap", "deep",
        }

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_experiment_renders(self, name):
        assert run_experiment(name).render().startswith("=== ")

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("table99")

    def test_run_experiment_renders(self):
        out = run_experiment("table3").render()
        assert "Table III" in out
