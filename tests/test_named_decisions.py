"""MP, DC and OC as named decisions of the one schedule emitter.

* every graph ``get_dataflow`` builds for the registered workloads' specs
  is pinned, name included, to a digest computed **at the parent commit**
  of the change that folded the hand-written dataflow classes into the
  decision-driven emitter (``golden/dataflow_graphs.json``), and the
  schedule store's graph for the same named decision carries the same
  builder statistics;
* the solver's candidate list holds each schedule once: no generic
  decision repeats the graph OC already names.
"""

import json
from pathlib import Path

import pytest

from repro.core import DataflowConfig, get_dataflow
from repro.core.hks_ops import pin_capacity
from repro.params import BENCHMARKS, MB, BenchmarkSpec
from repro.sched import (
    HKSDecision,
    Objective,
    clear_memos,
    decision_graph,
    enumerate_decisions,
    schedule_digest,
)
from repro.workloads import WORKLOADS, resolve_workload

GOLDEN = Path(__file__).parent / "golden" / "dataflow_graphs.json"

NAMED = ("MP", "DC", "OC")
BUDGETS_MB = (16, 32, 64, 128)
PLACEMENTS = {"onchip": True, "streamed": False}


def grid_specs():
    """Every distinct spec of the registered workloads, first-seen order."""
    specs = {}
    for workload in list(BENCHMARKS) + list(WORKLOADS):
        resolved = resolve_workload(workload)
        if isinstance(resolved, BenchmarkSpec):
            specs[resolved] = None
        else:
            specs.update(dict.fromkeys(phase.spec for phase in resolved.phases))
    return list(specs)


def grid():
    """``(key, spec, config)`` for every spec x budget x evk placement."""
    for spec in grid_specs():
        for mb in BUDGETS_MB:
            for placement, on_chip in PLACEMENTS.items():
                yield (f"{spec.name}/{mb}mb/{placement}", spec,
                       DataflowConfig(data_sram_bytes=mb * MB,
                                      evk_on_chip=on_chip))


def dataflow_graph_digests():
    """``{"<spec>/<MB>mb/<placement>/<name>": schedule_digest}`` over the
    grid; regenerate the golden file with
    ``json.dumps(dataflow_graph_digests(), indent=1, sort_keys=True)``
    only for a change that is *meant* to move a named schedule."""
    return {
        f"{key}/{name}": schedule_digest(get_dataflow(name).build(spec, config))
        for key, spec, config in grid()
        for name in NAMED
    }


class TestNamedDecisionGrid:
    def test_grid_covers_every_registered_spec(self):
        assert len(grid_specs()) == 18
        assert len(json.loads(GOLDEN.read_text())) == 18 * 4 * 2 * 3

    def test_named_graphs_match_the_parent_commit(self):
        golden = json.loads(GOLDEN.read_text())
        clear_memos()
        try:
            for key, spec, config in grid():
                for name in NAMED:
                    graph, stats = get_dataflow(name).build_with_stats(
                        spec, config)
                    assert schedule_digest(graph) == golden[f"{key}/{name}"]
                    stored, stored_stats = decision_graph(
                        spec, config, HKSDecision(base=name), Objective())
                    assert stored_stats == stats, f"{key}/{name}"
                    assert schedule_digest(stored) == schedule_digest(graph)
        finally:
            clear_memos()


class TestOneCandidatePerSchedule:
    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    def test_no_generic_candidate_repeats_oc(self, placement):
        for spec in grid_specs():
            for mb in BUDGETS_MB:
                config = DataflowConfig(data_sram_bytes=mb * MB,
                                        evk_on_chip=PLACEMENTS[placement])
                pins = min(max(spec.dnum - 1, 1),
                           pin_capacity(spec, config.data_sram_bytes))
                oc_point = HKSDecision(base="GEN", pinned_digits=pins)
                decisions = enumerate_decisions(spec, config)
                assert HKSDecision(base="OC") in decisions
                assert oc_point not in decisions, (spec.name, mb)
