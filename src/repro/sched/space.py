"""The schedule search space: every legal per-phase decision, enumerated.

The paper's three dataflows (MP / DC / OC) are three named *points* in a
much larger space of legal HKS schedules.  This module enumerates that
space:

* :class:`~repro.core.dataflow.HKSDecision` (defined in
  :mod:`repro.core.dataflow`, whose one emitter builds every point) — one
  candidate schedule for a single hybrid key switch: the named bases
  ``MP``/``DC``/``OC``, or a ``GEN`` point giving how many digits' INTT
  outputs to pin on-chip, the loop order of the ModUp sweep
  (output-tower-major vs digit-major), the stage-major tile width, whether
  ModDown fuses P2->P3->P4 per output tower, the BConv chunk override, and
  (when keys stream from DRAM) whether evk tower pairs are prefetched
  ahead of the compute that consumes them.
* :class:`ProgramDecision` — the deep-program structure choices that used
  to be hard-coded constants in :mod:`repro.workloads.builders`: how many
  mid-network bootstraps to place and how deep each application segment
  descends before a refresh.  Both the hand-written workload builders and
  the solver read the *same* record, so there is exactly one code path.
* :func:`enumerate_decisions` — the deterministic candidate list the
  solver searches, named points first (they anchor the match-or-beat
  guarantee), then the generic family pruned to capacity-feasible pins,
  each schedule listed once.
* :func:`predict_cost` — a closed-form (no schedule built, no simulation)
  cost guess used to rank generic candidates before paying for exact
  evaluation.  Guesses only *order* candidates; correctness never depends
  on them because the legacy anchors are always evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.core.dataflow import (
    LEGACY_DECISIONS,
    LOOP_ORDERS,
    DataflowConfig,
    HKSDecision,
)
from repro.core.hks_ops import pin_capacity
from repro.core.stages import HKSShape
from repro.errors import ParameterError
from repro.params import BenchmarkSpec


@lru_cache(maxsize=None)
def _shape_numbers(spec: BenchmarkSpec) -> Tuple[int, int]:
    """(ModUp live-set towers, total modular ops) — reused per candidate."""
    shape = HKSShape(spec)
    return shape.modup_intermediate_towers(), shape.total_ops().total


@dataclass(frozen=True)
class ProgramDecision:
    """Deep-program structure choices shared by builders and solver.

    ``level_margin`` is the noise headroom (in levels) a segment must
    leave before the next refresh; ``segment_depth`` derives the deepest
    legal slice count from the post-bootstrap budget, optionally capped
    (HELR's per-iteration circuit only has 5 levels of real work).
    ``num_bootstraps`` is the bootstrap-placement count for segmented
    inference programs (``None`` = determined by the workload, e.g. one
    per training iteration).
    """

    level_margin: int = 3
    max_segment_depth: Optional[int] = None
    num_bootstraps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.level_margin < 0:
            raise ParameterError("level margin must be non-negative")
        if self.max_segment_depth is not None and self.max_segment_depth < 1:
            raise ParameterError("segment depth cap must be at least 1")
        if self.num_bootstraps is not None and self.num_bootstraps < 0:
            raise ParameterError("bootstrap count must be non-negative")

    def segment_depth(self, post_boot_towers: int) -> int:
        """Levels one application segment descends before the next refresh.

        Deeper is cheaper under the level-aware cost model (later slices
        run at lower tower counts), so the chosen depth is the argmin:
        the deepest depth that still leaves ``level_margin`` levels of
        noise headroom, capped by the circuit's real depth when known.
        """
        depth = post_boot_towers - self.level_margin
        if self.max_segment_depth is not None:
            depth = min(depth, self.max_segment_depth)
        return max(1, depth)

    def explain(self, post_boot_towers: int) -> List[str]:
        depth = self.segment_depth(post_boot_towers)
        lines = [
            f"segment depth {depth}: deepest slice count leaving "
            f"{self.level_margin} levels of noise margin below the "
            f"{post_boot_towers}-tower post-bootstrap budget"
            + (f" (capped at the circuit's {self.max_segment_depth}-level "
               f"real depth)"
               if self.max_segment_depth is not None
               and post_boot_towers - self.level_margin > self.max_segment_depth
               else ""),
        ]
        if self.num_bootstraps is not None:
            lines.append(
                f"{self.num_bootstraps} mid-network bootstrap(s): one "
                f"refresh per segment boundary"
            )
        return lines


#: RESNET_BOOT's structure: two mid-network refreshes -> three segments.
RESNET_DECISION = ProgramDecision(num_bootstraps=2)

#: HELR's structure: per-iteration circuit is 5 levels deep, one
#: bootstrap per training iteration (placement fixed by the algorithm).
HELR_DECISION = ProgramDecision(max_segment_depth=5)


def enumerate_decisions(spec: BenchmarkSpec,
                        config: DataflowConfig) -> List[HKSDecision]:
    """The deterministic candidate list for one (spec, memory config).

    Named points come first — the solver always evaluates them exactly,
    which is what makes match-or-beat hold by construction.  The generic
    family then varies pin count (including *full* pinning, which OC's
    ``dnum - 1`` cap never tries), loop order, stage-major tile width,
    ModDown fusion and (streaming only) evk prefetch, pruned to
    capacity-feasible pins and deduplicated in first-seen order.  The
    generic point at OC's own pin count *is* OC's sweep, so it is not
    listed a second time.
    """
    out: List[HKSDecision] = list(LEGACY_DECISIONS)
    capacity = pin_capacity(spec, config.data_sram_bytes)
    seen = set(out)
    seen.add(HKSDecision(pinned_digits=min(max(spec.dnum - 1, 1), capacity)))
    pin_options: List[int] = []
    for pins in (spec.dnum, spec.dnum - 1, max(spec.dnum - 2, 0), 0):
        pins = max(0, min(pins, spec.dnum, capacity))
        if pins not in pin_options:
            pin_options.append(pins)
    tile_options = [0]
    if spec.extended_towers >= 8:
        tile_options.append(8)
    prefetch_options = [False] if config.evk_on_chip else [False, True]
    for pins in pin_options:
        for loop in LOOP_ORDERS:
            for tile in tile_options:
                if loop == "digit" and tile:
                    continue  # tiling only applies to the tower-major sweep
                for fused in (True, False):
                    for prefetch in prefetch_options:
                        cand = HKSDecision(
                            base="GEN", pinned_digits=pins, loop=loop,
                            tile_towers=tile, moddown_fused=fused,
                            evk_prefetch=prefetch,
                        )
                        if cand not in seen:
                            seen.add(cand)
                            out.append(cand)
    return out


def compute_seconds(spec: BenchmarkSpec, modops_scale: float = 1.0) -> float:
    """The schedule-invariant compute-roofline time the guesses assume.

    Every candidate emits the same modular-op multiset (the
    ``sched.ops-invariant`` pass enforces it), so no latency guess can
    fall below this floor; a legacy guess already sitting on it proves
    the generic ranking cannot pass the evaluation-margin gate.
    """
    return _shape_numbers(spec)[1] / (128 * 1.7e9 * 0.31 * modops_scale)


def predict_cost(spec: BenchmarkSpec, config: DataflowConfig,
                 decision: HKSDecision, *, bandwidth_gbs: float = 64.0,
                 modops_scale: float = 1.0,
                 metric: str = "latency") -> float:
    """Closed-form cost guess for ranking candidates (no schedule built).

    Compute work is dataflow-independent (:meth:`HKSShape.total_ops`), so
    candidates are separated by predicted DRAM traffic: compulsory input
    + output movement, the streamed key size, and a spill estimate from
    how far the candidate's pinned working set overshoots the budget.
    ``metric="traffic"`` returns predicted bytes; ``"latency"`` returns
    the max of the memory and compute times in seconds.  Guesses are only
    used to *order* generic candidates for exact evaluation.
    """
    tb = spec.tower_bytes
    budget_towers = config.data_sram_bytes // tb
    compulsory = spec.input_bytes + spec.output_bytes
    evk = 0
    if not config.evk_on_chip:
        evk = spec.evk_bytes // 2 if config.key_compression else spec.evk_bytes
    if decision.base == "MP":
        live = _shape_numbers(spec)[0]
    elif decision.base == "DC":
        live = spec.kl + 2 * spec.extended_towers + max(spec.digit_sizes)
    else:  # OC and GEN: pinned icoefs + accumulators + transients
        capacity = pin_capacity(spec, config.data_sram_bytes)
        pins = (min(spec.dnum - 1, capacity) if decision.base == "OC"
                else min(decision.pinned_digits, capacity))
        live = (sum(spec.digit_sizes[:pins]) + 2 * spec.extended_towers
                + max(decision.tile_towers, 4))
    overshoot_towers = max(0, live - budget_towers)
    # Each overshooting tower round-trips (spill + reload) roughly once
    # per ModUp digit sweep; a crude model, but monotone in the overshoot,
    # which is all the ranking needs.
    spill_bytes = overshoot_towers * tb * 2 * max(1, spec.dnum - 1)
    if decision.base == "GEN" and not decision.moddown_fused:
        # Stage-ordered ModDown materializes the P2 expansion.
        spill_bytes += max(0, 2 * spec.kl - budget_towers) * tb
    bytes_guess = float(compulsory + evk + spill_bytes)
    if metric == "traffic":
        return bytes_guess
    compute_s = compute_seconds(spec, modops_scale)
    memory_s = bytes_guess / (bandwidth_gbs * 1e9)
    if decision.evk_prefetch:
        # Prefetched key streams overlap compute slightly better.
        memory_s *= 0.98
    return max(compute_s, memory_s)
