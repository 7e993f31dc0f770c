"""Operation mixes and per-op task models shared by every workload.

A full HE application is, from the accelerator's point of view, a bag of
hybrid key switches plus the element-wise work between them.  This module
holds the two pieces every pricing path needs: :class:`HEOpMix` (how often
each homomorphic op runs) and :func:`build_pointwise_graph` (the task
model of one non-HKS op), plus the paper's motivation query
:func:`hks_time_share`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core import DataflowConfig, get_dataflow
from repro.core.stages import ntt_tower_ops
from repro.core.taskgraph import Kind, TaskGraph
from repro.errors import ParameterError
from repro.params import MB, BenchmarkSpec
from repro.rpu import RPUSimulator
from repro.sched import (
    HKSDecision,
    Objective,
    decision_graph,
    machine_for,
    simulated,
)


@dataclass(frozen=True)
class HEOpMix:
    """Operation counts of one application run (or one workload phase).

    The default is a ResNet-20-class private inference: the rotation count
    is the paper's 3,306; the other counts follow the multiplexed-
    convolution structure (every conv/fc multiply is ciphertext-plaintext,
    with one ciphertext-ciphertext multiply per bootstrapping-free ReLU
    polynomial segment).
    """

    rotations: int = 3306
    ct_multiplies: int = 500
    pt_multiplies: int = 2500
    additions: int = 6000

    def __post_init__(self) -> None:
        if min(self.rotations, self.ct_multiplies, self.pt_multiplies,
               self.additions) < 0:
            raise ParameterError("operation counts must be non-negative")

    @property
    def hks_calls(self) -> int:
        """Every rotation and ciphertext multiply is one hybrid key switch."""
        return self.rotations + self.ct_multiplies

    def __add__(self, other: "HEOpMix") -> "HEOpMix":
        return HEOpMix(
            self.rotations + other.rotations,
            self.ct_multiplies + other.ct_multiplies,
            self.pt_multiplies + other.pt_multiplies,
            self.additions + other.additions,
        )

    def split(self, parts: int) -> List["HEOpMix"]:
        """Divide every count as evenly as possible across ``parts`` mixes.

        The pieces sum back to ``self`` exactly (remainders go to the
        earliest parts) — the invariant phase lowering relies on.
        """
        if parts < 1:
            raise ParameterError("parts must be positive")

        def share(count: int) -> List[int]:
            return [count // parts + (1 if i < count % parts else 0)
                    for i in range(parts)]

        return [
            HEOpMix(r, c, p, a)
            for r, c, p, a in zip(share(self.rotations),
                                  share(self.ct_multiplies),
                                  share(self.pt_multiplies),
                                  share(self.additions))
        ]


def build_pointwise_graph(spec: BenchmarkSpec, kind: str) -> TaskGraph:
    """Task graph for the non-HKS part of one homomorphic operation.

    ``kind`` is one of:

    * ``"tensor"`` — the ciphertext-ciphertext product's element-wise part
      (4 tower products + 1 addition across both halves) plus rescale
      ((i)NTT pair per output tower);
    * ``"plain"``  — ciphertext-plaintext multiply + rescale;
    * ``"add"``    — ciphertext addition;
    * ``"automorphism"`` — the rotation's permutation of both halves.

    Operand ciphertexts stream from DRAM and results stream back — the
    working state of a deep workload does not fit on-chip.
    """
    g = TaskGraph(f"{spec.name}/{kind}")
    n = spec.n
    towers = spec.kl
    tb = spec.tower_bytes

    def stream_op(in_towers: int, out_towers: int, muls: int, adds: int,
                  label: str) -> None:
        load = g.add(Kind.LOAD, bytes_moved=in_towers * tb, label=f"load {label}")
        comp = g.add(
            Kind.PWISE, mod_muls=muls, mod_adds=adds, deps=[load], label=label
        )
        g.add(Kind.STORE, bytes_moved=out_towers * tb, deps=[comp],
              label=f"store {label}")

    if kind == "tensor":
        # d0 = a0*b0; d1 = a0*b1 + a1*b0; plus rescale of both halves.
        stream_op(4 * towers, 2 * towers, 4 * n * towers, n * towers, "tensor")
        rescale_ops = 2 * towers * ntt_tower_ops(n)
        comp = g.add(
            Kind.NTT,
            mod_muls=rescale_ops.muls,
            mod_adds=rescale_ops.adds,
            label="rescale ntts",
        )
        g.add(Kind.STORE, bytes_moved=2 * towers * tb, deps=[comp],
              label="store rescaled")
    elif kind == "plain":
        stream_op(2 * towers + towers, 2 * towers, 2 * n * towers, 0, "plain mul")
    elif kind == "add":
        stream_op(4 * towers, 2 * towers, 0, 2 * n * towers, "add")
    elif kind == "automorphism":
        # Permutations run on the shuffle pipe; charge one pass of adds.
        stream_op(2 * towers, 2 * towers, 0, 2 * n * towers, "automorphism")
    else:
        raise ParameterError(f"unknown op kind {kind!r}")
    g.validate()
    return g


def hks_time_share(
    spec: BenchmarkSpec,
    mix: HEOpMix,
    dataflow: str = "MP",
    bandwidth_gbs: float = 64.0,
    evk_on_chip: bool = True,
    sram_mb: int = 32,
) -> Dict[str, float]:
    """Fraction of application time spent inside hybrid key switching.

    Every rotation and every ciphertext-ciphertext multiply triggers one
    HKS; the remaining work is modelled by :func:`build_pointwise_graph`.
    The HKS schedule and its replay come out of :mod:`repro.sched`'s
    store; the point-wise graphs are replayed directly.
    """
    config = DataflowConfig(data_sram_bytes=sram_mb * MB, evk_on_chip=evk_on_chip)
    objective = Objective.latency(bandwidth_gbs)
    rpu = machine_for(config, objective)
    sim = RPUSimulator(rpu)
    hks_graph, _ = decision_graph(
        spec, config, HKSDecision(base=get_dataflow(dataflow).name), objective)
    hks_each = simulated(hks_graph, rpu).runtime_s

    op_times = {
        kind: sim.simulate(build_pointwise_graph(spec, kind)).runtime_s
        for kind in ("tensor", "plain", "add", "automorphism")
    }
    hks_calls = mix.rotations + mix.ct_multiplies
    hks_total = hks_calls * hks_each
    other_total = (
        mix.ct_multiplies * op_times["tensor"]
        + mix.pt_multiplies * op_times["plain"]
        + mix.additions * op_times["add"]
        + mix.rotations * op_times["automorphism"]
    )
    total = hks_total + other_total
    return {
        "benchmark": spec.name,
        "dataflow": dataflow,
        "bandwidth_GBs": bandwidth_gbs,
        "hks_calls": hks_calls,
        "hks_ms_per_call": hks_each * 1e3,
        "hks_s": hks_total,
        "other_s": other_total,
        "total_s": total,
        "hks_share": hks_total / total if total else 0.0,
    }
