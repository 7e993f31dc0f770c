"""Lowering of HKS stage kernels to B1K instruction mixes.

Each task kind of :mod:`repro.core.taskgraph` maps to a vectorized kernel
on the RPU.  The counts follow the classic vector implementations:

* an N-point (i)NTT runs ``log2(N)`` stages of ``N/2`` butterflies with a
  lane shuffle between stages and one twiddle load per stage/block;
* BConv from ``a`` source towers is ``a`` broadcast-scaled MAC passes per
  output tower;
* ApplyKey / point-wise stages are streaming multiply(-accumulate) loops.

The mixes are closed-form *reporting* only (instructions per task and per
graph, :func:`graph_instruction_histogram`).  Nothing prices them: the
simulator's frontend floor is ``mod_ops / vector_length / frequency``
(:meth:`repro.rpu.simulator.RPUSimulator.durations`) and never reads this
module, and the mixes are not derived from the programs
:mod:`repro.rpu.codegen` generates.  The two descriptions of one kernel
disagree — at N = VL = 256 :func:`ntt_kernel_mix` counts 35 instructions
(``vswap`` x 8, ``bnez`` x 8, ``vld`` x 1) where ``build_ntt_kernel``'s
program executes 78 on ``B1KVM`` (``vshuf`` x 16, ``li`` x 25, ``vld`` x 17,
no ``vswap``, no ``bnez``) — and nothing holds them together yet.
"""

from __future__ import annotations

from typing import Dict

from repro.core.taskgraph import Kind, Task
from repro.errors import ParameterError
from repro.rpu.isa import InstructionMix


def ntt_kernel_mix(n: int, vector_length: int) -> InstructionMix:
    """One tower (i)NTT: butterflies + per-stage shuffles and twiddles."""
    log_n = n.bit_length() - 1
    vectors = max(1, n // vector_length)
    mix = InstructionMix()
    mix.add("setmod")
    mix.add("vld", vectors)
    per_stage_bfly = max(1, n // 2 // vector_length)
    mix.add("vbfly", per_stage_bfly * log_n)
    mix.add("vswap", vectors * log_n)
    mix.add("ldtw", log_n)
    mix.add("bnez", log_n)
    mix.add("vst", vectors)
    return mix


def bconv_kernel_mix(n: int, source_towers: int, vector_length: int) -> InstructionMix:
    """One output tower of BConv: ``source_towers`` scaled MAC passes."""
    vectors = max(1, n // vector_length)
    mix = InstructionMix()
    mix.add("setmod")
    mix.add("vbcast", source_towers)
    mix.add("vld", vectors * source_towers)
    mix.add("vmmac", vectors * source_towers)
    mix.add("bnez", source_towers)
    mix.add("vst", vectors)
    return mix


def mulkey_kernel_mix(n: int, accumulate: bool, vector_length: int) -> InstructionMix:
    """ApplyKey for one tower: two key halves, optionally accumulating."""
    vectors = max(1, n // vector_length)
    mix = InstructionMix()
    mix.add("setmod")
    mix.add("vld", vectors)      # extended tower
    mix.add("vldk", 2 * vectors)  # both key halves
    if accumulate:
        mix.add("vmmac", 2 * vectors)
    else:
        mix.add("vmmul", 2 * vectors)
    mix.add("vst", 2 * vectors)
    return mix


def pwise_kernel_mix(n: int, vector_length: int) -> InstructionMix:
    """ModDown P4: subtract and scale one tower."""
    vectors = max(1, n // vector_length)
    mix = InstructionMix()
    mix.add("setmod")
    mix.add("vld", 2 * vectors)
    mix.add("vmsub", vectors)
    mix.add("vmscale", vectors)
    mix.add("vst", vectors)
    return mix


def task_instruction_mix(task: Task, n: int, vector_length: int) -> InstructionMix:
    """Instruction mix of one compute task (memory tasks lower to DMA)."""
    if task.kind in (Kind.LOAD, Kind.STORE):
        raise ParameterError("memory tasks are DMA transfers, not instructions")
    if task.kind is Kind.INTT or task.kind is Kind.NTT:
        towers = max(1, round(task.mod_muls / ((n // 2) * (n.bit_length() - 1))))
        mix = InstructionMix()
        for _ in range(towers):
            mix.merge(ntt_kernel_mix(n, vector_length))
        return mix
    if task.kind is Kind.BCONV:
        sources = max(1, task.mod_muls // n)
        return bconv_kernel_mix(n, sources, vector_length)
    if task.kind is Kind.MULKEY:
        return mulkey_kernel_mix(n, accumulate=task.mod_adds > 0,
                                 vector_length=vector_length)
    if task.kind in (Kind.PWISE, Kind.ACCUM):
        return pwise_kernel_mix(n, vector_length)
    raise ParameterError(f"no kernel lowering for task kind {task.kind}")


def graph_instruction_histogram(tasks, n: int, vector_length: int) -> Dict[str, int]:
    """Total instruction counts for all compute tasks of a schedule."""
    total = InstructionMix()
    for task in tasks:
        if task.kind not in (Kind.LOAD, Kind.STORE):
            total.merge(task_instruction_mix(task, n, vector_length))
    return dict(sorted(total.items()))
