"""Named workload programs estimable via ``repro.api.estimate``."""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.errors import ParameterError
from repro.params import BENCHMARKS, BenchmarkSpec, get_benchmark
from repro.workloads.builders import (
    boot_program,
    helr_program,
    resnet_boot_program,
)
from repro.workloads.ir import WorkloadProgram

#: Workload name -> zero-argument program builder.
WORKLOADS: Dict[str, Callable[[], WorkloadProgram]] = {
    "BOOT": boot_program,
    "RESNET_BOOT": resnet_boot_program,
    "HELR": helr_program,
}


def get_workload(name: str) -> WorkloadProgram:
    """Look up a workload program by (case-insensitive) name."""
    key = name.upper()
    if key not in WORKLOADS:
        raise ParameterError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        )
    return WORKLOADS[key]()


def list_workloads() -> List[str]:
    return sorted(WORKLOADS)


#: Everything an estimate request may name as its workload.
Workload = Union[str, BenchmarkSpec, WorkloadProgram]


def resolve_workload(
        workload: Workload) -> Union[BenchmarkSpec, WorkloadProgram]:
    """Resolve a name/spec to a :class:`BenchmarkSpec` or workload program.

    Names check Table III benchmarks first (``"ARK"``), then the named
    workload programs (``"BOOT"``, ``"RESNET_BOOT"``, ``"HELR"``).
    """
    if isinstance(workload, (BenchmarkSpec, WorkloadProgram)):
        return workload
    if not isinstance(workload, str):
        raise ParameterError(
            f"workload must be a name, BenchmarkSpec or WorkloadProgram, "
            f"got {type(workload).__name__}"
        )
    try:
        return get_benchmark(workload)
    except ParameterError:
        try:
            return get_workload(workload)
        except ParameterError:
            raise ParameterError(
                f"unknown workload {workload!r}; benchmarks: "
                f"{sorted(BENCHMARKS)}, composite workloads: "
                f"{list_workloads()}"
            ) from None
