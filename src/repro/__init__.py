"""repro — a reproduction of CiFlow (ISPASS 2024).

CiFlow analyzes the dataflow of hybrid key switching (HKS), the dominant
kernel of CKKS homomorphic encryption, and proposes three schedules —
Max-Parallel, Digit-Centric and Output-Centric — evaluated on the RPU
vector processor.  This package implements the full stack from scratch.

**Start with :mod:`repro.api`** — it is the documented surface::

    from repro import FHESession

    session = FHESession.create("n10_fast")
    ct = session.encrypt([1.0, 2.0, 3.0])
    print((ct * ct + 0.5).decrypt()[:3])
    report = session.estimate("ARK", backend="rpu", schedule="OC")

The research layers remain available underneath:

* :mod:`repro.ntt` / :mod:`repro.rns` — modular arithmetic, negacyclic
  NTT, RNS polynomials and fast basis conversion;
* :mod:`repro.ckks` — a working full-RNS CKKS scheme whose hybrid key
  switching is the algorithm under study;
* :mod:`repro.core` — the paper's contribution: HKS stage algebra, the
  three dataflow schedulers over a shared on-chip memory model, functional
  execution, and traffic/AI analytics;
* :mod:`repro.rpu` — the RPU machine model and the dual-queue decoupled
  task simulator;
* :mod:`repro.experiments` — regenerates every table and figure of the
  paper's evaluation (``python -m repro.experiments``);
* :mod:`repro.serve` — the multi-session serving layer: batch, dedup,
  cache and shard :class:`~repro.api.plan.Plan` executions
  (``python -m repro serve`` puts it on a socket).
"""

from repro.api import (
    CipherVector,
    FHESession,
    Plan,
    RunReport,
    build_plan,
    estimate,
    execute_plan,
    get_backend,
    list_backends,
    register_backend,
)
from repro.ckks import (
    CKKSContext,
    CKKSParams,
    Ciphertext,
    Decryptor,
    Encoder,
    Encryptor,
    Evaluator,
    KeyGenerator,
    key_switch,
)
from repro.core import (
    DATAFLOWS,
    DataflowConfig,
    HKSShape,
    TaskGraph,
    analyze_dataflow,
    get_dataflow,
)
from repro.params import BENCHMARKS, BenchmarkSpec, get_benchmark
from repro.rpu import RPUConfig, RPUSimulator

__version__ = "1.1.0"

__all__ = [
    "BENCHMARKS",
    "BenchmarkSpec",
    "CKKSContext",
    "CKKSParams",
    "Ciphertext",
    "CipherVector",
    "DATAFLOWS",
    "DataflowConfig",
    "Decryptor",
    "Encoder",
    "Encryptor",
    "Evaluator",
    "FHESession",
    "HKSShape",
    "KeyGenerator",
    "RPUConfig",
    "RPUSimulator",
    "RunReport",
    "TaskGraph",
    "analyze_dataflow",
    "estimate",
    "get_backend",
    "get_benchmark",
    "get_dataflow",
    "key_switch",
    "list_backends",
    "register_backend",
]
