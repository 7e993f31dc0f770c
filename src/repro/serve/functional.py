"""Functional HKS requests as a servable, batchable workload.

The estimate path serves *pricing* questions; this module serves the
*functional* ones — actually running a hybrid-key-switch dataflow on real
RNS data (:mod:`repro.core.functional`).  A :class:`FunctionalRequest`
names everything needed to reproduce the computation from scratch in any
process: a parameter preset, a dataflow schedule, a level, a key seed and
a per-request input seed.  Requests are pure and deterministic, so — like
plans — they can travel as canonical JSON, be deduplicated by digest, be
re-executed after a worker death, and be verified bit-for-bit against an
in-process serial run.

The serving win is the cross-ciphertext batch axis: requests that share a
:attr:`~FunctionalRequest.group_key` (same preset/dataflow/level/key)
stack into one :class:`FunctionalBatch`, which executes all B inputs
through a single :func:`~repro.core.functional.execute_dataflow`
pass over the ``(B, L, N)`` stack — one kernel dispatch per schedule step for the whole group — while
distinct groups shard across :class:`~repro.serve.pool.ShardPool`
workers.  Results carry an output digest computed from the two output
polynomials, so batched, sharded and serial executions can be compared
exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError

if TYPE_CHECKING:
    from repro.ckks.context import CKKSContext
    from repro.ckks.keys import KeySwitchKey
    from repro.rns.poly import RNSPoly

#: Top-level JSON marker that routes a pool payload to this module
#: (plan payloads have only ``schedule``/``workload`` keys).
PAYLOAD_KIND = "functional_batch"


@dataclass(frozen=True)
class FunctionalRequest:
    """One user's functional HKS computation, reproducible anywhere.

    ``seed`` generates the request's input polynomial with its own
    ``default_rng``, so the data is independent of submission order and
    of which process executes it; ``key_seed`` generates the switching
    key, shared by everyone in the same :attr:`group_key` (a stacked
    pass applies one evk to the whole batch — mirroring a fleet of
    same-tenant ciphertexts).
    """

    preset: str
    dataflow: str = "OC"
    level: int = 0
    seed: int = 0
    key_seed: int = 0

    def __post_init__(self) -> None:
        from repro.core import DATAFLOWS

        if self.dataflow not in DATAFLOWS:
            raise ParameterError(
                f"unknown dataflow {self.dataflow!r}; "
                f"expected one of {sorted(DATAFLOWS)}"
            )
        if self.level < 0:
            raise ParameterError(f"level must be >= 0, got {self.level}")

    @property
    def group_key(self) -> Tuple[str, str, int, int]:
        """Requests with equal group keys stack into one batched pass."""
        return (self.preset, self.dataflow, self.level, self.key_seed)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "preset": self.preset,
            "dataflow": self.dataflow,
            "level": self.level,
            "seed": self.seed,
            "key_seed": self.key_seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FunctionalRequest":
        try:
            return cls(
                preset=str(data["preset"]),
                dataflow=str(data["dataflow"]),
                level=int(data["level"]),
                seed=int(data["seed"]),
                key_seed=int(data["key_seed"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(
                f"malformed functional request payload: {exc}"
            ) from exc


@dataclass(frozen=True)
class FunctionalResult:
    """The exact outcome of one request, compact enough for the wire.

    ``output_digest`` hashes the two output polynomials' residues, so a
    result computed in a stacked pass on a shard worker can be compared
    bit-for-bit against an in-process serial run.  ``batch_size``
    records how many requests shared the stacked pass that produced it
    (the occupancy the service's stats aggregate).
    """

    request_digest: str
    output_digest: str
    level: int
    batch_size: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "request_digest": self.request_digest,
            "output_digest": self.output_digest,
            "level": self.level,
            "batch_size": self.batch_size,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FunctionalResult":
        try:
            return cls(
                request_digest=str(data["request_digest"]),
                output_digest=str(data["output_digest"]),
                level=int(data["level"]),
                batch_size=int(data["batch_size"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(
                f"malformed functional result payload: {exc}"
            ) from exc


@lru_cache(maxsize=8)
def _world(
    preset: str, key_seed: int
) -> "Tuple[CKKSContext, KeySwitchKey]":
    """(context, switching key) for a preset — cached per process."""
    from repro.api.presets import get_preset
    from repro.ckks.context import CKKSContext
    from repro.ckks.keys import KeyGenerator

    context = CKKSContext(get_preset(preset))
    key = KeyGenerator(context, seed=key_seed).relinearization_key()
    return context, key


def _input_poly(
    context: "CKKSContext", request: FunctionalRequest
) -> "RNSPoly":
    """The request's input polynomial, from its own rng (order-free)."""
    from repro.rns.poly import RNSPoly

    return RNSPoly.random_uniform(
        context.level_basis(request.level), context.params.n,
        np.random.default_rng(request.seed),
    )


def _digest_pair(c0: "RNSPoly", c1: "RNSPoly") -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(c0.data).tobytes())
    h.update(np.ascontiguousarray(c1.data).tobytes())
    return h.hexdigest()


class FunctionalBatch:
    """A group of same-``group_key`` requests run as one stacked pass."""

    def __init__(self, requests: Sequence[FunctionalRequest]) -> None:
        requests = list(requests)
        if not requests:
            raise ParameterError("a functional batch needs >= 1 request")
        head = requests[0].group_key
        for i, request in enumerate(requests[1:], start=1):
            if request.group_key != head:
                raise ParameterError(
                    f"batch[{i}]: group key {request.group_key} != "
                    f"batch[0] group key {head} — requests must share "
                    f"preset/dataflow/level/key to stack"
                )
        self.requests = requests

    @property
    def name(self) -> str:
        preset, dataflow, level, _ = self.requests[0].group_key
        return (
            f"functional:{preset}:{dataflow}:L{level}"
            f"[B={len(self.requests)}]"
        )

    def to_json(self) -> str:
        return json.dumps({
            "payload_kind": PAYLOAD_KIND,
            "requests": [r.to_dict() for r in self.requests],
        }, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: str) -> "FunctionalBatch":
        try:
            data = json.loads(payload)
            requests = [
                FunctionalRequest.from_dict(r) for r in data["requests"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(
                f"malformed functional batch payload: {exc}"
            ) from exc
        return cls(requests)

    def run(self) -> List[FunctionalResult]:
        """Execute all requests through one stacked kernel pass."""
        from repro.core import get_dataflow
        from repro.core.functional import execute_dataflow
        from repro.faults import fault_point
        from repro.rns.poly import RNSPoly

        fault_point("functional.run", context=self.name)

        head = self.requests[0]
        context, key = _world(head.preset, head.key_seed)
        batch = RNSPoly.stack([
            _input_poly(context, request) for request in self.requests
        ])
        out0, out1 = execute_dataflow(
            get_dataflow(head.dataflow), context, batch, key, head.level
        )
        bsz = len(self.requests)
        return [
            FunctionalResult(
                request_digest=request.digest,
                output_digest=_digest_pair(out0.member(i), out1.member(i)),
                level=head.level,
                batch_size=bsz,
            )
            for i, request in enumerate(self.requests)
        ]

    def run_serial(self) -> List[FunctionalResult]:
        """Per-request reference: one looped pass each (for verification)."""
        from repro.core import get_dataflow
        from repro.core.functional import execute_dataflow

        results = []
        for request in self.requests:
            context, key = _world(request.preset, request.key_seed)
            out0, out1 = execute_dataflow(
                get_dataflow(request.dataflow), context,
                _input_poly(context, request), key, request.level,
            )
            results.append(FunctionalResult(
                request_digest=request.digest,
                output_digest=_digest_pair(out0, out1),
                level=request.level,
                batch_size=1,
            ))
        return results

    def run_to_dict(self) -> Dict[str, object]:
        """Worker-side entry: execute and wrap for the result queue."""
        return {"results": [r.to_dict() for r in self.run()]}

    def __repr__(self) -> str:
        return f"FunctionalBatch({self.name})"


def results_from_dict(payload: Dict[str, Any]) -> List[FunctionalResult]:
    """Decode a :meth:`FunctionalBatch.run_to_dict` payload."""
    try:
        rows = payload["results"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(
            f"malformed functional results payload: {exc}"
        ) from exc
    return [FunctionalResult.from_dict(row) for row in rows]


def group_requests(
    requests: Sequence[FunctionalRequest],
) -> List[FunctionalBatch]:
    """Coalesce requests into one :class:`FunctionalBatch` per group key,
    preserving first-seen group order (and request order within each)."""
    groups: "Dict[Tuple[str, str, int, int], List[FunctionalRequest]]" = {}
    for request in requests:
        groups.setdefault(request.group_key, []).append(request)
    return [FunctionalBatch(reqs) for reqs in groups.values()]
