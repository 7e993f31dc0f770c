"""Span recorder for the traced run, and the layer ladders built from it.

Nothing under ``src/`` is edited: for the traced run only, the public
entry point of each layer is wrapped at run time.  A function that other
modules imported by value is replaced in every loaded ``repro`` module
that holds it, so there is still one patch point per function.

A span is ``(id, parent, op, name, start, end)``: ``parent`` is the span
that was open in the same task or thread when it started, ``op`` the id
of the root span opened by the harness around one op.  Spans stay in
memory until the process reports them.  A layer's busy time is its self
time: the span minus the part of it its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

_current: "contextvars.ContextVar[Optional[Tuple[int, int]]]" = \
    contextvars.ContextVar("bench_span", default=None)


class Recorder:
    def __init__(self, process: str):
        self.process = process
        self.spans: List[dict] = []
        self._next = 0

    def _open(self, as_op: bool) -> Tuple[int, Optional[int], Optional[int], object]:
        parent = _current.get()
        self._next += 1
        span_id = self._next
        op = span_id if as_op else (parent[1] if parent else None)
        token = _current.set((span_id, op))
        return span_id, (parent[0] if parent else None), op, token

    def _close(self, name: str, span_id: int, parent: Optional[int],
               op: Optional[int], token: object, start: float) -> None:
        end = time.perf_counter()
        _current.reset(token)
        self.spans.append({"process": self.process, "id": span_id,
                           "parent": parent, "op": op, "name": name,
                           "start": start, "end": end})

    @contextmanager
    def op(self, name: str):
        """Root span the harness opens around one op."""
        span_id, parent, op, token = self._open(as_op=True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, span_id, parent, op, token, start)

    def wrap(self, fn, name: str):
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                span_id, parent, op, token = self._open(as_op=False)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(name, span_id, parent, op, token, start)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span_id, parent, op, token = self._open(as_op=False)
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(name, span_id, parent, op, token, start)
        return traced


# -- what is wrapped, per process kind ------------------------------------------
#
# (module, attribute path, span name).  "Class.method" paths patch the
# class; bare names are module-level functions.

_FUNCTIONAL = (
    ("repro.ntt.batch", "BatchNTT.forward", "ntt.forward"),
    ("repro.ntt.batch", "BatchNTT.inverse", "ntt.inverse"),
    ("repro.rns.bconv", "BasisConverter.convert", "rns.bconv"),
    ("repro.ckks.keyswitch", "mod_up_all", "ckks.mod_up"),
    ("repro.ckks.keyswitch", "mod_up_all_batch", "ckks.mod_up"),
    ("repro.ckks.keyswitch", "apply_evk", "ckks.apply_evk"),
    ("repro.ckks.keyswitch", "apply_evk_batch", "ckks.apply_evk"),
    ("repro.ckks.keyswitch", "mod_down_pair", "ckks.mod_down"),
    ("repro.ckks.keyswitch", "mod_down_pair_batch", "ckks.mod_down"),
    ("repro.ckks.evaluator", "Evaluator.rescale", "ckks.rescale"),
    ("repro.ckks.batch", "BatchEvaluator.rescale", "ckks.rescale"),
    ("repro.ckks.bootstrap.pipeline", "Bootstrapper.bootstrap", "ckks.boot"),
    ("repro.ckks.bootstrap.modraise", "mod_raise", "ckks.boot.modraise"),
    ("repro.ckks.linear", "LinearTransform.evaluate", "ckks.linear"),
)

_MODEL = (
    ("repro.analysis.registry", "analyze", "analysis.verify"),
    ("repro.core.dataflow", "Dataflow.build_with_stats", "core.graph_build"),
    ("repro.rpu.simulator", "RPUSimulator.simulate", "rpu.simulate"),
    ("repro.sched.solver", "solve", "sched.solve"),
    ("repro.sched.list_scheduler", "reorder_for_latency", "sched.reorder"),
    ("repro.cache", "store_json", "cache.store"),
    ("repro.cache", "load_json", "cache.load"),
)

_CODECS = (
    ("repro.api.plan", "Plan.to_dict", "api.plan_codec"),
    ("repro.api.plan", "Plan.from_dict", "api.plan_codec"),
    ("repro.api.plan", "report_to_dict", "api.report_codec"),
    ("repro.api.plan", "report_from_dict", "api.report_codec"),
    ("repro.net.protocol", "encode_frame", "net.frame_codec"),
    # The one private name: read_frame() awaits the socket and then calls
    # this, and only the parse is codec time.
    ("repro.net.protocol", "_parse_body", "net.frame_codec"),
)

TARGETS = {
    "functional": _FUNCTIONAL,
    "estimate": _MODEL + (
        ("repro.api.plan", "build_plan", "api.plan_build"),
        ("repro.api.plan", "Plan.run", "api.plan_run"),
    ),
    "client": _CODECS + (
        ("repro.net.client", "EstimateClient.estimate", "net.client.estimate"),
        ("repro.net.client", "EstimateClient.submit", "net.client.submit"),
        ("repro.net.client", "EstimateClient.gather", "net.client.gather"),
    ),
    "server": _CODECS + _MODEL + (
        ("repro.net.server", "EstimateServer._handle_frame", "net.server.frame"),
        ("repro.net.server", "EstimateServer.admit_and_submit", "net.server.admit"),
        ("repro.serve.service", "EstimateService.admit", "serve.admit"),
        ("repro.serve.aio", "AsyncEstimateService.estimate", "serve.aio"),
        ("repro.serve.service", "EstimateService.gather", "serve.gather"),
        ("repro.serve.pool", "ShardPool.run_plans", "serve.pool"),
        ("repro.api.plan", "Plan.run", "api.plan_run"),
    ),
}


def install(targets: str, process: Optional[str] = None) -> Recorder:
    """Wrap the entry points of ``targets`` in this process."""
    recorder = Recorder(process or targets)
    for module_name, path, span_name in TARGETS[targets]:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(recorder.wrap(raw.__func__, span_name))
            else:
                traced = recorder.wrap(raw, span_name)
            setattr(owner, attr, traced)
            continue
        original = getattr(module, path)
        traced = recorder.wrap(original, span_name)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)
    return recorder


# -- ladders --------------------------------------------------------------------

def self_times(spans: Sequence[dict]) -> Dict[Tuple[str, int], float]:
    """Self time of every span, keyed by (process, id)."""
    out = {(s["process"], s["id"]): s["end"] - s["start"] for s in spans}
    for span in spans:
        parent = (span["process"], span["parent"])
        if span["parent"] is not None and parent in out:
            out[parent] -= span["end"] - span["start"]
    return {key: max(0.0, value) for key, value in out.items()}


def by_name(spans: Sequence[dict], process: Optional[str] = None,
            ) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total duration and total self time (s)."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span in spans:
        if process is not None and span["process"] != process:
            continue
        row = table[span["name"]]
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += selfs[(span["process"], span["id"])]
    return dict(table)


def boot_stages(spans: Sequence[dict]) -> Dict[str, float]:
    """Seconds per bootstrap stage, summed over all bootstraps.

    Read off the order of the spans under each ``ckks.boot`` span:
    ModRaise is its own span, the linear transforms come in two groups
    (CoeffToSlot, SlotToCoeff), and EvalMod is the widest gap between
    two consecutive transforms.
    """
    children: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {"modraise": 0.0, "cts": 0.0, "evalmod": 0.0, "stc": 0.0}
    for boot in (s for s in spans if s["name"] == "ckks.boot"):
        kids = sorted(children[boot["id"]], key=lambda s: s["start"])
        raised = [s for s in kids if s["name"] == "ckks.boot.modraise"]
        linear = [s for s in kids if s["name"] == "ckks.linear"]
        if not raised or len(linear) < 2:
            continue
        # The widest gap between consecutive transforms is EvalMod.
        gaps = [(linear[i + 1]["start"] - linear[i]["end"], i)
                for i in range(len(linear) - 1)]
        _, split = max(gaps)
        cts_end = linear[split]["end"]
        stc_start = linear[split + 1]["start"]
        out["modraise"] += raised[0]["end"] - boot["start"]
        out["cts"] += cts_end - raised[0]["end"]
        out["evalmod"] += stc_start - cts_end
        out["stc"] += boot["end"] - stc_start
    return out


@dataclass
class Ladder:
    """Where one op's wall time went: ms per op by named layer, then what
    the named layers leave over, under a name of its own."""

    wall_ms: float
    rows: List[Tuple[str, float]]
    remainder_name: str
    #: Context rows that overlap the ladder's rows and are not added up.
    notes: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def remainder_ms(self) -> float:
        return self.wall_ms - sum(ms for _name, ms in self.rows)

    def value(self, name: str) -> float:
        if name == self.remainder_name:
            return self.remainder_ms
        return dict(self.rows)[name]

    def render(self, title: str) -> str:
        def line(name: str, ms: float, share: bool = True) -> str:
            shown = f"{ms / self.wall_ms * 100:6.1f} %" if share else ""
            return f"  {name:<48s} {ms:10.3f} ms {shown}"

        lines = [f"-- {title}: mean ms per op over the traced slices --"]
        lines += [line(name, ms) for name, ms in self.rows]
        lines.append(line(self.remainder_name, self.remainder_ms))
        lines.append(line("op wall time", self.wall_ms))
        lines += [line(f"  (meanwhile) {name}", ms, share=False)
                  for name, ms in self.notes]
        return "\n".join(lines)
