"""From one traced workload to its per-layer metrics and its printed ladder.

Times are per op (a plan, a bootstrap, a batch pass of 8; for the serve
workloads a request, of which a burst holds four), as means, because
means add up: a ladder's rows plus its explicit remainder equal the
traced op wall time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import tracing
from tracing import Ladder

_KERNELS = ("ntt.forward", "ntt.inverse", "rns.bconv", "ckks.mod_up",
            "ckks.apply_evk", "ckks.mod_down", "ckks.rescale")
_MODEL = ("api.plan_build", "analysis.verify", "core.graph_build",
          "rpu.simulate", "sched.solve", "sched.reorder",
          "cache.store", "cache.load")
_CLIENT_LEAVES = ("api.plan_codec", "api.report_codec", "net.frame_codec")


def _ops(spans: Sequence[dict]) -> List[dict]:
    return [s for s in spans if s["process"] != "server" and s["op"] == s["id"]]


def _per_op(table: Dict[str, Dict[str, float]], name: str, field: str,
            ops: int) -> float:
    return table.get(name, {}).get(field, 0.0) / ops if ops else 0.0


def functional(spans: Sequence[dict]) -> Tuple[Dict[str, float], Ladder]:
    ops = _ops(spans)
    count = len(ops)
    table = tracing.by_name(spans)
    wall_ms = sum(s["end"] - s["start"] for s in ops) * 1e3 / count
    ladder = Ladder(
        wall_ms,
        [(name, _per_op(table, name, "self_s", count) * 1e3)
         for name in _KERNELS],
        "api.python_overhead",
    )
    metrics = {
        "ntt.forward_ms": ladder.value("ntt.forward"),
        "ntt.inverse_ms": ladder.value("ntt.inverse"),
        "ntt.transforms": _per_op(table, "ntt.forward", "calls", count)
        + _per_op(table, "ntt.inverse", "calls", count),
        "rns.bconv_ms": ladder.value("rns.bconv"),
        "rns.bconv_calls": _per_op(table, "rns.bconv", "calls", count),
        "ckks.mod_up_ms": ladder.value("ckks.mod_up"),
        "ckks.apply_evk_ms": ladder.value("ckks.apply_evk"),
        "ckks.mod_down_ms": ladder.value("ckks.mod_down"),
        # Every hybrid key switch, hoisted or not, applies the evk once.
        "ckks.key_switches": _per_op(table, "ckks.apply_evk", "calls", count),
        "ckks.rescale_ms": ladder.value("ckks.rescale"),
        "ckks.rescales": _per_op(table, "ckks.rescale", "calls", count),
        "api.python_overhead_ms": ladder.value("api.python_overhead"),
    }
    if "ckks.boot" in table:
        for stage, seconds in tracing.boot_stages(spans).items():
            metrics[f"ckks.boot.{stage}_ms"] = seconds * 1e3 / count
    return metrics, ladder


def estimate(spans: Sequence[dict]) -> Tuple[Dict[str, float], Ladder]:
    ops = _ops(spans)
    count = len(ops)
    table = tracing.by_name(spans)
    wall_ms = sum(s["end"] - s["start"] for s in ops) * 1e3 / count
    return {}, Ladder(
        wall_ms,
        [(name, _per_op(table, name, "self_s", count) * 1e3)
         for name in _MODEL],
        "api.backends + workloads",
    )


def serve(spans: Sequence[dict]) -> Tuple[Dict[str, float], Ladder]:
    """Per request (one ``EstimateClient.estimate``; a burst is four):
    client leaf work, then the server's share, then what is left — the
    wire, event-loop wake-ups and the two processes' scheduling.

    The server's share of a request's latency is the time its two frames
    were being handled: the parse of each inbound frame, then the frame
    handler until its reply is written.  It is broken down by the self
    time of the spans nested in the handlers.  A gather handler mostly
    waits for its ticket; what runs meanwhile in other tasks and threads
    (the service flush, a pool dispatch) is listed under it, not added.
    """
    requests = [s for s in spans if s["name"] == "net.client.estimate"]
    count = len(requests)
    wall_ms = sum(s["end"] - s["start"] for s in requests) * 1e3 / count
    client = tracing.by_name(spans, "client")
    # The traced server also served the warm-up; keep what it did once the
    # traced slices began.  (perf_counter is CLOCK_MONOTONIC on Linux: one
    # clock for both processes.)
    first = min(s["start"] for s in requests)
    server_spans = [s for s in spans
                    if s["process"] == "server" and s["start"] >= first]
    selfs = tracing.self_times(server_spans)
    by_id = {s["id"]: s for s in server_spans}

    def root_of(span: dict) -> dict:
        while span["parent"] in by_id:
            span = by_id[span["parent"]]
        return span

    rows = [(f"client {name}", _per_op(client, name, "self_s", count) * 1e3)
            for name in _CLIENT_LEAVES]
    nested: Dict[str, float] = defaultdict(float)
    for span in server_spans:
        root = root_of(span)
        if root["name"] == "net.server.frame":
            label = ("server handler (await ticket, queue, loop)"
                     if span is root else f"server {span['name']}")
        elif span is root and span["name"] == "net.frame_codec":
            # Inbound frames are parsed in the connection's reader task,
            # before the handler task exists.
            label = "server net.frame_codec"
        else:
            continue
        nested[label] += selfs[("server", span["id"])]
    rows += [(label, seconds * 1e3 / count)
             for label, seconds in sorted(nested.items())]
    server = tracing.by_name(server_spans)
    notes = [(f"server {name}", _per_op(server, name, "total_s", count) * 1e3)
             for name in ("serve.aio", "serve.gather", "serve.admit",
                          "serve.pool", "api.plan_run") if name in server]
    return {}, Ladder(wall_ms, rows, "net remainder (wire, wake-ups)", notes)


BUILDERS = {
    "sweep_cold": estimate,
    "serve_hot": serve,
    "serve_churn": serve,
    "fhe_boot": functional,
    "fhe_hks_batch": functional,
}


def overhead_pct(untraced: Sequence[dict], traced: Sequence[dict]) -> float:
    before = statistics.mean(s["op_p50_ms"] for s in untraced)
    after = statistics.mean(s["op_p50_ms"] for s in traced)
    return (after / before - 1.0) * 100.0
