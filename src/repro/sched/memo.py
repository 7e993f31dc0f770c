"""The model memos: one bound and one registry for the estimate chain.

Each pure step of an estimate (decision -> graph -> profile -> simulate ->
report; :mod:`repro.api.backends` names the owner of each) is memoised
through :func:`model_memo`.  Registering here is what lets
:func:`repro.sched.clear_memos` empty them all without this package
importing the API layer above it.
"""

from __future__ import annotations

from functools import _lru_cache_wrapper, lru_cache
from typing import Any, Callable, List, TypeVar

_T = TypeVar("_T")

#: Entries of every model memo.  Measured working set: the largest single
#: plan (``RESNET_BOOT`` with ``schedule="SOLVER"`` on ``auto``, streamed
#: evks at a memory-bound bandwidth) touches 57 schedules (13 specs x the
#: three hand-written anchors, plus 18 generic candidates), 13 re-listed
#: variants, 70 simulations (one per graph), 13 solves, 59 profiles,
#: 46 point-wise graphs and 15 mix reports; four times the largest of
#: those, so a sweep's MP/DC/OC/SOLVER quartet or a few tenants' plans
#: in turn never evict each other, while a long-lived server stops
#: pinning every graph it ever built.  The bound counts graphs, not
#: keys' worth of graphs: no entry holds more than one (the store's
#: cross-budget slots, ``solver._evict_free``, hold one evict-free graph
#: or none), and a graph served to several budgets is one object under
#: each of their keys.  The graph-keyed memos
#: (simulate, profile, digest) share the store's bound because an entry
#: whose graph the store has evicted can never be asked for again — it
#: would only keep the graph alive.  An evicted entry costs one rebuild
#: (an evicted solve, one disk read).
MODEL_CACHE_ENTRIES = 4 * 70

#: Every :func:`model_memo` function, in definition order.
MODEL_MEMOS: List["_lru_cache_wrapper[Any]"] = []


def model_memo(fn: Callable[..., _T]) -> "_lru_cache_wrapper[_T]":
    """LRU-memoise one step of the estimate chain under the shared bound."""
    cached = lru_cache(maxsize=MODEL_CACHE_ENTRIES)(fn)
    MODEL_MEMOS.append(cached)
    return cached
