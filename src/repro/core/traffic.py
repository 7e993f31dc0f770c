"""Traffic attribution: which HKS buffers cause the DRAM movement?

Splits a schedule's LOAD/STORE bytes by buffer class (input towers,
INTT outputs, BConv expansion, extended towers, accumulators, keys,
ModDown intermediates, outputs).  This is the quantified version of the
paper's Section IV prose — e.g. MP's traffic is dominated by the
``bc``/``ext`` expansion spills, OC's by the compulsory accumulator and
output movement.
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.core.taskgraph import TaskGraph

#: buffer-name prefix -> reported class.
_CLASSES = (
    ("in[", "input"),
    ("icoef[", "intt_out"),
    ("bc[", "bconv_out"),
    ("ext[", "extended"),
    ("acc", "accumulator"),
    ("evk[", "keys"),
    ("mdc", "moddown_intt"),
    ("mdb", "moddown_bconv"),
    ("mde", "moddown_ntt"),
    ("out", "output"),
)

_NAME_RE = re.compile(r"^(?:load|store|spill)\s+(.*)$")


def classify_buffer(name: str) -> str:
    """Map a buffer name (from task labels) to its traffic class."""
    for prefix, cls in _CLASSES:
        if name.startswith(prefix):
            return cls
    return "other"


def traffic_by_class(graph: TaskGraph) -> Dict[str, int]:
    """Bytes moved per buffer class (loads + stores combined)."""
    totals: Dict[str, int] = {}
    for index in graph.memory_order:
        match = _NAME_RE.match(graph.labels[index])
        cls = classify_buffer(match.group(1)) if match else "other"
        totals[cls] = totals.get(cls, 0) + graph.bytes_moved[index]
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def traffic_rows(graph: TaskGraph) -> List[Dict[str, object]]:
    """Report rows (class, MB, share) for one schedule."""
    totals = traffic_by_class(graph)
    grand = sum(totals.values()) or 1
    return [
        {
            "class": cls,
            "MB": round(byte_count / (1 << 20), 1),
            "share_%": round(100 * byte_count / grand, 1),
        }
        for cls, byte_count in totals.items()
    ]
