"""The frozen benchmark's trace targets must keep resolving.

``bench/run.py --trace`` wraps the entry point of every layer by name at
run time (``bench/tracing.py``: ``TARGETS`` and ``install``).  ``bench/``
cannot change in the PR that renames or deletes one of those names, so
this test resolves every target the way ``install`` does — without
patching anything — and fails in the tier-1 run, not in a traced run
nobody started.  One case per target, so the failing id names it;
``tests/test_bench_api.py`` holds the same names to their recorded
signatures, beside everything else of the library the harness reaches.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


TARGETS = sorted({
    (module_name, path)
    for rows in _tracing().TARGETS.values()
    for module_name, path, _span in rows
})


@pytest.mark.parametrize("module_name, path", TARGETS)
def test_target_resolves_the_way_install_does(module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attr = path.split(".")
        target = getattr(module, class_name).__dict__[attr]
        if isinstance(target, classmethod):
            target = target.__func__
    else:
        target = getattr(module, path)
    assert callable(target)
