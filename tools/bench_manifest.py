"""The frozen benchmark's view of the library, as a committed manifest.

``bench/`` is frozen (``BENCHMARK.json`` ``paths``): a change to the
library cannot edit it, so every library name the harness reaches must
keep resolving, with the same signature.  Some of those names are only
reached lazily — inside a workload's set-up, in the traced server, or as
a CLI string — so a rename fails the acceptance run with ``run_failed``
and nothing earlier.  This module writes down what the harness needs and
checks it against the live library:

* every ``repro.*`` name a ``bench/*.py`` file imports, and every name
  ``bench/tracing.py`` ``TARGETS`` patches (resolved the way its
  ``install()`` does, classmethods unwrapped), each with its
  ``inspect.signature``;
* the ``SERVER_ARGS`` argv the serve workloads start the server with;
* the ``repro.sched.COUNTERS`` keys the harness reads;
* the ``server`` / ``service`` keys of the ``status`` reply it reads.

Run ``PYTHONPATH=src python -m tools.bench_manifest`` from the
repository root to regenerate ``tests/golden/bench_api.json`` (only when
``bench/`` itself changes, or a library change is *meant* to move an
entry); ``tests/test_bench_api.py`` runs the live checks.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "bench"
MANIFEST = REPO_ROOT / "tests" / "golden" / "bench_api.json"

#: Subscripts of a value bound from ``<status reply>[key]`` are reads of
#: that half of the ``status`` reply.
STATUS_HALVES = ("server", "service")


def _rel(path: Path) -> str:
    return path.relative_to(REPO_ROOT).as_posix()


def _bench_files() -> List[Path]:
    return sorted(BENCH.glob("*.py"))


def _tracing_targets() -> List[Tuple[str, str]]:
    """``(module, attribute path)`` of every ``TARGETS`` row."""
    spec = importlib.util.spec_from_file_location(
        "_bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return sorted({(module_name, path)
                   for rows in module.TARGETS.values()
                   for module_name, path, _span in rows})


def _imported_names(tree: ast.AST) -> Iterator[Tuple[str, str]]:
    """``(module, name)`` of every ``repro`` import, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level and \
                (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    module, _, name = alias.name.rpartition(".")
                    yield module or alias.name, name


def _constant_strings(node: ast.AST) -> Optional[List[str]]:
    if isinstance(node, (ast.Tuple, ast.List)) and node.elts and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in node.elts):
        return [e.value for e in node.elts]
    return None


def _bound_name(node: ast.AST) -> Optional[str]:
    """The name a value is bound to: ``x`` or ``self.x``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _subjects(tree: ast.AST) -> Dict[str, str]:
    """Names that hold ``COUNTERS`` or one half of a ``status`` reply."""
    subjects = {"COUNTERS": "counters"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        pairs = []
        for target in node.targets:
            if isinstance(target, ast.Tuple) and \
                    isinstance(node.value, ast.Tuple):
                pairs += zip(target.elts, node.value.elts)
            else:
                pairs.append((target, node.value))
        for target, value in pairs:
            name = _bound_name(target)
            if name is None:
                continue
            if isinstance(value, ast.Name) and value.id == "COUNTERS":
                subjects[name] = "counters"
            elif isinstance(value, ast.Subscript) and \
                    isinstance(value.slice, ast.Constant) and \
                    value.slice.value in STATUS_HALVES:
                subjects[name] = value.slice.value
    return subjects


def _keys_read(tree: ast.AST) -> Dict[str, Set[str]]:
    """Per subject, the string keys read by subscript: literal keys, and
    loop variables over a literal tuple of strings."""
    subjects = _subjects(tree)
    found: Dict[str, Set[str]] = {}

    def visit(scope: ast.AST, loops: Dict[str, List[str]]) -> None:
        for node in ast.walk(scope):
            if not isinstance(node, ast.Subscript):
                continue
            subject = subjects.get(_bound_name(node.value) or "")
            if subject is None:
                continue
            if isinstance(node.slice, ast.Constant) and \
                    isinstance(node.slice.value, str):
                found.setdefault(subject, set()).add(node.slice.value)
            elif isinstance(node.slice, ast.Name) and node.slice.id in loops:
                found.setdefault(subject, set()).update(loops[node.slice.id])

    visit(tree, {})
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            keys = _constant_strings(node.iter)
            if keys:
                for statement in node.body:
                    visit(statement, {node.target.id: keys})
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            loops = {}
            for generator in node.generators:
                keys = _constant_strings(generator.iter)
                if keys and isinstance(generator.target, ast.Name):
                    loops[generator.target.id] = keys
            if loops:
                parts = [node.key, node.value] \
                    if isinstance(node, ast.DictComp) else [node.elt]
                for part in parts:
                    visit(part, loops)
    return found


def _server_args(tree: ast.AST) -> Optional[List[str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SERVER_ARGS"
                for t in node.targets):
            return list(ast.literal_eval(node.value))
    return None


# -- resolving and describing a name ----------------------------------------------

def resolve(module_name: str, path: str) -> object:
    """The object ``bench/`` reaches by ``module_name`` and ``path``.

    A bare name resolves like ``from module import name`` (an attribute,
    else a submodule); ``Class.attr`` resolves like ``tracing.install()``:
    from the class ``__dict__``, a classmethod unwrapped.
    """
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attr = path.split(".")
        target = getattr(module, class_name).__dict__[attr]
        return target.__func__ if isinstance(target, classmethod) else target
    try:
        return getattr(module, path)
    except AttributeError:
        return importlib.import_module(f"{module_name}.{path}")


def describe(obj: object) -> Dict[str, Optional[str]]:
    """Type name, and the signature of anything callable."""
    kind = "module" if inspect.ismodule(obj) else \
        "class" if inspect.isclass(obj) else \
        "function" if callable(obj) else type(obj).__name__
    signature = None
    if kind in ("class", "function"):
        signature = str(inspect.signature(obj))
    return {"kind": kind, "signature": signature}


def _describe_or_error(key: str) -> Dict[str, Optional[str]]:
    module_name, path = key.split(":")
    try:
        return describe(resolve(module_name, path))
    except Exception as exc:  # noqa: BLE001 - recorded, and check() names it
        return {"kind": "unresolved", "signature": f"{type(exc).__name__}: {exc}"}


# -- the manifest -----------------------------------------------------------------

def build() -> dict:
    """Walk ``bench/*.py`` and describe what it needs from the library."""
    needed: Dict[str, Set[str]] = {}
    server_args: Optional[Tuple[str, List[str]]] = None
    keys: Dict[str, Dict[str, Set[str]]] = {}
    for path in _bench_files():
        rel = _rel(path)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        for module_name, name in _imported_names(tree):
            needed.setdefault(f"{module_name}:{name}", set()).add(rel)
        argv = _server_args(tree)
        if argv is not None:
            server_args = (rel, argv)
        for subject, read in _keys_read(tree).items():
            keys.setdefault(subject, {})
            for key in read:
                keys[subject].setdefault(key, set()).add(rel)
    tracing = _rel(BENCH / "tracing.py")
    for module_name, path in _tracing_targets():
        needed.setdefault(f"{module_name}:{path}", set()).add(tracing)

    def listed(by_key: Dict[str, Set[str]]) -> Dict[str, List[str]]:
        return {key: sorted(files) for key, files in sorted(by_key.items())}

    return {
        "names": {
            key: {**_describe_or_error(key), "needed_by": sorted(files)}
            for key, files in sorted(needed.items())
        },
        "server_args": {"argv": server_args[1],
                        "needed_by": [server_args[0]]} if server_args else None,
        "counters": listed(keys.get("counters", {})),
        "status": {half: listed(keys.get(half, {})) for half in STATUS_HALVES},
    }


def _serve_help() -> str:
    from repro.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
        main(["serve", "--help"])
    return out.getvalue()


def check(manifest: dict) -> List[str]:
    """Re-derive every entry from the live library; one line per problem,
    naming the entry and the bench file(s) that need it."""
    problems = []

    def problem(entry: str, files: List[str], what: str) -> None:
        problems.append(f"{entry} (needed by {', '.join(files)}): {what}")

    for key, entry in manifest["names"].items():
        live = _describe_or_error(key)
        if live != {"kind": entry["kind"], "signature": entry["signature"]}:
            problem(key, entry["needed_by"],
                    f"recorded {entry['kind']} {entry['signature']}, "
                    f"live {live['kind']} {live['signature']}")

    server = manifest["server_args"]
    if server is not None:
        help_text = _serve_help()
        for flag in server["argv"]:
            if flag.startswith("--") and flag not in help_text:
                problem(f"SERVER_ARGS {flag}", server["needed_by"],
                        "not in `python -m repro serve --help`")

    from repro.sched import COUNTERS

    for key, files in manifest["counters"].items():
        if key not in COUNTERS:
            problem(f"repro.sched.COUNTERS[{key!r}]", files, "no such key")

    from repro.net.server import ServerStats
    from repro.serve.service import ServiceStats

    stats = {"server": ServerStats, "service": ServiceStats}
    for half, by_key in manifest["status"].items():
        row = stats[half]().as_row()
        for key, files in by_key.items():
            if key not in row:
                problem(f"status[{half!r}][{key!r}]", files,
                        f"not in {stats[half].__name__}().as_row()")
    return problems


def render(manifest: dict) -> str:
    return json.dumps(manifest, indent=1, sort_keys=True) + "\n"


def main() -> int:
    MANIFEST.write_text(render(build()), encoding="utf-8")
    print(f"wrote {_rel(MANIFEST)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
