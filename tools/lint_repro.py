"""Project-specific AST lint rules for the repro codebase.

Run as ``python -m tools.lint_repro`` from the repository root (CI does).
Five rules that generic linters don't know about:

* **REPRO001 mutable-default** — a function parameter defaulting to a
  mutable literal (``[]``, ``{}``, ``set()``) is shared across calls;
  every such default in this codebase has historically been a latent
  aliasing bug.
* **REPRO002 backend-run** — backends execute only through the plan
  path (``Plan.run`` / ``execute_plan``); calling ``<backend>.run(...)``
  directly skips plan validation, admission analysis and the serving
  caches.  Allowed only inside ``repro/api/backends.py`` itself.
* **REPRO003 coeff-loop** — a ``for _ in range(...)`` loop that
  subscripts arrays per iteration inside the :mod:`repro.rns` hot paths
  is a per-coefficient Python-int loop; those stages must be vectorized
  (the whole point of PR 4's batched kernel engine).
* **REPRO004 layer-import** — :mod:`repro.core`, :mod:`repro.rpu`,
  :mod:`repro.sched` and :mod:`repro.workloads` sit below
  :mod:`repro.api`, and :mod:`repro.core` and :mod:`repro.rpu` sit below
  :mod:`repro.sched` and :mod:`repro.workloads` as well; the serving
  tier (:mod:`repro.net`, :mod:`repro.serve`) sits above the functional
  path (:mod:`repro.ntt`, :mod:`repro.rns`, :mod:`repro.ckks`) and the
  estimate path (core, rpu, sched).  A module importing a layer above
  its own, at the top level or lazily inside a function, makes that
  layer a dependency of the one below (the solver once reached up for
  the API's schedule cache), and a serving edit a cost of every FHE
  session.
* **REPRO005 hand-codec** — a ``to_dict`` / ``from_dict`` (or
  ``*_to_dict`` / ``*_from_dict``) definition outside
  :mod:`repro.codec`.  Records are encoded by the one typed codec, so
  every payload follows one policy; the few kept entry points carry a
  pragma.

A finding is silenced by a same-line pragma naming its rule, e.g.::

    for j in range(n):  # lint: allow-coeff-loop

Exit status is 1 if any unsuppressed finding remains.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: rule id -> (pragma slug, one-line description)
RULES = {
    "REPRO001": ("mutable-default",
                 "mutable default argument is shared across calls"),
    "REPRO002": ("backend-run",
                 "direct backend .run() bypasses the plan/admission path"),
    "REPRO003": ("coeff-loop",
                 "per-coefficient Python loop in an rns/ hot path"),
    "REPRO004": ("layer-import",
                 "a lower layer imports one above it"),
    "REPRO005": ("hand-codec",
                 "a hand-rolled to_dict/from_dict outside repro.codec"),
}

#: Only this module may talk to backend objects directly.
BACKEND_RUN_ALLOWED = ("api/backends.py",)

#: REPRO003 applies to the RNS hot-path modules only.
COEFF_LOOP_PATHS = ("rns/",)

#: The serving tier: neither the functional nor the estimate path may
#: load it.
SERVING = ("repro.net", "repro.serve")

#: REPRO004: the layers above each lower package, which its modules may
#: not import.
LAYERS_ABOVE = {
    "ntt/": SERVING,
    "rns/": SERVING,
    "ckks/": SERVING,
    "core/": ("repro.api", "repro.sched", "repro.workloads") + SERVING,
    "rpu/": ("repro.api", "repro.sched", "repro.workloads") + SERVING,
    "sched/": ("repro.api",) + SERVING,
    "workloads/": ("repro.api",),
}

#: The one module that may define record codecs (REPRO005).
CODEC_MODULE = "codec.py"


class Finding(NamedTuple):
    path: Path
    line: int
    rule: str
    message: str

    def render(self) -> str:
        rel = self.path.relative_to(REPO_ROOT)
        return f"{rel}:{self.line}: {self.rule} {self.message}"


def _pragmas(source: str) -> dict:
    """Map line number -> set of rule slugs allowed on that line."""
    allowed: dict = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "# lint: allow-" not in text:
            continue
        slugs = {
            chunk.split()[0]
            for chunk in text.split("# lint: allow-")[1:]
        }
        allowed[lineno] = slugs
    return allowed


_MUTABLE_CALLS = {"list", "dict", "set"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
        and not node.args
        and not node.keywords
    )


def _check_mutable_defaults(tree: ast.AST) -> Iterator[Tuple[int, str, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield (default.lineno, "REPRO001",
                       f"in {node.name}(): use None and create inside")


def _receiver_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _receiver_name(node.func)
    return ""


def _check_backend_run(tree: ast.AST) -> Iterator[Tuple[int, str, str]]:
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "run"):
            continue
        receiver = _receiver_name(node.func.value)
        if "backend" in receiver.lower():
            yield (node.lineno, "REPRO002",
                   f"call {receiver}.run(...) through Plan.run()/"
                   f"execute_plan() instead")


def _subscripts_in_body(loop: ast.For) -> bool:
    for node in ast.walk(loop):
        if isinstance(node, ast.Subscript):
            return True
    return False


def _bounds_coefficient_axis(call: ast.Call) -> bool:
    """Whether a ``range(...)`` bound spans the coefficient axis.

    By repo convention the coefficient count is the local ``n`` (or a
    direct ``X.shape[1]`` read — residue matrices are ``(towers, n)``).
    Tower/limb loops (``range(len(moduli))``, ``range(limbs.shape[0])``)
    are O(L) over whole vectors and stay legal.
    """
    for arg in call.args:
        for node in ast.walk(arg):
            if isinstance(node, ast.Name) and node.id == "n":
                return True
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "shape"
                    and isinstance(node.slice, ast.Constant)
                    and node.slice.value == 1):
                return True
    return False


def _check_coeff_loops(tree: ast.AST) -> Iterator[Tuple[int, str, str]]:
    for node in ast.walk(tree):
        if not (isinstance(node, ast.For)
                and isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Name)
                and node.iter.func.id == "range"):
            continue
        if not _bounds_coefficient_axis(node.iter):
            continue
        if _subscripts_in_body(node):
            yield (node.lineno, "REPRO003",
                   "vectorize with numpy (or pragma if the per-element "
                   "python work is provably O(1) and unavoidable)")


def _imported_modules(tree: ast.AST,
                      rel: str) -> Iterator[Tuple[int, List[str]]]:
    """Per import statement (nested ones too): its line and the absolute
    dotted modules it may load.

    ``from pkg import name`` lists ``pkg.name`` as well as ``pkg``: the
    name may be a submodule.  Relative imports resolve against ``rel``,
    the module's path under ``src/repro``.
    """
    package = ("repro",) + tuple(rel.split("/")[:-1])
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package[:len(package) - node.level + 1]
                base = ".".join(parent + ((base,) if base else ()))
            yield node.lineno, [base] + [
                f"{base}.{alias.name}" for alias in node.names]


def _check_layer_imports(tree: ast.AST, rel: str,
                         above: Tuple[str, ...]) -> Iterator[Tuple[int, str, str]]:
    for lineno, modules in _imported_modules(tree, rel):
        for layer in above:
            if any(m == layer or m.startswith(layer + ".") for m in modules):
                yield (lineno, "REPRO004",
                       f"{rel} sits below {layer}; move what it needs down "
                       f"a layer instead of importing it")
                break


def _check_hand_codecs(tree: ast.AST) -> Iterator[Tuple[int, str, str]]:
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and re.search(r"(^|_)(to|from)_dict$", node.name)):
            yield (node.lineno, "REPRO005",
                   f"{node.name}(): encode and decode records with "
                   f"repro.codec.to_dict / from_dict")


def lint_source(source: str, rel: str,
                filename: Optional[str] = None) -> List[Tuple[int, str, str]]:
    """Unsuppressed ``(line, rule, message)`` findings of one module.

    ``rel`` is the module's posix path under ``src/repro``; it selects
    the path-scoped rules.
    """
    tree = ast.parse(source, filename=filename or rel)
    allowed = _pragmas(source)

    checks = [_check_mutable_defaults(tree)]
    if rel not in BACKEND_RUN_ALLOWED:
        checks.append(_check_backend_run(tree))
    if any(rel.startswith(prefix) for prefix in COEFF_LOOP_PATHS):
        checks.append(_check_coeff_loops(tree))
    for prefix, above in LAYERS_ABOVE.items():
        if rel.startswith(prefix):
            checks.append(_check_layer_imports(tree, rel, above))
    if rel != CODEC_MODULE:
        checks.append(_check_hand_codecs(tree))

    return [
        (lineno, rule, message)
        for check in checks
        for lineno, rule, message in check
        if RULES[rule][0] not in allowed.get(lineno, ())
    ]


def lint_file(path: Path) -> List[Finding]:
    rel = path.relative_to(SRC_ROOT).as_posix()
    return [
        Finding(path, lineno, rule, message)
        for lineno, rule, message in lint_source(path.read_text(), rel,
                                                 filename=str(path))
    ]


def main(argv: List[str] = None) -> int:
    paths = [Path(p) for p in (argv or [])] or sorted(SRC_ROOT.rglob("*.py"))
    findings: List[Finding] = []
    for path in paths:
        findings.extend(lint_file(path))
    for finding in sorted(findings):
        print(finding.render())
    checked = len(paths)
    if findings:
        print(f"\n{len(findings)} finding(s) in {checked} file(s)")
        return 1
    print(f"{checked} files clean "
          f"({', '.join(sorted(RULES))})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
