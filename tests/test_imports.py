"""No module imports a name it never uses.

No linter ships with this repo, so this is a plain ``ast`` check in the
spirit of pyflakes' F401.  Every module under ``src/repro``, ``benchmarks``,
``scripts``, ``tests`` and ``examples`` is parsed; a module-level import
(including one nested in a module-level ``if``/``try``, such as an ``if
TYPE_CHECKING:`` block) is used when its bound name appears as a ``Name``
node anywhere in the module, as a name inside a string annotation, or in
``__all__``.  Imports in ``__init__.py`` files are re-exports and exempt, as
is any import statement carrying a ``# noqa: F401`` mark.

A second check keeps tracing in one place: within ``src/repro`` only the
tracing layer (``repro/obs``), the session lifecycle and the worker's cell
collection may import ``repro.obs.trace``.  A third keeps the worker pool
out of every import: ``repro.synth.parallel`` and ``multiprocessing`` load
only when a session starts a pool.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/repro", "benchmarks", "scripts", "tests", "examples")

_NOQA_F401 = re.compile(r"#\s*noqa:[^#\n]*\bF401\b")


def _module_imports(tree: ast.Module) -> Iterator[Tuple[ast.stmt, str]]:
    """``(statement, bound name)`` for each import outside any def or class."""

    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias.asname or alias.name
        elif isinstance(node, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                pending.extend(getattr(node, field, ()))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return used


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of each unused, unmarked module-level import."""

    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for statement, name in _module_imports(tree):
        span = lines[statement.lineno - 1 : statement.end_lineno]
        if name not in used and not any(_NOQA_F401.search(line) for line in span):
            found.append((statement.lineno, name))
    return sorted(found)


def _modules() -> Iterator[Path]:
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def test_checker_flags_unused_and_honours_exemptions():
    source = (
        "from typing import TYPE_CHECKING, List, Optional\n"
        "import os.path\n"
        "import json  # noqa: E402,F401\n"
        "from x import (\n"
        "    exported,\n"
        "    dropped,\n"
        ")\n"
        "if TYPE_CHECKING:\n"
        "    from y import Quoted, Unquoted\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Optional[Quoted]') -> None:\n"
        "    return os.path.join(a)\n"
    )
    assert unused_imports(source) == [(1, "List"), (4, "dropped"), (9, "Unquoted")]


def test_no_module_imports_a_name_it_never_uses():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _modules()
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)


#: The only modules of ``src/repro`` that may import the tracer: the tracing
#: layer itself, the session lifecycle and the worker's collection.
TRACING_MODULES = ("src/repro/obs/", "src/repro/synth/session.py", "src/repro/synth/parallel.py")


def imports_trace(source: str) -> bool:
    """Whether any import statement, at any depth, imports ``repro.obs.trace``."""

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("repro.obs.trace") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro.obs.trace":
                return True
            if node.module == "repro.obs" and any(a.name == "trace" for a in node.names):
                return True
    return False


def test_trace_guard_sees_every_import_form():
    assert imports_trace("from repro.obs import trace")
    assert imports_trace("def f():\n    from repro.obs.trace import TRACER")
    assert imports_trace("import repro.obs.trace as t")
    assert not imports_trace("from repro.obs import metrics, tool")
    assert not imports_trace("from repro.obs.metrics import Counters")


def test_only_the_tracing_layer_imports_the_tracer():
    """The engine holds no tracing code: it is traced from the wrap-site
    table of ``repro.obs.trace``, which only the session lifecycle and the
    worker's cell collection switch on and off."""

    offenders = [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src/repro").rglob("*.py"))
        if not str(path.relative_to(ROOT)).startswith(TRACING_MODULES)
        and imports_trace(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, "modules importing repro.obs.trace:\n" + "\n".join(offenders)


def test_importing_the_packages_loads_no_worker_pool():
    """Importing the engine, the benchmarks and the evaluation harnesses
    loads neither the pool module nor ``multiprocessing``."""

    code = (
        "import sys, repro.synth, repro.benchmarks, repro.evaluation\n"
        "print(sorted(m for m in ('repro.synth.parallel', 'multiprocessing')"
        " if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert ast.literal_eval(done.stdout) == []
