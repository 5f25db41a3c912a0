"""Every module-level import in the package is used by its module, and
every module-level definition is used by the package.

A name imported and never read is a leftover: it keeps a deleted feature's
dependency alive and hides which module really needs what.  The one
exception is a name that the traced benchmark (``perfbench/run.py``)
patches on that module, since patching it there is the point of importing
it.  A package's ``__all__`` counts as a use of the names it lists.

Likewise a function or class that no module of the package reads is dead
code or a test helper living in the package: it belongs in the tests.  It
is kept when some ``__all__`` lists it, as public API, or when a click
decorator registers it as a command.
"""

import ast
import importlib.util
from pathlib import Path

import vptstream

PACKAGE = Path(vptstream.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _unused_imports(tree: ast.Module) -> list[str]:
    """``name:line`` of every module-level import that nothing in the
    module reads; ``from __future__`` imports are directives, not names."""
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _listed(tree)
    return [f"{name}:{line}" for name, line in imported.items() if name not in used]


def _listed(tree: ast.Module) -> set[str]:
    """The names a module's ``__all__`` lists."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {c.value for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def _unread_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """``module:name`` of every module-level def or class that no module
    reads by name, that no ``__all__`` lists and that no click decorator
    (``.command(...)`` or ``.group(...)``) registers."""
    read: set[str] = set()
    for tree in trees.values():
        read |= {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= _listed(tree)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            registered = any(
                isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                and d.func.attr in ("command", "group") for d in node.decorator_list)
            if node.name not in read and not registered:
                unread.append(f"{module}:{node.name}")
    return unread


def _traced_names() -> dict[Path, set[str]]:
    """Module file -> names the benchmark's tracer patches on that module."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    traced: dict[Path, set[str]] = {}
    for owner, attr, _span in run.eval_targets() + run.check_targets():
        path = getattr(owner, "__file__", None)
        if path is not None:
            traced.setdefault(Path(path).resolve(), set()).add(attr)
    return traced


def test_the_scan_finds_unused_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import collections.abc\n"
        "from typing import (Optional,\n"
        "                    Iterable as It)\n"
        "from .core import metrics, moves\n"
        "__all__ = ['moves']\n"
        "def f(x: Optional[int]) -> It:\n"
        "    return collections.abc.Sized\n")
    assert _unused_imports(tree) == ["os:2", "osp:3", "metrics:7"]


def test_no_module_imports_a_name_it_never_uses():
    assert len(SOURCES) >= 7, SOURCES
    traced = _traced_names()
    assert "well_matched_witnesses" in traced[PACKAGE / "streamability.py"]
    found = {}
    for path in SOURCES:
        unused = [entry for entry in _unused_imports(ast.parse(path.read_text()))
                  if entry.split(":")[0] not in traced.get(path, ())]
        if unused:
            found[path.name] = unused
    assert not found, found


def test_the_scan_finds_unread_definitions():
    trees = {
        "a": ast.parse(
            "import click\n"
            "__all__ = ['listed']\n"
            "def listed(): pass\n"
            "def helper(): pass\n"
            "def orphan(): helper()\n"
            "class Kept: pass\n"
            "class Dropped: pass\n"
            "@click.group()\n"
            "def main(): pass\n"
            "@main.command('run')\n"
            "def run_cmd(): pass\n"),
        "b": ast.parse(
            "from .a import Kept\n"
            "x: Kept = None\n"
            "def Dropped(): pass\n"),
    }
    assert _unread_definitions(trees) == ["a:orphan", "a:Dropped", "b:Dropped"]


def test_every_definition_is_read_by_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert _unread_definitions(trees) == []


def test_streamability_replays_use_no_assert_statement():
    # `python -O` compiles `assert` away; a replay written as one would then
    # accept any witness, so every check goes through `_require` instead
    tree = ast.parse((PACKAGE / "streamability.py").read_text())
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert lines == []
