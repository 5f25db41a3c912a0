"""No function in the package calls itself.

Inputs nest as deep as the user likes (a height of several thousand is an
ordinary document), so every walk over a run DAG, a stack or a summary must
keep its own stack; a recursive call would end in ``RecursionError`` on deep
inputs.  This scans the sources, so it also covers code no test reaches.
"""

import ast
from pathlib import Path

import vptstream

SOURCES = sorted(Path(vptstream.__file__).parent.glob("*.py"))


def _self_calls(tree: ast.Module) -> list[str]:
    """``name:line`` of every call a function makes to itself: a function
    by its bare name, a method as ``self.<name>``.  ``super().__init__``
    and same-named methods of other objects (``state.scan.step`` inside
    ``step``) are other functions."""
    found = []
    scopes = [(node, False) for node in tree.body]
    while scopes:
        node, in_class = scopes.pop()
        if isinstance(node, ast.ClassDef):
            scopes.extend((child, True) for child in node.body)
            continue
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(node):
            if inner is not node and isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((inner, False))
            if not isinstance(inner, ast.Call):
                continue
            func = inner.func
            if in_class:
                hit = (isinstance(func, ast.Attribute) and func.attr == node.name
                       and isinstance(func.value, ast.Name) and func.value.id == "self")
            else:
                hit = isinstance(func, ast.Name) and func.id == node.name
            if hit:
                found.append(f"{node.name}:{inner.lineno}")
    return found


def test_the_scan_finds_self_calls():
    tree = ast.parse(
        "def walk(n):\n"
        "    return walk(n - 1)\n"
        "class Dag:\n"
        "    def visit(self, n):\n"
        "        self.visit(n)\n"
        "    def step(self, state):\n"
        "        super().__init__()\n"
        "        return state.scan.step()\n"
        "def outer():\n"
        "    def inner():\n"
        "        inner()\n"
        "    return inner\n")
    assert sorted(_self_calls(tree)) == ["inner:11", "visit:5", "walk:2"]


def test_no_function_in_the_package_calls_itself():
    assert len(SOURCES) >= 7, SOURCES
    found = {path.name: calls for path in SOURCES
             if (calls := _self_calls(ast.parse(path.read_text())))}
    assert not found, found
