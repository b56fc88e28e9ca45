"""Every module-level import is used: a small stand-in for a linter's
unused-import rule, on the standard library's ast alone."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "scripts")


def _imported(tree: ast.Module):
    """(name bound, line) of each module-level import, nested blocks
    such as try or if included, but not imports inside functions or
    classes, and not `from __future__ import ...`."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                pending.extend(getattr(node, field, ()))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def _used(tree: ast.Module) -> set:
    """Names read anywhere, string annotations included, and the
    entries of __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value))
                         if isinstance(n, ast.Name)}
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree)
                  if name not in used)


def test_no_unused_module_imports():
    found = []
    for top in CHECKED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, name in unused_imports(path.read_text()):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import gcd, lcm\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    import array\n"
        "from typing import Any\n"
        "__all__ = ['lcm']\n"
        "def f(x: 'Any'):\n"
        "    import sys\n"
        "    return os.getcwd(), gcd(x, 2)\n")
    assert unused_imports(source) == [(3, "js"), (6, "numpy"), (8, "array")]
