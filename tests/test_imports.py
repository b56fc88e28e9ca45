"""Every module-level import is used: a small stand-in for a linter's
unused-import rule, on the standard library's ast alone.  Every
module-level private function or class of codimlab is read somewhere in
src, the same kind of stand-in for a dead-code rule, and every public
one, like every method, has a production reader.  And every name the
benchmark's tracer hooks still exists in codimlab."""
import ast
import types
from collections import Counter
from pathlib import Path

import codimlab

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


def _read_names(trees) -> set:
    """Every name the trees read, as a name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_private_definitions(sources: dict) -> list:
    """(module, line, name) of each module-level function or class
    named _name, over {module: source}, that no module reads, as a name
    or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _read_names(trees.values())
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in read)


def test_no_unread_private_definitions():
    src = ROOT / "src"
    found = unread_private_definitions({
        str(path.relative_to(ROOT)): path.read_text()
        for path in sorted(src.rglob("*.py"))})
    assert not found, "unread private definitions:\n" + "\n".join(
        f"{module}:{line}: {name}" for module, line, name in found)


def test_checker_flags_only_unread_private_names():
    sources = {
        "a": ("def _called():\n"
              "    return 1\n"
              "def _by_attribute():\n"
              "    pass\n"
              "def _dead():\n"
              "    return _called()\n"
              "class _Dead:\n"
              "    def _method(self):\n"
              "        pass\n"
              "class _Kept:\n"
              "    pass\n"
              "def __dunder__():\n"
              "    pass\n"
              "def public():\n"
              "    def _inner():\n"
              "        pass\n"
              "    return _inner\n"),
        "b": ("from a import _Kept\n"
              "import a\n"
              "x = a._by_attribute, _Kept()\n"),
    }
    assert unread_private_definitions(sources) == [
        ("a", 5, "_dead"), ("a", 7, "_Dead")]


def _tracing() -> types.ModuleType:
    """benchmark/tracing.py, executed from its source, not imported, so
    nothing is written under benchmark/."""
    path = ROOT / "benchmark" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         tracing.__dict__)
    return tracing


def _src_and_production_readers():
    """({path: source} over src, [source] of scripts/, benchmark/ and
    the acceptance gate)."""
    readers = [*(ROOT / "scripts").rglob("*.py"),
               *(ROOT / "benchmark").rglob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    return ({str(p.relative_to(ROOT)): p.read_text()
             for p in sorted((ROOT / "src").rglob("*.py"))},
            [p.read_text() for p in readers])


def test_every_benchmark_hook_resolves():
    """benchmark/tracing.py skips a hook whose target is gone, so a
    layer renamed away in src would drop out of the per-layer report
    without an error."""
    tracing = _tracing()
    missing = [name for name, module, target, _ in tracing.HOOKS
               if tracing._resolve(module, target) is None]
    assert tracing.HOOKS and not missing, missing


def unread_public_definitions(sources: dict, readers, listed) -> list:
    """(module, line, name) of each module-level function or class
    without a leading underscore, over {module: source}, that neither
    these modules nor the reader sources read, as a name or as an
    attribute, and that listed does not name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _read_names([*trees.values(),
                        *map(ast.parse, readers)]) | set(listed)
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in read)


def test_every_public_definition_has_a_production_reader():
    """A public function or class of codimlab is read by src, scripts/,
    benchmark/ or the acceptance gate, exported in codimlab.__all__, or
    hooked by the benchmark's tracer; one only the other tests read
    belongs in their helper modules."""
    hooked = {target.split(".")[0] for _, _, target, _ in _tracing().HOOKS}
    found = unread_public_definitions(*_src_and_production_readers(),
                                      {*codimlab.__all__, *hooked})
    assert not found, "public definitions without a reader:\n" + "\n".join(
        f"{module}:{line}: {name}" for module, line, name in found)


def _imported_from(tree: ast.Module) -> set:
    """The last dotted part of every module the tree imports or imports
    from, and every name it imports from one, which may be a submodule
    (`from codimlab import codim`)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
            if node.module:
                found.add(node.module.rsplit(".", 1)[-1])
    return found


def unread_methods(sources: dict, readers, listed) -> list:
    """(module, line, Class.method) of each method of a module-level
    class, dunders aside, over {module: source}, that no module or
    reader source reads as an attribute, and that listed does not name
    as Class.method.  When more than one class of the modules defines
    the method's name, a read counts only in the class's own module or
    in a source that imports from that module."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    scopes = [(tree, {Path(module).stem}) for module, tree in trees.items()]
    scopes += [(tree, set()) for tree in map(ast.parse, readers)]
    reads = [({node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.ctx, ast.Load)},
              own | _imported_from(tree)) for tree, own in scopes]
    methods = [(module, cls.name, item)
               for module, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for item in cls.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (item.name.startswith("__")
                        and item.name.endswith("__"))]
    # classes per method name, a property's setter not counted again
    owners = Counter(name for _, _, name in {
        (module, cls, item.name) for module, cls, item in methods})

    def read(module, name):
        return any(name in attrs and (owners[name] == 1
                                      or Path(module).stem in near)
                   for attrs, near in reads)

    return sorted((module, item.lineno, f"{cls}.{item.name}")
                  for module, cls, item in methods
                  if not read(module, item.name)
                  and f"{cls}.{item.name}" not in listed)


def test_every_method_has_a_production_reader():
    """A method of a codimlab class is read as an attribute by src,
    scripts/, benchmark/ or the acceptance gate, or hooked by the
    benchmark's tracer; one only the other tests read belongs in
    them.  A name that several classes define is read by the modules
    that can reach the class: its own and those importing from it."""
    found = unread_methods(*_src_and_production_readers(),
                           {target for _, _, target, _ in _tracing().HOOKS})
    assert not found, "methods without a reader:\n" + "\n".join(
        f"{module}:{line}: {name}" for module, line, name in found)


def test_checker_flags_only_unread_methods():
    sources = {
        "a": ("class Box:\n"
              "    def __init__(self):\n"
              "        self.assigned = 0\n"
              "    def used(self):\n"
              "        return self._helper()\n"
              "    def _helper(self):\n"
              "        return 1\n"
              "    @property\n"
              "    def size(self):\n"
              "        return 0\n"
              "    def by_script(self):\n"
              "        pass\n"
              "    def hooked(self):\n"
              "        pass\n"
              "    def assigned(self):\n"
              "        pass\n"
              "    def only_named(self):\n"
              "        pass\n"
              "def outer():\n"
              "    class Inner:\n"
              "        def hidden(self):\n"
              "            pass\n"
              "    return Inner, only_named\n"),
        "b": ("from a import Box\n"
              "Box().used(), Box().size\n"),
        # two classes define summary; the one read is the report's, in
        # a module that does not import structure
        "structure": ("class Decomposition:\n"
                      "    def summary(self):\n"
                      "        pass\n"),
        "reports": ("class Report:\n"
                    "    def summary(self):\n"
                    "        pass\n"),
        "cli": ("from reports import Report\n"
                "Report().summary()\n"),
    }
    readers = ["import a\na.Box().by_script()\n"]
    # a store is not a read, nor is a bare name; hooks arrive as listed
    assert unread_methods(sources, readers, {"Box.hooked"}) == [
        ("a", 15, "Box.assigned"), ("a", 17, "Box.only_named"),
        ("structure", 2, "Decomposition.summary")]
    # a reader that imports from structure reaches its class
    readers.append("from structure import Decomposition\n"
                   "Decomposition().summary()\n")
    assert unread_methods(sources, readers, {"Box.hooked"}) == [
        ("a", 15, "Box.assigned"), ("a", 17, "Box.only_named")]


def test_checker_flags_only_unread_public_names():
    sources = {
        "a": ("def helper():\n"
              "    return 1\n"
              "def exported():\n"
              "    pass\n"
              "class Hooked:\n"
              "    def method(self):\n"
              "        pass\n"
              "def by_script():\n"
              "    pass\n"
              "def only_tested():\n"
              "    return helper()\n"
              "class Dead:\n"
              "    pass\n"
              "def _private():\n"
              "    pass\n"),
        "b": ("from a import only_tested\n"
              "def outer():\n"
              "    def inner():\n"
              "        pass\n"
              "    return inner\n"),
    }
    readers = ["import a\na.by_script()\n"]
    # an import alone reads nothing; __all__ and hooks arrive as listed
    assert unread_public_definitions(
        sources, readers, {"exported", "Hooked"}) == [
        ("a", 10, "only_tested"), ("a", 12, "Dead"), ("b", 2, "outer")]
