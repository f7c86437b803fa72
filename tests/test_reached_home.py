"""Every definition of morita_lab is reached from a command, suite or script:
each top-level function or class and each public method defined in
src/morita_lab is referenced from src/, scripts/ or perfbench/ outside its
own definition.  Tests do not count as callers, so a name that only a test
reaches is dead code with a test around it.

A reference is a loaded name, an attribute, a name imported by
``from ... import``, or a part of a dotted path in perfbench/tracer.py's
TRACED table.  The check reads the AST, not the text: a string such as the
sampler tag "sample_module" is not a use of a function of that name."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "morita_lab"
CALLERS = ("src", "scripts", "perfbench")
TRACER = ROOT / "perfbench" / "tracer.py"


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _definitions(tree):
    """(name, node) for each top-level function or class and each public
    method of a top-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found.extend((f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not m.name.startswith("_"))
    return found


def _traced_parts(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "TRACED"):
            for row in node.value.elts:
                yield from row.elts[1].value.split(".")


def _references(tree):
    """(name, node) for each reference in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def _unreached(definitions, callers):
    """Names from ``definitions`` (files) that no module of ``callers``
    (files) references outside the definition itself."""
    trees = {path: _parse(path) for path in {*definitions, *callers}}
    inside = {}
    defined = []
    for path in definitions:
        for name, node in _definitions(trees[path]):
            short = name.rsplit(".", 1)[-1]
            defined.append((path, name, short))
            inside[(path, name)] = {id(n) for n in ast.walk(node)}
    used = {}
    traced = set()
    for path in callers:
        tree = trees[path]
        for name, node in _references(tree):
            used.setdefault(name, []).append((path, id(node)))
        if path.resolve() == TRACER:
            traced.update(_traced_parts(tree))
    found = []
    for path, name, short in defined:
        if short in traced:
            continue
        own = inside[(path, name)]
        if not any(p != path or node not in own for p, node in used.get(short, ())):
            found.append(f"{path.name}:{name}")
    return found


def test_every_definition_is_reached_outside_the_tests():
    definitions = sorted(PACKAGE.glob("*.py"))
    callers = sorted(p for d in CALLERS for p in (ROOT / d).rglob("*.py"))
    assert definitions and TRACER in callers
    assert _unreached(definitions, callers) == []


def test_the_check_sees_an_unreferenced_def(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def used():\n"
        "    return 1\n\n\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n\n\n"
        "def tagged():\n"
        "    return 'tagged'\n\n\n"
        "def imported():\n"
        "    return 2\n\n\n"
        "class Box:\n"
        "    def get(self):\n"
        "        return self.get\n\n"
        "    def put(self):\n"
        "        return 3\n\n"
        "    def _private(self):\n"
        "        return 4\n")
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from lib import imported as other\n\n\n"
        "def run(box: Box):\n"
        "    return used(), box.put(), other, 'tagged'\n")
    assert sorted(_unreached([lib], [lib, caller])) == [
        "lib.py:Box.get", "lib.py:recursive", "lib.py:tagged"]
