"""Package imports sit at module level: the import graph of morita_lab has
no cycle (fields, linalg, algebras, morita, homology, classes, lab and
jsonio, cli), so no function needs to defer one."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "morita_lab"


def _deferred_package_imports(path):
    found = []
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "morita_lab"):
                found.append(f"{path.name}:{node.lineno} in {fn.name}")
            elif isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "morita_lab" for a in node.names):
                found.append(f"{path.name}:{node.lineno} in {fn.name}")
    return found


def test_no_package_import_inside_a_function():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [hit for path in files for hit in _deferred_package_imports(path)]
    assert not found, found


def test_the_check_sees_a_deferred_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\n\n\ndef f():\n    import random\n"
                     "    from .homology import ext_dim\n\n\n"
                     "class C:\n    def g(self):\n        import morita_lab.lab\n")
    assert [h.split(" in ")[1] for h in _deferred_package_imports(probe)] == ["f", "g"]
