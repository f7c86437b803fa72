"""FieldSpec.matmul is the one home of array products: no module of
morita_lab except fields.py calls np.matmul, np.dot, np.tensordot, np.einsum
or np.add.at, imports one of them from numpy, or uses the @ operator.  A
product written anywhere else would run on Fraction objects over Q.

Sums of products are the only int64 arithmetic that can overflow over F_p:
FieldSpec.matmul reduces them after every (2^63 - 1 - p) // (p-1)^2 terms.
No guard against elementwise products (`*` on field arrays) is needed.
Outside fields.py there are two, and neither adds products: linalg.kron
forms single products a[i, j] * b[k, l], each below (p-1)^2 < 2^62, and
linalg.invertible_mask forms a difference of two products below p^2 <= 2^62,
and only runs when p^h <= algebras.ISO_EXHAUSTIVE_LIMIT.  linalg.rref
multiplies Python ints, which cannot overflow."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "morita_lab"
HOME = "fields.py"
NUMPY = {"np", "numpy"}
PRODUCTS = {"matmul", "dot", "tensordot", "einsum"}


def _is_numpy(node):
    return isinstance(node, ast.Name) and node.id in NUMPY


def _products(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        what = None
        if isinstance(node, ast.Attribute) and _is_numpy(node.value) and node.attr in PRODUCTS:
            what = f"np.{node.attr}"
        elif (isinstance(node, ast.Attribute) and node.attr == "at"
              and isinstance(node.value, ast.Attribute) and node.value.attr == "add"
              and _is_numpy(node.value.value)):
            what = "np.add.at"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names = sorted(a.name for a in node.names if a.name in PRODUCTS | {"add"})
            what = f"from numpy import {', '.join(names)}" if names else None
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@"
        if what:
            found.append(f"{path.name}:{node.lineno} {what}")
    return found


def test_fields_is_the_one_home_of_products():
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != HOME)
    assert len(files) > 1
    found = [hit for path in files for hit in _products(path)]
    assert not found, found


def test_the_check_sees_each_product(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from numpy import einsum\n\n\n"
        "def products(fld, a, b, rows):\n"
        "    c = np.matmul(a, b)\n"
        "    c = c + numpy.dot(a, b)\n"
        "    d = np.tensordot(a, b, axes=1)\n"
        "    np.add.at(c, rows, d)\n"
        "    c @= b\n"
        "    return a @ b, fld.matmul(a, b), a.dot, np.add(a, b)\n")
    hits = [h.split(" ", 1)[1] for h in _products(probe)]
    assert hits.count("@") == 2
    assert sorted(h for h in hits if h != "@") == [
        "from numpy import einsum", "np.add.at", "np.dot", "np.matmul", "np.tensordot"]
