"""Zero tests read truth values: no module of morita_lab except fields.py
compares anything with a field's zero, by == or != (elementwise on an array
or on one entry) or by np.equal / np.not_equal.  Over Q each such comparison
is one Fraction.__eq__ call per entry; a.astype(bool) and `if v:` read the
numerator instead, and FieldSpec.is_zero and FieldSpec.equal hold the field
rules."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "morita_lab"
HOME = "fields.py"
COMPARISONS = {"equal", "not_equal"}


def _is_zero(node):
    """field.zero, self.field.zero, or a name bound to one, called zero."""
    return ((isinstance(node, ast.Attribute) and node.attr == "zero")
            or (isinstance(node, ast.Name) and node.id == "zero"))


def _zero_comparisons(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        what = None
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                    and any(_is_zero(o) for o in operands)):
                what = "compare"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in COMPARISONS and any(_is_zero(a) for a in node.args)):
            what = f"np.{node.func.attr}"
        if what:
            found.append(f"{path.name}:{node.lineno} {what}")
    return found


def test_no_comparison_with_zero_outside_fields():
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != HOME)
    assert len(files) > 1
    found = [hit for path in files for hit in _zero_comparisons(path)]
    assert not found, found


def test_the_check_sees_each_comparison(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n\n\n"
        "def tests(self, f, a, v, row, c):\n"
        "    zero = f.zero\n"
        "    hits = [a != f.zero, f.zero == a, v[0] != self.field.zero, a == zero,\n"
        "            np.not_equal(a, f.zero), np.equal(f.zero, a), 0 < v[1] != zero]\n"
        "    row[c] = zero\n"
        "    misses = [a.astype(bool), f.zeros(2), a == 1, f.is_zero(a), a != f.one,\n"
        "              np.equal(a, v), f.zero, a.any() or zero]\n"
        "    return hits, misses\n")
    hits = [h.split(" ", 1)[1] for h in _zero_comparisons(probe)]
    assert sorted(hits) == ["compare"] * 5 + ["np.equal", "np.not_equal"]
