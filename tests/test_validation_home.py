"""One validation rule: a ShortExactSequence checks itself when it is built,
on one blockwise path, and every other object is checked only by an explicit
.validate().  No function of morita_lab takes a boolean check flag, no call
passes check=, and ShortExactSequence.validate does not branch on the kind
of module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "morita_lab"


def _check_flags(fn):
    """The parameters of fn named check with a boolean default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    pairs = list(zip(positional, defaults)) + list(zip(args.kwonlyargs, args.kw_defaults))
    return [a for a, d in pairs if a.arg == "check"
            and isinstance(d, ast.Constant) and isinstance(d.value, bool)]


def _kind_tests(fn):
    return [n for n in ast.walk(fn)
            if (isinstance(n, ast.Name) and n.id in ("isinstance", "is_lambda"))
            or (isinstance(n, ast.Attribute) and n.attr == "is_lambda")]


def _breaches(path):
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _check_flags(node):
            found.append(f"{path.name}:{node.lineno} {node.name} takes a check flag")
        if isinstance(node, ast.Call) and any(k.arg == "check" for k in node.keywords):
            found.append(f"{path.name}:{node.lineno} passes check=")
        if isinstance(node, ast.ClassDef) and node.name == "ShortExactSequence":
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "validate" and _kind_tests(fn):
                    found.append(f"{path.name}:{fn.lineno} validate tests the module kind")
    return found


def test_validation_has_one_home():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [hit for path in files for hit in _breaches(path)]
    assert not found, found


def test_the_check_sees_each_breach(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class Module:\n"
        "    def __init__(self, dim, check=False):\n"
        "        self.dim = dim\n\n\n"
        "def build(x, *, check=True):\n"
        "    return Module(x, check=check)\n\n\n"
        "def fine(check, strict=True):\n"
        "    return check\n\n\n"
        "class ShortExactSequence:\n"
        "    def validate(self):\n"
        "        if self.is_lambda:\n"
        "            return True\n"
        "        return isinstance(self.left, Module)\n")
    hits = _breaches(probe)
    assert sorted(h.split(" ", 1)[1] for h in hits) == [
        "__init__ takes a check flag", "build takes a check flag", "passes check=",
        "validate tests the module kind"]
