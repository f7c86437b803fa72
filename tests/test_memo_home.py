"""Every cache of derived structure goes through algebras.memo: no other
function of morita_lab tests membership in a _cache store by hand."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "morita_lab"
STORES = {"_cache", "_tensors", "_algebras", "_moritas"}


def _names_a_store(expr):
    return any(isinstance(n, ast.Attribute) and n.attr in STORES for n in ast.walk(expr))


def _hand_written_cache_tests(path):
    found = []
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name == "memo":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.In, ast.NotIn)) and _names_a_store(right)
                    for op, right in zip(node.ops, node.comparators)):
                found.append(f"{path.name}:{node.lineno} in {fn.name}")
    return found


def test_memo_is_the_one_home_of_caching():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [hit for path in files for hit in _hand_written_cache_tests(path)]
    assert not found, found


def test_the_check_sees_a_hand_written_cache(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def memo(store, key, build):\n"
        "    if key not in store._cache:\n"
        "        store._cache[key] = build()\n"
        "    return store._cache[key]\n\n\n"
        "class C:\n"
        "    def get(self):\n"
        "        if 'k' not in self._cache:\n"
        "            self._cache['k'] = 1\n"
        "        return self._cache['k']\n\n\n"
        "def h(x, key):\n"
        "    return key in x.data._cache.keys() or key in x.table\n")
    hits = _hand_written_cache_tests(probe)
    assert sorted(h.split(" in ")[1] for h in hits) == ["get", "h"]
