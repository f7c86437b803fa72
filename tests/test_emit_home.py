"""jsonio is the one home of document bytes and references: outside
jsonio.py, no module of src/morita_lab or scripts/ calls json.dump,
json.dumps, open(..., "w") or os.path.relpath, or imports one of the three
functions by name.  A file is written by jsonio.emit, stdout gets
jsonio.canonical_dumps, and a reference is made by jsonio.reference."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HOME = ROOT / "src" / "morita_lab" / "jsonio.py"
FUNCTIONS = {"json": {"dump", "dumps"}, "os.path": {"relpath"}}


def _dotted(node):
    """The dotted name that node spells, such as "os.path.relpath", or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _writes_a_file(call):
    """An open call whose constant mode writes, appends or creates."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    return (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and any(c in mode.value for c in "wax"))


def _writes(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            module, _, function = (name or "").rpartition(".")
            if function in FUNCTIONS.get(module, ()):
                found.append(f"{path.name}:{node.lineno} {name}")
            elif name == "open" and _writes_a_file(node):
                found.append(f"{path.name}:{node.lineno} open for writing")
        elif isinstance(node, ast.ImportFrom) and node.module in FUNCTIONS:
            for alias in node.names:
                if alias.name in FUNCTIONS[node.module]:
                    found.append(f"{path.name}:{node.lineno} from {node.module} "
                                 f"import {alias.name}")
    return found


def test_jsonio_is_the_one_home_of_document_bytes():
    files = sorted((ROOT / "src" / "morita_lab").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py"))
    assert HOME in files and len(files) > 2
    found = [hit for path in files if path != HOME for hit in _writes(path)]
    assert not found, found


def test_the_check_sees_each_write(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json\n"
        "import os\n"
        "from os.path import relpath\n\n\n"
        "def write(doc, path, out):\n"
        "    json.dump(doc, open(path, 'w'))\n"
        "    with open(path, mode='a') as fh:\n"
        "        fh.write(json.dumps(doc))\n"
        "    with open(path) as fh:\n"
        "        json.load(fh)\n"
        "    return os.path.relpath(path, out), os.path.join(path, out), relpath(path)\n")
    hits = sorted(h.split(" ", 1)[1] for h in _writes(probe))
    assert hits == ["from os.path import relpath", "json.dump", "json.dumps",
                    "open for writing", "open for writing", "os.path.relpath"]
