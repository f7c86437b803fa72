"""One presentation rule and one claim loop: homology.presentation is the one
place that chooses between the cover and the free presentation, no function
takes a knob for that choice or for the isomorphism search's random source,
and the claim runner holds the only sampling loop of lab."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "morita_lab"
BUILDERS = {"free_presentation", "cover_presentation"}
CHOOSERS = {"presentation", "_cover_epi"}
KNOBS = {"presentation_kind", "rng"}
RUNNER = "_run_claims"


def _functions(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _builder_uses(path):
    """Every use of a presentation builder outside the functions allowed to
    choose one, by name or as an attribute, called or not."""
    tree = ast.parse(path.read_text(), str(path))
    allowed = {id(node) for fn in _functions(tree) if fn.name in CHOOSERS
               for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in BUILDERS and id(node) not in allowed:
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def _knob_parameters(path):
    found = []
    for fn in _functions(ast.parse(path.read_text(), str(path))):
        args = fn.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg in KNOBS:
                found.append(f"{path.name}:{fn.lineno} {fn.name}({arg.arg})")
    return found


def _while_loops(path):
    """For each while loop, the name of the innermost function around it,
    or None at module level."""
    tree = ast.parse(path.read_text(), str(path))
    owner = {}
    for fn in _functions(tree):  # breadth first, so inner functions come later
        owner.update((id(node), fn.name) for node in ast.walk(fn))
    return [owner.get(id(node)) for node in ast.walk(tree) if isinstance(node, ast.While)]


def _sources():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    return files


def test_only_presentation_chooses_a_presentation():
    found = [hit for path in _sources() for hit in _builder_uses(path)]
    assert not found, found


def test_no_presentation_or_random_source_knob():
    found = [hit for path in _sources() for hit in _knob_parameters(path)]
    assert not found, found


def test_the_claim_runner_holds_the_one_loop_of_lab():
    assert _while_loops(PACKAGE / "lab.py") == [RUNNER]


def test_the_checks_see_a_second_rule_a_knob_and_a_loop(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import homology as hml\n\n\n"
        "def presentation(x):\n"
        "    return free_presentation(x)\n\n\n"
        "def _cover_epi(x):\n"
        "    return cover_presentation(x).proj\n\n\n"
        "def ext(x, y, presentation_kind='free'):\n"
        "    build = free_presentation if presentation_kind == 'free' else None\n"
        "    return build(x), hml.cover_presentation(y)\n\n\n"
        "class Search:\n"
        "    def run(self, basis, *, rng=None):\n"
        "        return rng\n\n\n"
        "def _run_claims(n):\n"
        "    while n:\n"
        "        n -= 1\n\n\n"
        "def suite(n):\n"
        "    def inner(k):\n"
        "        while k:\n"
        "            k -= 1\n"
        "    return inner(n)\n\n\n"
        "while False:\n"
        "    pass\n")
    assert sorted(h.split(" ")[1] for h in _builder_uses(probe)) == [
        "cover_presentation", "free_presentation"]
    assert sorted(h.split(" ")[1] for h in _knob_parameters(probe)) == [
        "ext(presentation_kind)", "run(rng)"]
    assert _while_loops(probe) == [None, "_run_claims", "inner"]
