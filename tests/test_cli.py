import contextlib
import copy
import functools
import io
import json
import operator
import os
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morita_lab import cli
from morita_lab import jsonio
from morita_lab import lab
from morita_lab import algebras as alg
from morita_lab import classes as cls
from morita_lab import homology as hml
from morita_lab import morita as mor


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture()
def ie_files(tmp_path):
    assert run(["catalog", "ie", "--field", "3",
                "--out", tmp_path / "ie.json"]) == 0
    return tmp_path


def test_catalog_and_validate(ie_files, capsys):
    for name in ("ie.json", "ie.A.json", "ie.B.json", "ie.M.json", "ie.N.json"):
        assert run(["validate", ie_files / name]) == 0


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "kind": "algebra"}\n')
    assert run(["validate", bad]) == 2


def test_round_trip_byte_stable(ie_files):
    path = ie_files / "ie.A.json"
    original = path.read_text()
    store = jsonio.DocumentStore()
    a = store.algebra(path)
    assert jsonio.canonical_dumps(jsonio.algebra_to_json(a)) == original


def test_functor_and_ext(ie_files, capsys):
    store = jsonio.DocumentStore()
    a = store.algebra(ie_files / "ie.A.json")
    p1 = alg.indecomposable_projectives(a)[0]
    jsonio.emit(jsonio.module_to_json(p1, "ie.A.json"), ie_files / "p1.json")
    assert run(["validate", ie_files / "p1.json"]) == 0

    assert run(["functor", "TA", "--morita", ie_files / "ie.json",
                "--in", ie_files / "p1.json", "--out", ie_files / "tap1.json"]) == 0
    assert run(["validate", ie_files / "tap1.json"]) == 0

    assert run(["ext", "--src", ie_files / "tap1.json",
                "--tgt", ie_files / "tap1.json",
                "--out", ie_files / "ext.json"]) == 0
    out = json.loads((ie_files / "ext.json").read_text())
    assert out["dimension"] == 0  # projective source

    assert run(["functor", "UA", "--in", ie_files / "tap1.json",
                "--out", ie_files / "back.json"]) == 0
    back, a2 = jsonio.DocumentStore().module(ie_files / "back.json")
    assert back.dim == p1.dim


def test_classify_and_tor(ie_files, capsys):
    store = jsonio.DocumentStore()
    data = store.morita(ie_files / "ie.json")
    big = lab._ie_big_module(data)
    jsonio.emit(jsonio.lambda_module_to_json(big, "ie.json"), ie_files / "L.json")
    assert run(["classify", "--module", ie_files / "L.json", "--class", "mon",
                "--out", ie_files / "c1.json"]) == 0
    assert json.loads((ie_files / "c1.json").read_text())["member"] is True

    za = mor.functor_Z(data, "A", alg.indecomposable_projectives(data.A)[0])
    jsonio.emit(jsonio.lambda_module_to_json(za, "ie.json"), ie_files / "ZA.json")
    assert run(["classify", "--module", ie_files / "ZA.json", "--class", "mon",
                "--out", ie_files / "c2.json"]) == 0
    assert json.loads((ie_files / "c2.json").read_text())["member"] is False

    # gp on a non-certified instance is a preflight failure: exit 2
    assert run(["classify", "--module", ie_files / "L.json", "--class", "gp"]) == 2

    p1 = alg.indecomposable_projectives(data.A)[0]
    jsonio.emit(jsonio.module_to_json(p1, "ie.A.json"), ie_files / "p1.json")
    assert run(["tor", "--bimodule", ie_files / "ie.M.json",
                "--module", ie_files / "p1.json",
                "--out", ie_files / "tor.json"]) == 0
    assert json.loads((ie_files / "tor.json").read_text())["dimension"] == 0


def test_resolve_and_decompose(ie_files):
    store = jsonio.DocumentStore()
    data = store.morita(ie_files / "ie.json")
    p1 = alg.indecomposable_projectives(data.A)[0]
    t = mor.functor_T(data, "A", p1)
    jsonio.emit(jsonio.lambda_module_to_json(t, "ie.json"), ie_files / "T.json")
    assert run(["resolve", "--module", ie_files / "T.json", "--kind", "pq",
                "--out", ie_files / "res.json"]) == 0
    res = json.loads((ie_files / "res.json").read_text())
    assert res["resolution_kind"] == "pq"

    spec = {"version": 1, "kind": "class_spec_pair",
            "U": {"type": "projectives"}, "V": {"type": "projectives"}}
    (ie_files / "spec.json").write_text(json.dumps(spec))
    assert run(["decompose", "--module", ie_files / "T.json", "--kind", "delta",
                "--spec", ie_files / "spec.json",
                "--out", ie_files / "dec.json"]) == 0
    assert json.loads((ie_files / "dec.json").read_text())["decomposes"] is True

    big = lab._ie_big_module(data)
    jsonio.emit(jsonio.lambda_module_to_json(big, "ie.json"), ie_files / "L.json")
    assert run(["decompose", "--module", ie_files / "L.json", "--kind", "delta",
                "--spec", ie_files / "spec.json",
                "--out", ie_files / "dec2.json"]) == 0
    assert json.loads((ie_files / "dec2.json").read_text())["decomposes"] is False


def test_sample_and_enumerate(ie_files, tmp_path):
    assert run(["sample", "--morita", ie_files / "ie.json", "--seed", 7,
                "--count", 3, "--out", tmp_path / "s"]) == 0
    for i in range(3):
        assert run(["validate", tmp_path / f"s{i:03d}.json"]) == 0

    assert run(["catalog", "product", "--field", "2",
                "--out", tmp_path / "prod.json"]) == 0
    assert run(["enumerate", "--morita", tmp_path / "prod.json", "--max-dim", 1,
                "--out", tmp_path / "e"]) == 0
    assert run(["validate", tmp_path / "e000.json"]) == 0


def test_verify_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "example-ie", "--instance", "ie", "--field", "3",
                "--count", 5, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert all("paper_anchor" in c for c in doc["claims"])
    # char2 on the wrong field is a preflight failure
    assert run(["verify", "char2", "--instance", "ie", "--field", "3",
                "--count", 5, "--out", tmp_path / "r2.json"]) == 2


def test_verify_report_round_trip(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "green", "--instance", "product", "--field", "3",
                "--count", 5, "--out", out]) == 0
    assert run(["validate", out]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert jsonio.canonical_dumps(doc) == text


def test_rational_documents_round_trip(tmp_path):
    assert run(["catalog", "ie", "--field", "Q", "--out", tmp_path / "ieq.json"]) == 0
    for name in ("ieq.json", "ieq.A.json", "ieq.M.json"):
        assert run(["validate", tmp_path / name]) == 0
    store = jsonio.DocumentStore()
    data = store.morita(tmp_path / "ieq.json")
    assert data.field.kind == "rational"
    big = lab._ie_big_module(data)
    jsonio.emit(jsonio.lambda_module_to_json(big, "ieq.json"), tmp_path / "L.json")
    text1 = (tmp_path / "L.json").read_text()
    l2, _ = jsonio.DocumentStore().lambda_module(tmp_path / "L.json")
    assert jsonio.canonical_dumps(
        jsonio.lambda_module_to_json(l2, "ieq.json")) == text1
    assert run(["ext", "--src", tmp_path / "L.json", "--tgt", tmp_path / "L.json",
                "--out", tmp_path / "e.json"]) == 0
    assert json.loads((tmp_path / "e.json").read_text())["dimension"] == 1


def test_resolve_hypothesis_failure_exit_2(ie_files):
    store = jsonio.DocumentStore()
    data = store.morita(ie_files / "ie.json")
    s1 = alg.simples(data.A)[0]
    za = mor.functor_Z(data, "A", s1)
    jsonio.emit(jsonio.lambda_module_to_json(za, "ie.json"), ie_files / "Z.json")
    # S_1 is not projective, so the two-term projective resolution refuses
    assert run(["resolve", "--module", ie_files / "Z.json", "--kind", "pq"]) == 2


def test_all_documents_emit_canonically(ie_files):
    # every emitted file is already in canonical form: parse + re-emit is
    # byte-identical for all five document kinds
    for name in ("ie.json", "ie.A.json", "ie.B.json", "ie.M.json", "ie.N.json"):
        path = ie_files / name
        text = path.read_text()
        assert jsonio.canonical_dumps(jsonio.load_raw(path)) == text
    store = jsonio.DocumentStore()
    m = store.bimodule(ie_files / "ie.M.json")
    rebuilt = jsonio.bimodule_to_json(m, "ie.B.json", "ie.A.json")
    assert jsonio.canonical_dumps(rebuilt) == (ie_files / "ie.M.json").read_text()


def test_assertion_in_a_case_exits_3(monkeypatch, tmp_path):
    """An internal invariant breach inside a sampled case is never an
    ordinary claim failure."""
    def breach(l):
        raise AssertionError("injected invariant breach")

    monkeypatch.setattr(cls, "projective_by_shape", breach)
    assert run(["verify", "resolutions", "--instance", "ie", "--field", "3",
                "--count", 1, "--out", tmp_path / "r.json"]) == 3


def test_value_error_in_a_builder_is_a_claim_failure(monkeypatch, tmp_path):
    """A refusal of the approximation builder itself, as ctp2(1) calls it,
    fails that claim with the refusal text; the other claims still run."""
    orig = hml.approx_c1

    def approx_c1(l, ses0=None):
        if ses0 is not None:
            raise ValueError("injected builder refusal")
        return orig(l)

    monkeypatch.setattr(hml, "approx_c1", approx_c1)
    out = tmp_path / "r.json"
    assert run(["verify", "completeness", "--instance", "examctp4", "--field", "3",
                "--param", "n=3", "--param", "h=2", "--param", "i=1", "--param", "j=3",
                "--count", 1, "--out", out]) == 1
    claims = {c["id"]: c for c in json.loads(out.read_text())["claims"]}
    ctp21 = claims.pop("completeness.ctp2-1")
    assert ctp21["verdict"] == "fail"
    assert ctp21["witness"]["failures"][0] == [0, "injected builder refusal"]
    assert all(c["verdict"] == "pass" for c in claims.values())


def test_value_error_in_a_compare_case_fails_all_four_families(monkeypatch, tmp_path):
    """compare follows the claim runner's policy: a refused case counts as
    checked and fails every family with its text; a breach still exits 3."""
    def tor1(m, u):
        raise ValueError("injected tor refusal")

    monkeypatch.setattr(hml, "tor1", tor1)
    out = tmp_path / "r.json"
    assert run(["verify", "compare", "--instance", "ie", "--field", "3",
                "--count", 3, "--out", out]) == 1
    claims = json.loads(out.read_text())["claims"]
    assert [c["id"] for c in claims] == [f"compare.{fam}" for fam in
                                         ("TA-ZA", "TA-ZB", "TB-ZA", "TB-ZB")]
    for c in claims:
        assert c["verdict"] == "fail"
        assert c["witness"] == {"checked": 3, "failures": [
            [i, "injected tor refusal"] for i in (1, 2, 3)]}

    def breach(m, u):
        raise AssertionError("injected invariant breach")

    monkeypatch.setattr(hml, "tor1", breach)
    assert run(["verify", "compare", "--instance", "ie", "--field", "3",
                "--count", 3, "--out", tmp_path / "r2.json"]) == 3


def test_missing_or_malformed_generators_are_schema_errors():
    """Module and bimodule documents name every generator; a missing or
    malformed one is a SchemaError, on the left and on the right side."""
    data = lab.catalog("ie", lab.F3).data
    x = alg.indecomposable_projectives(data.A)[0]
    doc = json.loads(json.dumps(jsonio.module_to_json(x, "a.json")))
    assert jsonio.canonical_dumps(jsonio.module_to_json(jsonio.module_from_json(doc, data.A),
                                                        "a.json")) == jsonio.canonical_dumps(doc)
    bdoc = json.loads(json.dumps(jsonio.bimodule_to_json(data.M, "b.json", "a.json")))
    back = jsonio.bimodule_from_json(bdoc, data.B, data.A)
    assert back.left_action.tobytes() == data.M.left_action.tobytes()
    assert back.right_action.tobytes() == data.M.right_action.tobytes()
    breakages = [
        (lambda d: d["vertices"].pop("1"), "idempotent at 1"),
        (lambda d: d["arrows"].pop("a1"), "arrow a1"),
        (lambda d: d.pop("arrows"), "vertices and arrows"),
        (lambda d: d["arrows"].update(a1=[[1, 0, 0]]), "shape"),
    ]
    for brk, text in breakages:
        for target, key in ((doc, "generator_action"), (bdoc, "left_action"),
                            (bdoc, "right_action")):
            broken = json.loads(json.dumps(target))
            brk(broken[key])
            with pytest.raises(jsonio.SchemaError, match=text):
                if target is doc:
                    jsonio.module_from_json(broken, data.A)
                else:
                    jsonio.bimodule_from_json(broken, data.B, data.A)


def test_one_parser_keeps_each_calls_params(tmp_path, capsys):
    """main shares one parser per process; an appended --param list still
    belongs to its own call."""
    assert cli.build_parser() is cli.build_parser()
    vertices = []
    for params in (["n=4", "h=2", "i=1", "j=4"], ["n=3"]):
        argv = ["catalog", "examctp4", "--field", "3", "--out", tmp_path / "c.json"]
        assert run(argv + [a for p in params for a in ("--param", p)]) == 0
        doc = json.loads((tmp_path / "c.A.json").read_text())
        vertices.append(len(doc["quiver"]["vertices"]))
    # a leaked n=4, j=4 would make the second call fail with j > n
    assert vertices == [4, 3]


# the document and the reference key it holds: a morita document (A, B, M, N),
# a bimodule document (left_algebra, right_algebra), a module document
# (algebra_ref) and a lambda_module document (morita_ref)
REFERENCES = [("ie.json", key) for key in ("A", "B", "M", "N")] + [
    ("ie.M.json", "left_algebra"), ("ie.M.json", "right_algebra"),
    ("p1.json", "algebra_ref"), ("L.json", "morita_ref")]


@pytest.mark.parametrize("change", ["deleted", "null", "1.5", "missing file"])
@pytest.mark.parametrize("name,key", REFERENCES, ids=[k for _, k in REFERENCES])
def test_malformed_references_exit_2(ie_files, capsys, name, key, change):
    """A reference that is absent, not a string or names no file is a schema
    error (exit 2) that names the key or the file, never a traceback."""
    store = jsonio.DocumentStore()
    data = store.morita(ie_files / "ie.json")
    jsonio.emit(jsonio.module_to_json(alg.indecomposable_projectives(data.A)[0], "ie.A.json"),
                ie_files / "p1.json")
    jsonio.emit(jsonio.lambda_module_to_json(lab._ie_big_module(data), "ie.json"),
                ie_files / "L.json")
    doc = json.loads((ie_files / name).read_text())
    if change == "deleted":
        del doc[key]
    else:
        doc[key] = {"null": None, "1.5": 1.5, "missing file": "nowhere.json"}[change]
    bad = ie_files / f"bad.{name}"
    bad.write_text(json.dumps(doc))
    assert run(["validate", bad]) == 2
    err = capsys.readouterr().err
    assert ("nowhere.json" if change == "missing file" else repr(key)) in err


# a class_spec_pair document broken in one place, and the key the error names
SPEC_BREAKS = {
    "U deleted": (lambda doc: {k: v for k, v in doc.items() if k != "U"}, "'U'"),
    "U a list": (lambda doc: {**doc, "U": ["projectives"]}, "'U'"),
    "V null": (lambda doc: {**doc, "V": None}, "'V'"),
    "U modules a string": (lambda doc: {**doc, "U": {**doc["U"], "modules": "p1.json"}}, "'U'"),
    "V modules an object": (lambda doc: {**doc, "V": {**doc["V"], "modules": {"0": "p1.json"}}},
                            "'V'"),
    "document a list": (lambda doc: [doc], "class_spec_pair"),
}
SPEC_COMMANDS = {
    "classify delta": ["classify", "--class", "delta"],
    "decompose nabla": ["decompose", "--kind", "nabla"],
}


@pytest.mark.parametrize("command", sorted(SPEC_COMMANDS))
@pytest.mark.parametrize("break_", sorted(SPEC_BREAKS))
def test_malformed_class_spec_pairs_exit_2(ie_files, capsys, command, break_):
    """A class_spec_pair document without U, with a U or V that is not an
    object, or with modules that are not a list is a schema error (exit 2)
    naming the key, never a KeyError, AttributeError or TypeError."""
    store = jsonio.DocumentStore()
    data = store.morita(ie_files / "ie.json")
    jsonio.emit(jsonio.lambda_module_to_json(lab._ie_big_module(data), "ie.json"),
                ie_files / "L.json")
    doc = {"version": 1, "kind": "class_spec_pair",
           "U": {"type": "projectives", "modules": []}, "V": {"type": "projectives"}}
    change, named = SPEC_BREAKS[break_]
    (ie_files / "spec.json").write_text(json.dumps(change(doc)))
    argv = [*SPEC_COMMANDS[command], "--module", ie_files / "L.json",
            "--spec", ie_files / "spec.json"]
    assert run(argv) == 2
    assert named in capsys.readouterr().err


def _first_x_entry(doc, value):
    matrix = next(iter(doc["X"]["generator_action"]["vertices"].values()))
    matrix[0][0] = value


def _first_arrow(doc):
    return doc["quiver"]["arrows"][0]


# a lambda_module or algebra document over Q broken in one place; each break
# used to escape cli.main as a ZeroDivisionError, TypeError or KeyError
Q_DOCUMENT_BREAKS = {
    "entry 1/0": ("L.json", lambda doc: _first_x_entry(doc, "1/0")),
    "entry {}": ("L.json", lambda doc: _first_x_entry(doc, {})),
    "X missing": ("L.json", lambda doc: doc.pop("X")),
    "dim null": ("L.json", lambda doc: doc["X"].update(dim=None)),
    "quiver null": ("ie.A.json", lambda doc: doc.update(quiver=None)),
    "vertices 5": ("ie.A.json", lambda doc: doc["quiver"].update(vertices=5)),
    "arrow null": ("ie.A.json", lambda doc: doc["quiver"]["arrows"].__setitem__(0, None)),
    "relations null": ("ie.A.json", lambda doc: doc.update(relations=None)),
    "arrow without name": ("ie.A.json", lambda doc: _first_arrow(doc).pop("name")),
}


@pytest.mark.parametrize("break_", sorted(Q_DOCUMENT_BREAKS))
def test_malformed_rational_documents_exit_2(tmp_path, capsys, break_):
    """Malformed entries and document shapes over Q are schema errors: exit
    2 with a message, never a traceback."""
    assert run(["catalog", "ie", "--field", "Q", "--out", tmp_path / "ie.json"]) == 0
    data = jsonio.DocumentStore().morita(tmp_path / "ie.json")
    jsonio.emit(jsonio.lambda_module_to_json(lab._ie_big_module(data), "ie.json"),
                tmp_path / "L.json")
    name, change = Q_DOCUMENT_BREAKS[break_]
    doc = json.loads((tmp_path / name).read_text())
    change(doc)
    (tmp_path / f"bad.{name}").write_text(json.dumps(doc))
    if name == "L.json":
        argv = ["classify", "--module", tmp_path / "bad.L.json", "--class", "mon"]
    else:
        argv = ["sample", "--algebra", tmp_path / "bad.ie.A.json", "--count", 2,
                "--out", tmp_path / "x"]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# -- loader fuzz: single-field mutations of real documents ------------------

FUZZ_VALUES = [None, -1, 10**30, "x", "1/0", [], {}, 1.5, True]
DELETE = object()


def _json_paths(doc, prefix=()):
    """The path of every key and list index in a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def fuzz_documents(tmp_path_factory):
    """Over F3 and over Q: the ie catalog documents, one sampled quadruple
    (L000.json), one sampled plain A-module (X000.json) and a report
    (R.json), by file name.  Unmutated, each one loads and validates, and
    ext of each module document with itself exits 0."""
    docs = {}
    for field in ("3", "Q"):
        d = tmp_path_factory.mktemp(f"fuzz{field}")
        assert run(["catalog", "ie", "--field", field, "--out", d / "ie.json"]) == 0
        assert run(["sample", "--morita", d / "ie.json", "--count", 1, "--out", d / "L"]) == 0
        assert run(["sample", "--algebra", d / "ie.A.json", "--count", 1, "--out", d / "X"]) == 0
        rep = lab.VerificationReport("green", "ie", lab.SampleConfig(count=1))
        rep.record("green.roundtrip", "modovermorita", True, {"count": 1, "mismatches": []})
        jsonio.emit(rep.to_dict(), d / "R.json")
        docs[field] = {p.name: json.loads(p.read_text()) for p in d.glob("*.json")}
        for name in docs[field]:
            assert run(_fuzz_argv(name, d, "load")) == 0
            assert run(_fuzz_argv(name, d, "validate")) == 0
        for name in ("L000.json", "X000.json"):
            assert run(_fuzz_argv(name, d, "ext")) == 0
    return docs


def _fuzz_argv(name, d, command):
    """A command on the document `name` in the directory d: "validate" and
    "ext" (of the document with itself) by name, and "load" one that loads
    it as what it is."""
    if command == "validate" or (command == "load" and name == "R.json"):
        return ["validate", d / name]
    if command == "ext":
        return ["ext", "--src", d / name, "--tgt", d / name]
    if name == "L000.json":
        return ["classify", "--module", d / name, "--class", "mon"]
    if name == "X000.json":
        return ["functor", "TA", "--morita", d / "ie.json", "--in", d / name,
                "--out", d / "out.json"]
    return ["sample", "--morita", d / "ie.json", "--count", 1, "--out", d / "s"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_field_mutations_exit_0_or_2(fuzz_documents, data):
    """Deleting one key of a document, setting one value to a malformed
    one, or replacing the whole document by one, gives exit code 0 or 2
    through cli.main, whether the document is loaded, validated or given to
    ext: no exception escapes and no mutation passes for an internal
    invariant breach (exit 3)."""
    docs = fuzz_documents[data.draw(st.sampled_from(sorted(fuzz_documents)))]
    name = data.draw(st.sampled_from(sorted(docs)))
    command = data.draw(st.sampled_from(["load", "validate", "ext"]))
    doc = copy.deepcopy(docs[name])
    path = data.draw(st.sampled_from([()] + list(_json_paths(doc))))
    if not path:
        doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES)))
    else:
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        value = data.draw(st.sampled_from(FUZZ_VALUES + [DELETE] * isinstance(parent, dict)))
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        for other, content in docs.items():
            (d / other).write_text(json.dumps(doc if other == name else content))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(_fuzz_argv(name, d, command))
    assert code in (0, 2)


# -- malformed documents that used to escape cli.main -------------------------


def _raw_algebra_doc(change):
    """The materialized ie ring over F3 as a raw algebra document, with
    change applied to its raw block."""
    doc = jsonio.algebra_to_json(mor.materialize(lab.catalog("ie", lab.F3).data))
    change(doc["raw"])
    return doc


def _alias_structure_constant(raw):
    raw["structure_constants"]["-1,0"] = raw["structure_constants"]["0,0"]


MALFORMED_DOCUMENTS = {
    # AttributeError in DocumentStore.any_document and cli._load_pair
    "top-level list": (lambda: [], ["validate", "ext"]),
    # TypeError: a claim entry that is not an object
    "claims [1]": (lambda: {"version": 1, "kind": "report", "claims": [1]}, ["validate"]),
    # IndexError: more unit entries than basis elements
    "unit too long": (lambda: _raw_algebra_doc(lambda raw: raw["unit"].append(0)),
                      ["validate"]),
    # a negative index into the structure constants was read as the last one
    "key out of range": (lambda: _raw_algebra_doc(_alias_structure_constant), ["validate"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_documents_exit_2(tmp_path, capsys, case):
    """Documents of the wrong shape are schema errors: exit 2 with a
    message, never a traceback."""
    build, commands = MALFORMED_DOCUMENTS[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(build()))
    argvs = {"validate": ["validate", bad], "ext": ["ext", "--src", bad, "--tgt", bad]}
    for command in commands:
        capsys.readouterr()
        assert run(argvs[command]) == 2, command
        assert capsys.readouterr().err.startswith("error: "), command
