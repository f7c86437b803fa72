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
from morita_lab.fields import QQ


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


def test_each_command_reads_each_file_once(ie_files, monkeypatch):
    """A command's DocumentStore keeps every file it parsed, so kind peeks
    and reference re-reads do not open a file again."""
    d = ie_files
    spec = {"version": 1, "kind": "class_spec_pair",
            "U": {"type": "projectives"}, "V": {"type": "projectives"}}
    (d / "spec.json").write_text(json.dumps(spec))
    assert run(["sample", "--morita", d / "ie.json", "--count", 1, "--out", d / "s"]) == 0
    assert run(["sample", "--algebra", d / "ie.A.json", "--count", 1, "--out", d / "x"]) == 0
    commands = [
        ["functor", "TA", "--morita", d / "ie.json", "--in", d / "x000.json", "--out", d / "t.json"],
        ["functor", "UA", "--in", d / "s000.json", "--out", d / "u.json"],
        ["ext", "--src", d / "t.json", "--tgt", d / "s000.json"],
        ["ext", "--src", d / "x000.json", "--tgt", d / "x000.json"],
        ["classify", "--module", d / "s000.json", "--class", "mon"],
        ["resolve", "--module", d / "s000.json", "--kind", "present", "--out", d / "r.json"],
        ["decompose", "--module", d / "t.json", "--kind", "delta", "--spec", d / "spec.json",
         "--out", d / "dec.json"],
        ["validate", d / "ie.json"],
    ]
    reads, load_raw = [], jsonio.load_raw
    monkeypatch.setattr(jsonio, "load_raw",
                        lambda path: reads.append(os.path.abspath(path)) or load_raw(path))
    for argv in commands:
        reads.clear()
        assert run(argv) == 0, argv
        assert reads and len(reads) == len(set(reads)), (argv, reads)


def test_definitions_are_kept_by_path_and_content(ie_files, monkeypatch, capsys):
    """An algebra, bimodule or Morita document is built once per process
    for its path and content: a rewritten file is built and validated anew,
    a build that raised is not kept, and module documents are parsed anew by
    each command."""
    d = ie_files
    data = jsonio.DocumentStore().morita(d / "ie.json")
    assert jsonio.DocumentStore().morita(d / "ie.json") is data
    assert jsonio.DocumentStore().algebra(d / "ie.A.json") is data.A

    # M over F3 whose idempotents no longer sum to the identity
    good = (d / "ie.M.json").read_text()
    broken = json.loads(good)
    broken["left_action"]["vertices"]["2"] = [[0]]
    (d / "ie.M.json").write_text(json.dumps(broken))
    capsys.readouterr()
    assert run(["validate", d / "ie.json"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    (d / "ie.M.json").write_text(good)
    assert run(["validate", d / "ie.json"]) == 0
    # the build that raised replaced nothing: the first content is kept
    assert jsonio.DocumentStore().morita(d / "ie.json") is data

    # A with its keys in another order is new content: a new A, and new
    # bimodules and Morita data over it
    doc = json.loads((d / "ie.A.json").read_text())
    (d / "ie.A.json").write_text(json.dumps(dict(reversed(doc.items()))))
    assert run(["validate", d / "ie.json"]) == 0
    renewed = jsonio.DocumentStore().morita(d / "ie.json")
    assert renewed.A is not data.A and renewed.M is not data.M and renewed.B is data.B

    assert run(["sample", "--morita", d / "ie.json", "--count", 1, "--out", d / "s"]) == 0
    assert run(["sample", "--algebra", d / "ie.A.json", "--count", 1, "--out", d / "x"]) == 0
    parsed = []
    for name in ("module_from_json", "lambda_module_from_json"):
        monkeypatch.setattr(jsonio, name, functools.partial(
            lambda load, *a: parsed.append(load.__name__) or load(*a), getattr(jsonio, name)))
    for _ in range(2):
        assert run(["classify", "--module", d / "s000.json", "--class", "mon"]) == 0
        assert run(["validate", d / "x000.json"]) == 0
    assert parsed == ["lambda_module_from_json", "module_from_json"] * 2


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


RESOLUTION_KINDS = ["pq", "ij", "present", "approx-c1", "approx-c2", "approx-c3", "approx-c4"]


def test_references_hold_across_directories(tmp_path, monkeypatch, capsys):
    """With the catalog, a sample and the quadruple L in in/, every module and
    quadruple document that functor, resolve (of each kind), sample and
    enumerate write to out/ loads back through DocumentStore, and so do the
    three quadruples inside each resolution: a reference is relative to the
    file that holds it, or to the current directory on stdout."""
    monkeypatch.chdir(tmp_path)
    os.mkdir("in")
    os.mkdir("out")
    assert run(["catalog", "ie", "--field", "3", "--out", "in/ie.json"]) == 0
    assert run(["sample", "--morita", "in/ie.json", "--count", 1, "--out", "in/s"]) == 0
    assert run(["sample", "--algebra", "in/ie.A.json", "--count", 1, "--out", "in/x"]) == 0
    data = jsonio.DocumentStore().morita("in/ie.json")
    jsonio.emit(jsonio.lambda_module_to_json(lab._ie_big_module(data), "ie.json"), "in/L.json")
    commands = [
        ["functor", "TA", "--morita", "in/ie.json", "--in", "in/x000.json", "--out", "out/t.json"],
        ["functor", "UA", "--in", "in/s000.json", "--out", "out/u.json"],
        ["resolve", "--module", "in/s000.json", "--kind", "present", "--out", "out/r.json"],
        *(["resolve", "--module", "in/L.json", "--kind", kind, "--out", f"out/r-{kind}.json"]
          for kind in RESOLUTION_KINDS),
        ["sample", "--morita", "in/ie.json", "--count", 1, "--out", "out/s"],
        ["sample", "--algebra", "in/ie.A.json", "--count", 1, "--out", "out/x"],
        ["enumerate", "--morita", "in/ie.json", "--max-dim", 1, "--out", "out/e"],
    ]
    for argv in commands:
        assert run(argv) == 0, argv
    capsys.readouterr()
    assert run(["resolve", "--module", "in/s000.json", "--kind", "present"]) == 0
    pathlib.Path("r.json").write_text(capsys.readouterr().out)
    morita_refs = {}
    for path in sorted(pathlib.Path("out").glob("*.json")) + [pathlib.Path("r.json")]:
        doc = json.loads(path.read_text())
        if doc["kind"] == "module":
            jsonio.DocumentStore().module(path)
        elif doc["kind"] == "lambda_module":
            jsonio.DocumentStore().lambda_module(path)
        else:
            for part in ("left", "middle", "right"):
                embedded = path.with_name(f"{path.stem}.{part}")
                jsonio.emit(doc["sequence"][part], embedded)
                jsonio.DocumentStore().lambda_module(embedded)
            morita_refs[str(path)] = doc["sequence"]["left"]["morita_ref"]
    assert len(morita_refs) == 2 + len(RESOLUTION_KINDS)
    assert morita_refs["out/r.json"] == "../in/ie.json"
    assert morita_refs["r.json"] == "in/ie.json"


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


EXAMCTP4_PARAMS = ["--param", "n=3", "--param", "h=2", "--param", "i=1", "--param", "j=3"]
BAD_RUN_ARGUMENTS = {
    # ZeroDivisionError (exit 1) at count 0 and below
    "green count 0": ["verify", "green", "--instance", "ie", "--count", 0],
    "green count -2": ["verify", "green", "--instance", "ie", "--count", -2],
    # a vacuous pass (exit 0): no claim sampled anything
    "differences count 0": ["verify", "differences", "--instance", "ie", "--count", 0],
    # every draw fails on an empty randrange: a ZeroDivisionError traceback
    # in green, every case failed in a sampling suite (exit 1), and a pass
    # in a suite that samples nothing (exit 0)
    "green rank-cap 0": ["verify", "green", "--instance", "ie", "--count", 2,
                         "--rank-cap", 0],
    "green dim-cap -1": ["verify", "green", "--instance", "ie", "--count", 2,
                         "--dim-cap", -1],
    "adjunction rank-cap 0": ["verify", "adjunction", "--instance", "ie", "--count", 2,
                              "--rank-cap", 0],
    "completeness dim-cap -1": ["verify", "completeness", "--instance", "examctp4",
                                "--count", 2, *EXAMCTP4_PARAMS, "--dim-cap", -1],
    "example-ie rank-cap 0": ["verify", "example-ie", "--instance", "ie", "--count", 2,
                              "--rank-cap", 0],
    # every claim checks nothing: exit 1 with {"checked": 0} in differences
    "differences dim-cap 0": ["verify", "differences", "--instance", "ie", "--count", 2,
                              "--dim-cap", 0],
    # sample (no --field): a zero module written with exit 0, an empty
    # randrange (exit 2 naming no flag), and zero quadruples written
    "sample dim-cap -1": ["sample", "--algebra", "ie.A.json", "--dim-cap", -1],
    "sample rank-cap 0": ["sample", "--morita", "ie.json", "--rank-cap", 0],
    "sample dim-cap 0": ["sample", "--morita", "ie.json", "--dim-cap", 0],
    # silently ignored (exit 0)
    "ie param x": ["verify", "green", "--instance", "ie", "--count", 2, "--param", "x=1"],
    "examctp4 param q": ["verify", "green", "--instance", "examctp4", "--count", 2,
                         *EXAMCTP4_PARAMS, "--param", "q=1"],
    "catalog param x": ["catalog", "ie", "--param", "x=1"],
    # numbers in Python's int grammar: n=3_0 built examctp4(30, ...) and a
    # padded field token was taken as F3 (exit 0)
    "catalog param n=3_0": ["catalog", "examctp4", "--param", "n=3_0", "--param", "h=2",
                            "--param", "i=1", "--param", "j=3"],
    "catalog field padded": ["catalog", "ie", "--field", " 3 "],
    "catalog field signed": ["catalog", "ie", "--field", "+3"],
    # zero quadruples written (exit 0)
    "sample count 0": ["sample", "--morita", "ie.json", "--count", 0],
    "sample count -3": ["sample", "--morita", "ie.json", "--count", -3],
    # an --out in a missing directory: a FileNotFoundError traceback (exit 1)
    # once the work is done, the whole suite in verify
    "catalog out nodir": ["catalog", "ie", "--out", "nodir/ie.json"],
    "functor out nodir": ["functor", "TA", "--in", "x000.json", "--morita", "ie.json",
                          "--out", "nodir/t.json"],
    "ext out nodir": ["ext", "--src", "s000.json", "--tgt", "s000.json",
                      "--out", "nodir/e.json"],
    "tor out nodir": ["tor", "--bimodule", "ie.M.json", "--module", "x000.json",
                      "--out", "nodir/t.json"],
    "classify out nodir": ["classify", "--module", "s000.json", "--class", "mon",
                           "--out", "nodir/c.json"],
    "resolve out nodir": ["resolve", "--module", "s000.json", "--kind", "present",
                          "--out", "nodir/r.json"],
    "decompose out nodir": ["decompose", "--module", "s000.json", "--kind", "delta",
                            "--spec", "spec.json", "--out", "nodir/d.json"],
    "sample out nodir": ["sample", "--morita", "ie.json", "--count", 1, "--out", "nodir/s"],
    "enumerate out nodir": ["enumerate", "--morita", "ie.json", "--max-dim", 1,
                            "--out", "nodir/u"],
    # nothing enumerated, and {"count": 0, "written": []} (exit 0)
    "enumerate max-dim -1": ["enumerate", "--morita", "ie.json", "--max-dim", -1],
    "verify out nodir": ["verify", "green", "--instance", "ie", "--count", 2,
                         "--out", "nodir/r.json"],
    # an --out naming a directory: an IsADirectoryError once the work is
    # done, the whole suite in verify
    "verify out dir": ["verify", "green", "--instance", "ie", "--count", 1, "--out", "."],
    "functor out dir": ["functor", "TA", "--in", "x000.json", "--morita", "ie.json",
                        "--out", "."],
    "ext out dir": ["ext", "--src", "s000.json", "--tgt", "s000.json", "--out", "."],
    "tor out dir": ["tor", "--bimodule", "ie.M.json", "--module", "x000.json", "--out", "."],
    "classify out dir": ["classify", "--module", "s000.json", "--class", "mon", "--out", "."],
    "resolve out dir": ["resolve", "--module", "s000.json", "--kind", "present",
                        "--out", "."],
    "decompose out dir": ["decompose", "--module", "s000.json", "--kind", "delta",
                          "--spec", "spec.json", "--out", "."],
}


@pytest.mark.parametrize("case", sorted(BAD_RUN_ARGUMENTS))
def test_bad_run_arguments_are_preflight_failures(ie_files, monkeypatch, capsys, case):
    """A count below 1, a rank cap below 1, a dimension cap below 1, a
    parameter the instance does not take, an --out in a missing directory
    or an --out naming a directory fails before anything runs: exit 2 with
    a message, no suite run, nothing written, and no report or sample.  The
    ie documents, a sampled A-module x000.json, a sampled quadruple
    s000.json and a class_spec_pair spec.json are in the current
    directory."""
    monkeypatch.chdir(ie_files)
    assert run(["sample", "--algebra", "ie.A.json", "--count", 1, "--out", "x"]) == 0
    assert run(["sample", "--morita", "ie.json", "--count", 1, "--out", "s"]) == 0
    (ie_files / "spec.json").write_text(json.dumps(
        {"version": 1, "kind": "class_spec_pair",
         "U": {"type": "projectives"}, "V": {"type": "projectives"}}))
    for module, name in ((lab, "run_suite"), (jsonio, "emit")):
        monkeypatch.setattr(module, name, functools.partial(pytest.fail, f"{name} ran"))
    capsys.readouterr()
    args = BAD_RUN_ARGUMENTS[case]
    field = ["--field", "3"] if args[0] in ("verify", "catalog") and "--field" not in args else []
    out = [] if "--out" in args else ["--out", "out.json"]
    assert run([*args, *field, *out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(ie_files.glob("out*")) and not (ie_files / "nodir").exists()


@pytest.mark.parametrize("value", ["1_0", " 1 ", "+1"])
def test_integer_options_take_decimal_digits_only(ie_files, monkeypatch, capsys, value):
    """An integer option is -?[0-9]+: int() read "1_0" as 10 and " 1 " as 1
    (exit 0).  Anything else is argparse's usage error, exit 2."""
    monkeypatch.chdir(ie_files)
    capsys.readouterr()
    assert run(["sample", "--morita", "ie.json", "--count", value, "--out", "s"]) == 2
    assert "is not an integer in decimal digits" in capsys.readouterr().err
    assert not list(ie_files.glob("s*"))


@pytest.mark.parametrize("args", [[], ["bogus"], ["ext", "--src", "a.json"],
                                  ["validate", "a.json", "b.json"]])
def test_usage_errors_return_2_in_process(capsys, args):
    """main returns argparse's exit code instead of raising SystemExit."""
    capsys.readouterr()
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: morita-lab") and "error: " in err


def test_help_returns_0_in_process(capsys):
    assert cli.main(["ext", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: morita-lab ext")


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


def _entries(doc):
    if isinstance(doc, dict):
        return [e for v in doc.values() for e in _entries(v)]
    if isinstance(doc, list):
        return [e for v in doc for e in _entries(v)]
    return [doc]


def test_loader_parses_each_distinct_entry_once(tmp_path, monkeypatch):
    """Each *_from_json call parses a distinct scalar string once, and a
    later document parses its own entries again."""
    from morita_lab.fields import FieldSpec

    assert run(["catalog", "ie", "--field", "Q", "--out", tmp_path / "ieq.json"]) == 0
    assert run(["sample", "--morita", tmp_path / "ieq.json", "--count", 2,
                "--out", tmp_path / "s"]) == 0
    data = jsonio.DocumentStore().morita(tmp_path / "ieq.json")
    parsed, scalar = [], FieldSpec.scalar
    monkeypatch.setattr(FieldSpec, "scalar",
                        lambda self, value: parsed.append(value) or scalar(self, value))
    docs = [json.loads((tmp_path / f"s{i:03d}.json").read_text()) for i in range(2)]
    for doc in docs:
        jsonio.lambda_module_from_json(doc, data)
    tokens = [{e for e in _entries({k: doc[k] for k in "XYfg"}) if isinstance(e, str)}
              for doc in docs]
    assert sorted(parsed) == sorted(t for ts in tokens for t in ts)
    assert all("1/1" in ts and "0/1" in ts for ts in tokens)


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


def _raw_algebra_doc(field, change):
    """The materialized ie ring over field as a raw algebra document, with
    change applied to its raw block."""
    doc = jsonio.algebra_to_json(mor.materialize(lab.catalog("ie", field).data))
    change(doc["raw"])
    return doc


def _alias_structure_constant(raw):
    raw["structure_constants"]["-1,0"] = raw["structure_constants"]["0,0"]


def _rename_structure_constant(key):
    """A change that moves the vector of the structure-constant key "0,0"
    to key, which int() read as (0, 0) too."""
    def change(raw):
        raw["structure_constants"][key] = raw["structure_constants"].pop("0,0")
    return change


def _unit_ones(value):
    """A change that writes value for each unit entry that reads 1 (1 over
    F3, "1/1" over Q): the field's scalar parser took each of these values
    for 1."""
    def change(raw):
        raw["unit"] = [value if x in (1, "1/1") else x for x in raw["unit"]]
    return change


def _quiver_algebra_doc(change):
    """The A side of ie over F3 as a quiver algebra document, with change
    applied to it."""
    doc = jsonio.algebra_to_json(lab.catalog("ie", lab.F3).data.A)
    change(doc)
    return doc


def _twice(doc, where, key, first):
    """The JSON text of doc in which the object at the key path where names
    key twice: first with the value first, then with its own value, the one
    json.load keeps without a word."""
    obj = functools.reduce(operator.getitem, where, doc)
    items = list(obj.items())
    obj.clear()
    for k, v in items:
        if k == key:
            obj["\0"] = first
        obj[k] = v
    return json.dumps(doc).replace(json.dumps("\0"), json.dumps(key))


def _ie_f3_module_doc():
    """P_1 over the A side of ie over F3, referring to the catalog files."""
    a = lab.catalog("ie", lab.F3).data.A
    return jsonio.module_to_json(alg.indecomposable_projectives(a)[0], "ie.A.json")


def _ie_f3_quadruple_doc():
    """The quadruple L of the ie example over F3, referring to the catalog."""
    return jsonio.lambda_module_to_json(lab._ie_big_module(lab.catalog("ie", lab.F3).data),
                                        "ie.json")


MALFORMED_DOCUMENTS = {
    # AttributeError in DocumentStore.any_document and cli._load_pair
    "top-level list": (lambda: [], ["validate", "ext"]),
    # TypeError: a claim entry that is not an object
    "claims [1]": (lambda: {"version": 1, "kind": "report", "claims": [1]}, ["validate"]),
    # IndexError: more unit entries than basis elements
    "unit too long": (lambda: _raw_algebra_doc(lab.F3, lambda raw: raw["unit"].append(0)),
                      ["validate"]),
    # a negative index into the structure constants was read as the last one
    "key out of range": (lambda: _raw_algebra_doc(lab.F3, _alias_structure_constant),
                         ["validate"]),
    # keys outside the grammar [0-9]+,[0-9]+ were read by int() as (0, 0),
    # and a second key for one (i, j) replaced the first (exit 0)
    "signed key": (lambda: _raw_algebra_doc(lab.F3, _rename_structure_constant("+0,0")),
                   ["validate"]),
    "padded key": (lambda: _raw_algebra_doc(lab.F3, _rename_structure_constant(" 0,0")),
                   ["validate"]),
    "underscore key": (lambda: _raw_algebra_doc(lab.F3, _rename_structure_constant("0_0,0")),
                       ["validate"]),
    "duplicate key": (lambda: _raw_algebra_doc(lab.F3, lambda raw: raw[
        "structure_constants"].update({"00,0": raw["structure_constants"]["0,0"]})),
                      ["validate"]),
    # floats and booleans were read as the integers they round to (exit 0)
    "float entry F3": (lambda: _raw_algebra_doc(lab.F3, _unit_ones(1.4)), ["validate"]),
    "near-integral float entry F3": (lambda: _raw_algebra_doc(lab.F3, _unit_ones(1.0000001)),
                                     ["validate"]),
    "boolean entry F3": (lambda: _raw_algebra_doc(lab.F3, _unit_ones(True)), ["validate"]),
    "float entry Q": (lambda: _raw_algebra_doc(QQ, _unit_ones(1.0)), ["validate"]),
    "boolean entry Q": (lambda: _raw_algebra_doc(QQ, _unit_ones(True)), ["validate"]),
    # TypeError: unhashable type: 'list'
    "nested relation word": (lambda: _quiver_algebra_doc(
        lambda doc: doc.update(relations=[[["a1"]]])), ["validate"]),
    # a vertex named twice (exit 0)
    "duplicate vertex": (lambda: _quiver_algebra_doc(
        lambda doc: doc["quiver"].update(vertices=["1", "2", "1"])), ["validate"]),
    # strings outside the scalar grammar were parsed by Fraction or int (exit 0)
    "decimal string entry Q": (lambda: _raw_algebra_doc(QQ, _unit_ones("1.0")), ["validate"]),
    "exponent string entry Q": (lambda: _raw_algebra_doc(QQ, _unit_ones("1e0")), ["validate"]),
    "underscore string entry F3": (lambda: _raw_algebra_doc(lab.F3, _unit_ones("1_0")),
                                   ["validate"]),
    "padded string entry F3": (lambda: _raw_algebra_doc(lab.F3, _unit_ones(" 1 ")),
                               ["validate"]),
    # a boolean name became the name "True" (exit 0)
    "boolean vertex": (lambda: _quiver_algebra_doc(
        lambda doc: doc["quiver"]["vertices"].append(True)), ["validate"]),
    "boolean arrow name": (lambda: _quiver_algebra_doc(
        lambda doc: doc["quiver"]["arrows"][0].update(name=True)), ["validate"]),
    # a key written twice in one object: json.load kept the last value and
    # dropped the first silently (exit 0)
    "literal duplicate dim": (lambda: _twice(_ie_f3_module_doc(), (), "dim", 7),
                              ["validate", "ext"]),
    "literal duplicate structure constant": (lambda: _twice(
        _raw_algebra_doc(lab.F3, lambda raw: None), ("raw", "structure_constants"), "0,0",
        [0] * 8), ["validate"]),
    "literal duplicate arrow action": (lambda: _twice(
        _ie_f3_quadruple_doc(), ("X", "generator_action", "arrows"), "a1", [[0]]),
        ["validate", "ext"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_documents_exit_2(tmp_path, capsys, case):
    """Documents of the wrong shape are schema errors: exit 2 with a
    message, never a traceback."""
    build, commands = MALFORMED_DOCUMENTS[case]
    assert run(["catalog", "ie", "--field", "3", "--out", tmp_path / "ie.json"]) == 0
    bad = tmp_path / "bad.json"
    doc = build()
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argvs = {"validate": ["validate", bad], "ext": ["ext", "--src", bad, "--tgt", bad]}
    for command in commands:
        capsys.readouterr()
        assert run(argvs[command]) == 2, command
        assert capsys.readouterr().err.startswith("error: "), command


def test_integer_names_are_names_in_relation_words_too(tmp_path, capsys):
    """Vertices, arrows and the arrows of relation words follow one name
    grammar: a JSON integer names what its decimal string names."""
    def quiver_doc(name):
        return _quiver_algebra_doc(lambda doc: doc.update(
            quiver={"vertices": [name(1), name(2)],
                    "arrows": [{"name": name(7), "source": name(1), "target": name(2)}]},
            relations=[[name(7)]]))

    texts = []
    for name in (int, str):
        path = tmp_path / f"{name.__name__}.json"
        path.write_text(json.dumps(quiver_doc(name)))
        assert run(["validate", path]) == 0
        a = jsonio.DocumentStore().algebra(path)
        assert a.dim == 2 and a.relations == (("7",),)
        texts.append(jsonio.canonical_dumps(jsonio.algebra_to_json(a)))
    assert texts[0] == texts[1]
