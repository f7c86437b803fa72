"""What a document's content has proved is kept for the process: each
distinct module or quadruple content is validated once over the kept
algebra or Morita data it lives over (jsonio._validated), and an algebra,
bimodule or Morita document is recognised by its file's bytes
(jsonio._SOURCES, jsonio._DEFINITIONS).  Every file is still read, and every
module or quadruple document still parsed, by every command."""

import collections
import json

import pytest

from morita_lab import algebras as alg
from morita_lab import cli
from morita_lab import jsonio
from morita_lab import morita as mor


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def ie_q(tmp_path, monkeypatch, capsys):
    """The ie catalog over Q and one sampled quadruple s000.json, in the
    current directory."""
    monkeypatch.chdir(tmp_path)
    assert run("catalog", "ie", "--field", "Q", "--out", "ie.json") == 0
    assert run("sample", "--morita", "ie.json", "--seed", 1, "--count", 1, "--out", "s") == 0
    return tmp_path


def count_validations(monkeypatch):
    """A Counter of Module.validate and LambdaModule.validate calls from now
    on, under the keys "module" and "quadruple"."""
    counts = collections.Counter()
    for owner, name in ((alg.Module, "module"), (mor.LambdaModule, "quadruple")):
        monkeypatch.setattr(owner, "validate", lambda self, check=owner.validate, name=name:
                            counts.update([name]) or check(self))
    return counts


def test_a_quadruple_is_validated_once_for_every_command(ie_q, monkeypatch):
    """ext, classify twice and resolve on one quadruple check X and Y once
    each and the quadruple once in all, though each command reads and
    parses the file again."""
    counts = count_validations(monkeypatch)
    parsed = []
    monkeypatch.setattr(jsonio, "lambda_module_from_json", lambda doc, data, parse=(
        jsonio.lambda_module_from_json): parsed.append(1) or parse(doc, data))
    for argv in (["ext", "--src", "s000.json", "--tgt", "s000.json"],
                 ["classify", "--module", "s000.json", "--class", "mon"],
                 ["classify", "--module", "s000.json", "--class", "epi"],
                 ["resolve", "--module", "s000.json", "--kind", "present", "--out", "r.json"]):
        assert run(*argv) == 0, argv
    assert counts == {"module": 2, "quadruple": 1}
    assert len(parsed) == 5


def _irem1_quadruple(field_token):
    """The irem1 catalog over the field, and the document of the quadruple
    (A, A, f = 0, g = 1) over it, whose structure maps are module maps
    with g(1 (x) f) = 0 = f(1 (x) g)."""
    assert run("catalog", "irem1", "--field", field_token, "--out", "irem1.json") == 0
    data = jsonio.DocumentStore().morita("irem1.json")
    x, y = alg.free_module(data.A, 1), alg.free_module(data.B, 1)
    fld = data.field
    l = mor.LambdaModule(data, x, y, fld.zeros(y.dim, x.dim), fld.eye(x.dim))
    return jsonio.lambda_module_to_json(l, "irem1.json")


@pytest.mark.parametrize("field", ["3", "Q"])
def test_a_rewritten_quadruple_is_validated_anew(tmp_path, monkeypatch, capsys, field):
    """A quadruple rewritten at its path with f = 1, which breaks
    g(1 (x) f) = 0, fails every time it is read; the content that passed
    before passes again when restored, without a second check."""
    monkeypatch.chdir(tmp_path)
    doc = _irem1_quadruple(field)
    good = jsonio.canonical_dumps(doc)
    path = tmp_path / "s000.json"
    path.write_text(good)
    assert run("validate", path) == 0
    doc["f"] = doc["g"]
    path.write_text(jsonio.canonical_dumps(doc))
    for _ in range(2):
        capsys.readouterr()
        assert run("validate", path) == 2
        assert "compatibility" in capsys.readouterr().err
    counts = count_validations(monkeypatch)
    path.write_text(good)
    assert run("validate", path) == 0
    assert run("classify", "--module", path, "--class", "mon") == 0
    assert counts == {}


def test_a_definition_is_kept_by_its_bytes(ie_q, monkeypatch):
    """Unchanged definition files are read but not parsed again, and give
    the kept objects; the same JSON with new whitespace is new bytes, so
    it is built and validated anew.  Module and quadruple documents are
    parsed by every read."""
    data = jsonio.DocumentStore().morita("ie.json")
    parses = []
    monkeypatch.setattr(jsonio.json, "loads", lambda text, loads=json.loads, **kw:
                        parses.append(1) or loads(text, **kw))
    assert jsonio.DocumentStore().morita("ie.json") is data
    assert parses == []
    kept, quadruple = (str(ie_q / name) for name in ("ie.A.json", "s000.json"))
    assert jsonio.load_raw(kept) is jsonio.load_raw(kept)
    assert jsonio.load_raw(quadruple) is not jsonio.load_raw(quadruple)
    assert len(parses) == 2

    text = (ie_q / "ie.A.json").read_text()
    respaced = json.dumps(json.loads(text), indent=4)
    assert respaced != text
    (ie_q / "ie.A.json").write_text(respaced)
    counts = count_validations(monkeypatch)
    assert run("validate", "ie.json") == 0
    renewed = jsonio.DocumentStore().morita("ie.json")
    assert renewed is not data and renewed.A is not data.A and renewed.B is data.B
    assert counts["module"] > 0  # M and N over the new A are checked again
    assert run("classify", "--module", "s000.json", "--class", "mon") == 0
    assert counts["quadruple"] == 1
