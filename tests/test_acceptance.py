"""Acceptance gate: every criterion runs at its stated tolerance (exact
arithmetic throughout) and within its stated wall-clock budget, printing one
pass/fail line per criterion.  Every report is also compared byte for byte
with a golden digest, so a refactor that changes any verdict or witness
fails here even when the verdicts stay "pass"."""

import hashlib
import time

import pytest

from morita_lab.fields import F2, F3
from morita_lab import algebras as alg
from morita_lab import morita as mor
from morita_lab import homology as hml
from morita_lab import classes as cls
from morita_lab import jsonio
from morita_lab import lab

# SHA-256 of jsonio.canonical_dumps(report.to_dict()) for every report built
# below.  Update a digest only for a deliberate change of report content, and
# record the change.
GOLDEN = {
    "example-ie/ie-F3/20": "2aab7d44e4d63bb523d7cfc88ca55d55cd76b2eef1a238991d398d9bae12c9e7",
    "char2/ie-F2/10": "a64e697eb75a1723b38b62da41584496d0e4622cbc56f13df84afcd4cd891e89",
    "ctp4/examctp4-F3/200": "7a231b86b5b3c905352dd50a93f995007115145d896b81aba7ba00e91c837962",
    "adjunction/ie-F3/100": "57571f49e7a6473b32491e4d2111b0f22c9be7e23c0c90ad66874e99068126bc",
    "orthogonality/ie-F3/100": "876e53dc55d9625dc2c9789773656f8690131c174c6b73e25af03912cf639955",
    "compare/ie-F3/100": "e1d0e1c63020061ecf64a63a50f18fa63276159483dda6be1168d8afd08bd275",
    "completeness/examctp4-F3/100": "922faa19d0a4d99e2024d912f29b5f4a04084de31d3c9bef13d31cb978c33b8e",
    "green/ie-F3/100": "e944749a610043966fca044debd4434946264ec496240b33c78f6625cf1ff73c",
    "oracle/ie-F2/20": "37f050a6771ee25a887ab073964e5384b1da10461b3728e029ccdaaed938f976",
    "green/ie-F2/30": "26772d18a08dc1adbb22c85d45d95eba4082385edf50be30127f144334459080",
    "adjunction/ie-F2/30": "f0a3fa27f7ca7bfbe380bea5f5511ea0ed6d66c5222942d1d4a78469fbf979b7",
}


def _golden(key, rep):
    digest = hashlib.sha256(jsonio.canonical_dumps(rep.to_dict()).encode()).hexdigest()
    return digest == GOLDEN[key]


def _finish(name, ok, t0, budget, golden):
    elapsed = time.perf_counter() - t0
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, budget {budget}s)")
    assert ok
    assert golden, f"{name}: report bytes differ from the golden digest"
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.2f}s"


def _claims(report):
    return {c.id: c for c in report.claims}


def test_criterion_1_example_ie_suite():
    t0 = time.perf_counter()
    inst = lab.catalog("ie", F3)
    rep = lab.run_suite("example-ie", inst, lab.SampleConfig(count=20))
    golden = _golden("example-ie/ie-F3/20", rep)
    claims = _claims(rep)
    expected = [
        "ie.dim-lambda", "ie.tensor-M-Ae1", "ie.hom-M-Ae1", "ie.NN-vanishes",
        "ie.L-memberships", "ie.ext-L-L-nonzero", "ie.displayed-extension-split",
        "ie.projdim-L", "ie.Ae1-zero-module", "ie.TA-S2-projective",
        "ie.witness-first-vs-second", "ie.witness-first-vs-third",
        "ie.witness-second-vs-third", "ie.witness-third-vs-fourth",
    ]
    ok = rep.passed and all(claims[e].verdict == "pass" for e in expected)
    _finish("1 (two-vertex worked example, F_3)", ok, t0, 1.0, golden)


def test_criterion_2_characteristic_sensitivity():
    t0 = time.perf_counter()
    inst = lab.catalog("ie", F2)
    rep = lab.run_suite("char2", inst, lab.SampleConfig(count=10))
    golden = _golden("char2/ie-F2/10", rep)
    claims = _claims(rep)
    ok = rep.passed and claims["char2.displayed-extension-splits"].verdict == "pass"
    _finish("2 (the displayed extension splits over F_2)", ok, t0, 1.0, golden)


def test_criterion_3_gorenstein_suite():
    t0 = time.perf_counter()
    inst = lab.catalog("examctp4", F3, n=3, h=2, i=1, j=3)
    rep = lab.run_suite("ctp4", inst, lab.SampleConfig(count=200))
    golden = _golden("ctp4/examctp4-F3/200", rep)
    claims = _claims(rep)
    ok = rep.passed
    ok = ok and inst.properties["A_self_injective"]
    ok = ok and claims["ctp4.gp-eq-mon"].witness["count"] >= 200
    ok = ok and not claims["ctp4.gp-eq-mon"].witness["mismatches"]
    ok = ok and claims["ctp4.gi-eq-epi"].witness["count"] >= 200
    ok = ok and not claims["ctp4.gi-eq-epi"].witness["mismatches"]
    ok = ok and claims["resolutions.pq"].witness["count"] >= 50
    ok = ok and claims["resolutions.ij"].witness["count"] >= 50
    _finish("3 (self-injective instance: Gorenstein classes)", ok, t0, 60.0, golden)


def test_criterion_4_adjunction_identities():
    t0 = time.perf_counter()
    inst = lab.catalog("ie", F3)
    rep = lab.run_suite("adjunction", inst, lab.SampleConfig(count=100))
    golden = _golden("adjunction/ie-F3/100", rep)
    claims = _claims(rep)
    ok = rep.passed
    for i in (1, 2):
        for j in (1, 2, 3, 4):
            c = claims[f"adjunction.extadj{i}.{j}"]
            ok = ok and c.witness["checked"] >= 100 and not c.witness["mismatches"]
    _finish("4 (eight Ext-adjunction identities)", ok, t0, 60.0, golden)


def test_criterion_5_orthogonality_descriptions():
    t0 = time.perf_counter()
    inst = lab.catalog("ie", F3)
    rep = lab.run_suite("orthogonality", inst, lab.SampleConfig(count=100))
    golden = _golden("orthogonality/ie-F3/100", rep)
    claims = _claims(rep)
    ok = rep.passed
    for cid in ("orthogonality.destheta.1", "orthogonality.destheta.2",
                "orthogonality.desdelta.1", "orthogonality.desdelta.2"):
        ok = ok and claims[cid].witness["checked"] >= 100
    rep2 = lab.run_suite("compare", inst, lab.SampleConfig(count=100))
    golden = golden and _golden("compare/ie-F3/100", rep2)
    ok = ok and rep2.passed
    for c in rep2.claims:
        ok = ok and c.witness["checked"] >= 100 and not c.witness["failures"]
    _finish("5 (orthogonal-description biconditionals)", ok, t0, 60.0, golden)


def test_criterion_6_completeness_constructions():
    t0 = time.perf_counter()
    inst = lab.catalog("examctp4", F3, n=3, h=2, i=1, j=3)
    rep = lab.run_suite("completeness", inst, lab.SampleConfig(count=100))
    golden = _golden("completeness/examctp4-F3/100", rep)
    claims = _claims(rep)
    ok = rep.passed
    for cid in ("completeness.c1", "completeness.c2", "completeness.c3",
                "completeness.c4"):
        ok = ok and claims[cid].witness["count"] >= 100
        ok = ok and not claims[cid].witness["failures"]
    for cid in ("completeness.ctp2-1", "completeness.ctp2-2",
                "completeness.ctp3-1", "completeness.ctp3-2"):
        ok = ok and claims[cid].verdict == "pass"
    ok = ok and claims["completeness.triangular"].verdict == "pass"
    _finish("6 (approximation constructions)", ok, t0, 60.0, golden)


def test_criterion_7_green_correspondence():
    t0 = time.perf_counter()
    inst = lab.catalog("ie", F3)
    rep = lab.run_suite("green", inst, lab.SampleConfig(count=100))
    golden = _golden("green/ie-F3/100", rep)
    claims = _claims(rep)
    ok = rep.passed
    ok = ok and claims["green.roundtrip"].witness["count"] >= 100
    ok = ok and claims["green.hom-dimension"].witness["count"] >= 100
    ok = ok and claims["green.exactness-correspondence"].witness["count"] >= 50
    for name, params in (("ie", {}), ("a2", {}), ("triangular", {}),
                         ("product", {}), ("irem1", {}),
                         ("examctp4", dict(n=3, h=2, i=1, j=3))):
        other = lab.catalog(name, F3, **params)
        simples = mor.lambda_simples(other.data)
        want = (len(other.data.A.quiver.vertices)
                + len(other.data.B.quiver.vertices))
        ok = ok and len(simples) == want
    _finish("7 (category correspondence round trips)", ok, t0, 30.0, golden)


def test_criterion_8_oracle_crosscheck():
    t0 = time.perf_counter()
    inst = lab.catalog("ie", F2)
    rep = lab.run_suite("oracle", inst, lab.SampleConfig(count=20))
    golden = _golden("oracle/ie-F2/20", rep)
    claims = _claims(rep)
    ok = rep.passed
    for tag in ("product", "ie"):
        ok = ok and claims[f"oracle.projectivity-two-routes-{tag}"].verdict == "pass"
        ok = ok and claims[f"oracle.green-exhaustive-{tag}"].verdict == "pass"
        ok = ok and claims[f"oracle.adjunction-exhaustive-{tag}"].verdict == "pass"
    # the sampled suites reach the same verdicts as the exhaustive ones
    sampled_green = lab.run_suite("green", inst, lab.SampleConfig(count=30))
    sampled_adj = lab.run_suite("adjunction", inst, lab.SampleConfig(count=30))
    golden = (golden and _golden("green/ie-F2/30", sampled_green)
              and _golden("adjunction/ie-F2/30", sampled_adj))
    ok = ok and (sampled_green.passed
                 == (claims["oracle.green-exhaustive-ie"].verdict == "pass"))
    ok = ok and (sampled_adj.passed
                 == (claims["oracle.adjunction-exhaustive-ie"].verdict == "pass"))
    _finish("8 (exhaustive oracle agreement)", ok, t0, 120.0, golden)
