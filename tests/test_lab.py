import hashlib

import pytest

from morita_lab.fields import F2, F3, field_from_token
from morita_lab import algebras as alg
from morita_lab import classes as cls
from morita_lab import jsonio
from morita_lab import morita as mor
from morita_lab import homology as hml
from morita_lab import lab


def test_catalog_ie():
    inst = lab.catalog("ie", F3)
    assert mor.materialize(inst.data).dim == 8
    assert inst.properties["mn_vanishes"] and inst.properties["nm_vanishes"]


def test_catalog_examctp4():
    inst = lab.catalog("examctp4", F3, n=3, h=2, i=1, j=3)
    assert mor.materialize(inst.data).dim == 20
    assert inst.properties["A_self_injective"]
    assert inst.properties["corner_vanishes"]


def test_catalog_examctp4_rejects_bad_params():
    with pytest.raises(ValueError):
        lab.catalog("examctp4", F3, n=3, h=2, i=1, j=2)  # j - i < h
    with pytest.raises(ValueError):
        lab.catalog("examctp4", F3, n=3, h=4, i=1, j=3)  # h > n


def test_catalog_product_and_unknown():
    inst = lab.catalog("product", F3)
    assert mor.materialize(inst.data).dim == 2
    with pytest.raises(ValueError):
        lab.catalog("mystery", F3)


def test_catalog_irem1():
    inst = lab.catalog("irem1", F3)
    assert inst.properties["mn_nonzero"]


def test_sampler_determinism():
    inst = lab.catalog("ie", F3)
    s1 = lab.Sampler(123, 12, 4)
    s2 = lab.Sampler(123, 12, 4)
    for _ in range(5):
        l1 = s1.quadruple(inst.data)
        l2 = s2.quadruple(inst.data)
        assert mor.lambda_modules_equal(l1, l2)


def test_sampler_respects_caps():
    inst = lab.catalog("examctp4", F3, n=3, h=2, i=1, j=3)
    s = lab.Sampler(7, dim_cap=6, rank_cap=3)
    for _ in range(20):
        l = s.quadruple(inst.data)
        assert l.X.dim <= 6 and l.Y.dim <= 6


def test_sampler_compatibility_on_irem1():
    inst = lab.catalog("irem1", F3)
    s = lab.Sampler(5, 8, 2)
    for _ in range(10):
        l = s.quadruple(inst.data)
        l.validate()


def test_enumerate_product_counts():
    inst = lab.catalog("product", F2)
    universe = lab.enumerate_small(inst.data, 1)
    dims = sorted(l.total_dim for l in universe)
    assert dims == [0, 1, 1]


def test_enumerate_ie_regression():
    inst = lab.catalog("ie", F2)
    universe = lab.enumerate_small(inst.data, 2)
    counts = {}
    for l in universe:
        counts[l.total_dim] = counts.get(l.total_dim, 0) + 1
    # frozen by the exhaustive run: 1 zero class, 4 of dim 1, 14 of dim 2
    assert counts == {0: 1, 1: 4, 2: 14}


def test_enumerate_caps_enforced():
    inst = lab.catalog("ie", F3)
    for cap in (5, -1):
        with pytest.raises(ValueError):
            lab.enumerate_small(inst.data, cap)


def test_mon_sampling_regression():
    """Sampling over the ie instance hits a non-Mon member quickly; the hit
    index on the fixed stream is a frozen regression value."""
    inst = lab.catalog("ie", F3)
    s = lab.Sampler(lab.SampleConfig().child("mon-regression"), 12, 4)
    from morita_lab import classes as cls

    first_non_mon = None
    for i in range(50):
        l = s.quadruple(inst.data)
        if not cls.in_mon(l):
            first_non_mon = i
            break
    assert first_non_mon is not None and first_non_mon <= 10


def test_report_shape_and_determinism():
    inst = lab.catalog("ie", F3)
    cfg = lab.SampleConfig(count=5)
    r1 = lab.run_suite("green", inst, cfg).to_dict()
    r2 = lab.run_suite("green", lab.catalog("ie", F3), cfg).to_dict()
    assert r1 == r2
    assert r1["kind"] == "report" and r1["version"] == 1
    assert all({"id", "paper_anchor", "verdict", "witness"} <= set(c)
               for c in r1["claims"])
    ids = [c["id"] for c in r1["claims"]]
    assert ids == sorted(ids)


def test_run_suite_unknown():
    inst = lab.catalog("ie", F3)
    with pytest.raises(ValueError):
        lab.run_suite("nope", inst)


def test_preflight_reported_not_thrown():
    inst = lab.catalog("ie", F3)  # not quasi-Frobenius
    rep = lab.run_suite("ctp4", inst, lab.SampleConfig(count=5))
    assert not rep.passed
    assert any(c.id == "ctp4.preflight" and c.verdict == "fail" for c in rep.claims)


def test_char2_preflight():
    inst = lab.catalog("ie", F3)
    rep = lab.run_suite("char2", inst, lab.SampleConfig(count=5))
    assert not rep.passed  # needs F_2


def test_rational_instance_flow():
    """The worked example behaves identically over Q (characteristic 0)."""
    from morita_lab.fields import QQ
    from morita_lab import classes as cls

    inst = lab.catalog("ie", QQ)
    big = lab._ie_big_module(inst.data)
    assert cls.in_mon(big) and cls.in_epi(big)
    assert hml.ext_dim(big, big, 1) == 1
    ses = lab._ie_displayed_extension(inst.data, big)
    split, _ = hml.splits(ses)
    assert not split
    assert hml.proj_dim_upto(big, 3) == 1
    rep = lab.run_suite("example-ie", inst, lab.SampleConfig(count=5))
    assert rep.passed


def test_zero_module_flows_through_everything():
    from morita_lab import classes as cls

    inst = lab.catalog("ie", F3)
    data = inst.data
    z = mor.functor_Z(data, "A", alg.zero_module(data.A))
    assert z.total_dim == 0
    assert cls.in_mon(z) and cls.in_epi(z)
    assert cls.projective_by_shape(z) and cls.injective_by_shape(z)
    assert hml.ext_dim(z, z, 1) == 0
    assert hml.proj_dim_upto(z, 2) == 0
    assert hml.inj_dim_upto(z, 2) == 0
    pres = hml.lambda_presentation(z)
    assert pres.middle.total_dim == 0
    big = lab._ie_big_module(data)
    assert hml.ext_dim(z, big, 1) == 0
    assert hml.ext_dim(big, z, 1) == 0
    assert mor.lambda_hom_dim(z, big) == 0
    flat = mor.flatten(z)
    assert flat.dim == 0
    back = mor.unflatten(data, flat)
    assert back.total_dim == 0


def test_sampler_total_dimension_cap():
    inst = lab.catalog("examctp4", F3, n=3, h=2, i=1, j=3)
    s = lab.Sampler(99, dim_cap=12, rank_cap=4)
    for _ in range(30):
        l = s.quadruple(inst.data)
        assert l.total_dim <= 12


def test_green_suite_on_nonvanishing_tensors():
    inst = lab.catalog("irem1", F3)
    rep = lab.run_suite("green", inst, lab.SampleConfig(count=15))
    assert rep.passed


def test_operation_aliases():
    from morita_lab.homology import ext_class_is_zero, presentation, pushout_extension, splits

    inst = lab.catalog("ie", F3)
    x = lab._sampler(lab.SampleConfig(count=1), "sample_module").plain(inst.data.A)
    l = lab._sampler(lab.SampleConfig(count=1), "sample_module").quadruple(inst.data)
    assert x.algebra is inst.data.A and l.data is inst.data
    pres = presentation(x)
    assert pres.right is x and pres.tops == (alg.cover_vertices(x),)  # the cover
    lpres = presentation(l)
    assert lpres.right is l
    # the zero class of Ext^1(l, l), pushed out along K -> l
    k, fld = lpres.left, l.field
    zero = mor.LambdaMorphism(k, l, fld.zeros(l.X.dim, k.X.dim), fld.zeros(l.Y.dim, k.Y.dim))
    ses, _ = pushout_extension(lpres, zero)
    assert ses.left is l and ses.right is l
    assert splits(ses)[0] and ext_class_is_zero(ses)


def test_larger_parametrized_instance():
    """A different admissible parameter tuple exercises the same machinery."""
    from morita_lab import classes as cls

    inst = lab.catalog("examctp4", F3, n=5, h=2, i=1, j=4)
    assert inst.properties["A_self_injective"]
    cert = cls.GorensteinCertificate(inst.data)
    assert cert.ok, cert.reasons
    s = lab.Sampler(71, 10, 3)
    for i in range(12):
        l = s.quadruple(inst.data, mono_bias=(i % 2 == 0))
        assert cls.gp_member(cert, l) == cls.in_mon(l)
        assert cls.gi_member(cert, l) == cls.in_epi(l)


def test_ctp4_instance_over_f2():
    from morita_lab import classes as cls

    inst = lab.catalog("examctp4", F2, n=3, h=2, i=1, j=3)
    cert = cls.GorensteinCertificate(inst.data)
    assert cert.ok, cert.reasons
    s = lab.Sampler(73, 10, 3)
    for i in range(10):
        l = s.quadruple(inst.data, mono_bias=(i % 2 == 0))
        assert cls.gp_member(cert, l) == cls.in_mon(l)


def test_claim_runner_rejection_cap_and_failure_entries():
    rep = lab.VerificationReport("runner", "none", lab.SampleConfig())
    draws = []

    def always_rejected(sampler, i):
        assert isinstance(sampler, lab.Sampler)
        draws.append(i)
        return None

    lab._sampled_claim(rep, "runner.rejected", "t", rep.cfg, "runner", 3,
                       always_rejected, lambda case: False, counted="checked")
    assert len(draws) == 60 * 3

    results = [False, True, (7, 8), "why", ["pair1", True], None]
    cases = lab._sampled_claim(rep, "runner.fixed", "t", rep.cfg, None, len(results),
                               lambda sampler, i: i, results.__getitem__)
    assert cases == list(range(6))

    def refuse(i):
        raise ValueError(f"refused {i}")

    lab._sampled_claim(rep, "runner.refused", "t", rep.cfg, None, 2,
                       lambda sampler, i: i, refuse, counted="checked", failed="mismatches")
    lab._sampled_claim(rep, "runner.holds", "t", rep.cfg, None, 2,
                       lambda sampler, i: i, lambda i: None, counted=None, keep=1)
    claims = {c.id: (c.verdict, c.witness) for c in rep.claims}
    assert claims == {
        "runner.rejected": ("fail", {"checked": 0, "failures": []}),
        "runner.fixed": ("fail", {"count": 6,
                                  "failures": [1, (2, 7, 8), (3, "why"), "pair1", 4]}),
        "runner.refused": ("fail", {"checked": 2,
                                    "mismatches": [(1, "refused 0"), (2, "refused 1")]}),
        "runner.holds": ("pass", {"failures": []}),
    }

    def breach(i):
        raise AssertionError("invariant")

    with pytest.raises(AssertionError):
        lab._sampled_claim(rep, "runner.breach", "t", rep.cfg, None, 1,
                           lambda sampler, i: i, breach)


# SHA-256 of jsonio.canonical_dumps(report.to_dict()) for the suites and
# instances that tests/test_acceptance.py does not build, so every suite's
# report bytes are pinned over small primes, over primes above 2^25 (all
# primes run on int64 arrays; at 2^31 - 1 FieldSpec.matmul reduces its sums
# after every 2 products) and over Q (object arrays of Fractions).
# An instance is written name-F<p> or name-Q.  Update a digest only for a
# deliberate change of report content, and record the change.
GOLDEN = {
    "differences/ie-F3/100": "ad31ef787bcac8d857aff962eaec6ef8f2ce6e5631e65b7122931b6c659d367b",
    "hovey/examctp4-F3/100": "9029a4b8a7b3da147fd627fac4b01ab67a7f5c2c135e5f74dfd61db07706e1f1",
    "resolutions/ie-F3/100": "7346f55b6947249e68d9dcf85f9f48d7c4b774c8a5b27700a3acc0c5e782e5ab",
    "green/examctp4-F3/100": "fdfe0fa02ac621375901e3838d696e393b3aad0612312f1055ae954cb6c667be",
    "resolutions/ie-Q/30": "e3e1a9e51640d1d940f46ae7403956b6b168e71111b01c2cd445d37b1a153087",
    "differences/ie-Q/30": "46377f1b4596a8cad8411339daa2065e610ef46827e594f151b280500a357719",
    "green/ie-Q/30": "26772d18a08dc1adbb22c85d45d95eba4082385edf50be30127f144334459080",
    "compare/ie-Q/30": "782ddc3b0c3ccec78463c8a9b9affe8f78f715d38bbf0a618ce0631946153416",
    "green/examctp4-Q/5": "cb8f5c8880777c43bedd9860dfbcc6ad906516bd055568bf596be16379b11d0f",
    "resolutions/ie-F33554467/30": "e3e1a9e51640d1d940f46ae7403956b6b168e71111b01c2cd445d37b1a153087",
    "differences/ie-F33554467/30": "46377f1b4596a8cad8411339daa2065e610ef46827e594f151b280500a357719",
    "green/ie-F33554467/30": "26772d18a08dc1adbb22c85d45d95eba4082385edf50be30127f144334459080",
    "compare/ie-F33554467/30": "782ddc3b0c3ccec78463c8a9b9affe8f78f715d38bbf0a618ce0631946153416",
    "green/examctp4-F33554467/5": "cb8f5c8880777c43bedd9860dfbcc6ad906516bd055568bf596be16379b11d0f",
    "resolutions/ie-F2147483647/30": "e3e1a9e51640d1d940f46ae7403956b6b168e71111b01c2cd445d37b1a153087",
    "differences/ie-F2147483647/30": "46377f1b4596a8cad8411339daa2065e610ef46827e594f151b280500a357719",
    "green/ie-F2147483647/30": "26772d18a08dc1adbb22c85d45d95eba4082385edf50be30127f144334459080",
    "compare/ie-F2147483647/30": "782ddc3b0c3ccec78463c8a9b9affe8f78f715d38bbf0a618ce0631946153416",
    "green/examctp4-F2147483647/5": "cb8f5c8880777c43bedd9860dfbcc6ad906516bd055568bf596be16379b11d0f",
}
PARAMS = {"ie": {}, "examctp4": dict(n=3, h=2, i=1, j=3)}


def _instance_field(instance):
    """The (catalog name, field) of a golden key's instance part."""
    name, token = instance.rsplit("-", 1)
    return name, field_from_token(token.removeprefix("F"))


def _field_kind(field):
    """Q, or a prime, told apart by its modulus: above 2^30, (p-1)^2 exceeds
    2^60, so FieldSpec.matmul reduces any sum of more than 7 products in
    chunks."""
    if field.kind == "rational":
        return "Q"
    return "prime above 2^30" if field.p > 1 << 30 else "prime"


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_golden_digest(key):
    suite, instance, count = key.split("/")
    name, field = _instance_field(instance)
    inst = lab.catalog(name, field, **PARAMS[name])
    rep = lab.run_suite(suite, inst, lab.SampleConfig(count=int(count)))
    text = jsonio.canonical_dumps(rep.to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[key]


def test_every_suite_has_a_golden_digest():
    from test_acceptance import GOLDEN as ACCEPTANCE_GOLDEN

    keys = [*GOLDEN, *ACCEPTANCE_GOLDEN]
    pinned = {key.split("/")[0] for key in keys}
    assert set(lab.SUITES) <= pinned, sorted(set(lab.SUITES) - pinned)
    kinds = {_field_kind(_instance_field(key.split("/")[1])[1]) for key in keys}
    assert kinds == {"prime", "prime above 2^30", "Q"}, sorted(kinds)


def test_value_error_in_a_case_records_its_text(monkeypatch):
    def refuse(l):
        raise ValueError("injected refusal")

    monkeypatch.setattr(cls, "projective_by_shape", refuse)
    rep = lab.run_suite("resolutions", lab.catalog("ie", F3), lab.SampleConfig(count=1))
    claim = {c["id"]: c for c in rep.to_dict()["claims"]}["resolutions.pq"]
    assert claim["verdict"] == "fail"
    assert claim["witness"] == {"count": 50,
                                "failures": [[i, "injected refusal"] for i in range(50)]}


def test_undetermined_shape_fails_as_undetermined(monkeypatch):
    """An isomorphism test that cannot tell fails the c1-c4 case as
    "undetermined", not as a wrong shape."""
    monkeypatch.setattr(alg, "module_isomorphism",
                        lambda x, y: alg.IsoResult("undetermined"))
    inst = lab.catalog("examctp4", F3, **PARAMS["examctp4"])
    rep = lab.run_suite("completeness", inst, lab.SampleConfig(count=2))
    claims = {c["id"]: c for c in rep.to_dict()["claims"]}
    for k in range(1, 5):
        claim = claims[f"completeness.c{k}"]
        assert claim["verdict"] == "fail"
        assert claim["witness"] == {"count": 2,
                                    "failures": [[0, "undetermined"], [1, "undetermined"]]}


def test_undetermined_isomorphism_is_named_in_example_ie(monkeypatch):
    """ie.tensor-M-Ae1 and ie.hom-M-Ae1 fail when the isomorphism test
    cannot tell, and their witness says so, so the failure does not read as
    a refutation; the dimension is reported as before."""
    monkeypatch.setattr(alg, "module_isomorphism",
                        lambda x, y: alg.IsoResult("undetermined"))
    rep = lab.run_suite("example-ie", lab.catalog("ie", F3), lab.SampleConfig(count=2))
    claims = {c["id"]: c for c in rep.to_dict()["claims"]}
    for cid in ("ie.tensor-M-Ae1", "ie.hom-M-Ae1"):
        assert claims[cid]["verdict"] == "fail"
        assert claims[cid]["witness"] == {"dim": 1, "isomorphism": "undetermined"}


def test_hovey_heredity_probe_asks_each_membership_once(monkeypatch):
    """The heredity probe decides each (class spec, pool member) membership
    once for the whole suite, not once per pair."""
    pools = []

    def no_ingredients(spec, pool, sess, members):
        pools.append(len(pool))
        return []

    calls = []
    contains = cls.LambdaClassSpec.contains

    def counting(self, l):
        calls.append(self)
        return contains(self, l)

    monkeypatch.setattr(cls, "hovey_ingredients_check", no_ingredients)
    monkeypatch.setattr(cls.LambdaClassSpec, "contains", counting)
    inst = lab.catalog("examctp4", F3, **PARAMS["examctp4"])
    lab.run_suite("hovey", inst, lab.SampleConfig(count=100))
    specs = len(lab._frobenius_hovey_specs(inst.data))
    assert calls and len(calls) <= specs * 4 * pools[0]


def test_hovey_asks_each_membership_once(monkeypatch):
    """Over a whole hovey run, the ingredient checks, the heredity probe and
    the product instance share one membership table: contains runs at most
    once per distinct (class spec, module)."""
    asked = []
    contains = cls.LambdaClassSpec.contains

    def counting(self, l):
        asked.append((self, l))  # holding both keeps their ids distinct
        return contains(self, l)

    monkeypatch.setattr(cls.LambdaClassSpec, "contains", counting)
    inst = lab.catalog("examctp4", F3, **PARAMS["examctp4"])
    lab.run_suite("hovey", inst, lab.SampleConfig(count=100))
    keys = [(id(spec), id(l)) for spec, l in asked]
    assert keys and len(keys) == len(set(keys))
