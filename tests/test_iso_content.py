"""Isomorphism is answered from content first: two modules over one algebra,
or two quadruples over one Morita data, whose content keys are equal are
isomorphic by the identity, with no hom space solved and no search.
Quadruples over two Morita data are refused."""

import pytest

from morita_lab import algebras as alg
from morita_lab import classes as cls
from morita_lab import lab
from morita_lab import morita as mor
from morita_lab.fields import F3, QQ, FieldSpec

FIELDS = [F3, QQ, FieldSpec("prime", (1 << 31) - 1)]
IDS = ["F3", "QQ", "F2147483647"]


def _solved(cache, tag):
    """The keys of the hom memo tag in cache."""
    return {k for k in cache if isinstance(k, tuple) and k[0] == tag}


def _copy(x):
    return alg.Module(x.algebra, x.dim, x.action.copy())


def _copy_quadruple(l):
    return mor.LambdaModule(l.data, _copy(l.X), _copy(l.Y), l.f.copy(), l.g.copy())


def _zero_quadruple(data):
    fld = data.field
    return mor.LambdaModule(data, alg.zero_module(data.A), alg.zero_module(data.B),
                            fld.zeros(0, 0), fld.zeros(0, 0))


def _assert_identity_witness(iso, source, target):
    assert iso.status == "isomorphic"
    phi = iso.witness
    assert phi.source is source and phi.target is target
    fld = source.field
    assert all(fld.equal(c, fld.eye(len(c))) for c in phi.components)
    phi.validate()


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_content_equal_copies_are_isomorphic_by_the_identity(field):
    """A module or quadruple rebuilt from copies of its arrays is
    isomorphic to it by the identity, and no hom space is solved."""
    data = lab.catalog("ie", field).data
    sampler = lab.Sampler(25, dim_cap=5, rank_cap=2)
    caches = ((data.A._cache, "hom space"), (data.B._cache, "hom space"),
              (data._cache, "lambda hom space"))
    mods = [sampler.plain(data.A) for _ in range(4)] + [alg.zero_module(data.A)]
    quads = [sampler.quadruple(data) for _ in range(4)] + [_zero_quadruple(data)]
    assert any(x.dim for x in mods) and any(l.total_dim for l in quads)
    cases = ([(x, _copy(x), alg.module_isomorphism) for x in mods]
             + [(l, _copy_quadruple(l), mor.lambda_isomorphism) for l in quads])
    for x, y, test in cases:
        assert y is not x and y.content_key() == x.content_key()
        before = [_solved(cache, tag) for cache, tag in caches]
        iso = test(x, y)
        assert [_solved(cache, tag) for cache, tag in caches] == before
        _assert_identity_witness(iso, x, y)


def test_zero_witnesses_are_morphisms_from_source_to_target():
    data = lab.catalog("ie", F3).data
    x, y = alg.zero_module(data.A), alg.zero_module(data.A)
    iso = alg.module_isomorphism(x, y)
    assert isinstance(iso.witness, alg.ModuleMorphism)
    _assert_identity_witness(iso, x, y)
    l1, l2 = _zero_quadruple(data), _zero_quadruple(data)
    iso = mor.lambda_isomorphism(l1, l2)
    assert isinstance(iso.witness, mor.LambdaMorphism)
    _assert_identity_witness(iso, l1, l2)


def test_quadruples_over_two_morita_data_are_refused():
    """Zero quadruples, quadruples of different dimensions and quadruples
    of equal dimensions are all refused when their data differ."""
    d1, d2 = lab.catalog("ie", F3).data, lab.catalog("ie", F3).data
    assert d1 is not d2
    s1, s2 = mor.lambda_simples(d1), mor.lambda_simples(d2)
    big = mor.functor_T(d2, "A", alg.indecomposable_projectives(d2.A)[0])
    assert s1[0].dims == s2[0].dims and s1[0].dims != big.dims
    for l1, l2 in ((_zero_quadruple(d1), _zero_quadruple(d2)),
                   (s1[0], big), (s1[0], s2[0])):
        with pytest.raises(ValueError, match="common Morita data"):
            mor.lambda_isomorphism(l1, l2)


def test_completeness_searches_only_pairs_of_different_content(monkeypatch):
    """verify completeness asks many isomorphisms between modules of equal
    content; none of them reaches the invertible-combination search."""
    asked, searched = [], []
    isomorphism, search = alg.module_isomorphism, alg._invertible_combination

    def asking(x, y):
        asked.append(x.content_key() == y.content_key())
        return isomorphism(x, y)

    def searching(field, basis):
        searched.append(asked[-1])
        return search(field, basis)

    for module in (alg, cls):
        monkeypatch.setattr(module, "module_isomorphism", asking)
    monkeypatch.setattr(alg, "_invertible_combination", searching)
    inst = lab.catalog("examctp4", F3, n=3, h=2, i=1, j=3)
    lab.run_suite("completeness", inst, lab.SampleConfig(count=10))
    assert True in asked and False in searched
    assert not any(searched)
