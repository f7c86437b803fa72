"""The content memos of hom_space, lambda_hom_space, ext_dim and
projective_sum: a hit gives the bytes of a fresh build, different contents
never share an entry, and morphisms from a hit belong to the caller."""

import pytest

from morita_lab import algebras as alg
from morita_lab import homology as hml
from morita_lab import lab
from morita_lab import morita as mor
from morita_lab.fields import F3, QQ, FieldSpec

FIELDS = pytest.mark.parametrize("field", [F3, QQ, FieldSpec("prime", 33554467)],
                                 ids=["F3", "QQ", "bigprime"])


def _kA2(field):
    """A fresh path algebra of 1 -> 2, so that its memos start empty."""
    return alg.path_algebra(alg.linear_quiver(2), [], field, name="kA2")


def _ie(field):
    a = _kA2(field)
    m = alg.corner_bimodule(a, "2", "1")
    return mor.MoritaData(a, a, m, m, name="ie")


def _arrow_module(algebra, entry):
    """k -> k with the arrow acting by entry, built from fresh arrays."""
    f = algebra.field
    return alg.Module(algebra, 2, [
        f.asmatrix([[1, 0], [0, 0]] if src == "1" else [[0, 0], [0, 1]]) if not word
        else f.asmatrix([[0, 0], [entry, 0]])
        for word, src, _ in algebra.path_words])


def _bytes(arr):
    return arr.dtype.str, arr.shape, [repr(v) for v in arr.ravel().tolist()]


def _entries(store, tag):
    return [key for key in store if isinstance(key, tuple) and key[0] == tag]


def _t_pair(data, side):
    """T_A(P_1) = (P_1; M (x) P_1) with f = 1, or T_B(P_1) = (N (x) P_1;
    P_1) with g = 1, and the same quadruple with that map 0: equal
    components and equal other map, and Hom spaces of dimension 1 and 2."""
    fld = data.field
    corner = data.A if side == "A" else data.B
    l = mor.functor_T(data, side, alg.indecomposable_projectives(corner)[0])
    if side == "A":
        return l, mor.LambdaModule(data, l.X, l.Y, fld.zeros(*l.f.shape), l.g)
    return l, mor.LambdaModule(data, l.X, l.Y, l.f, fld.zeros(*l.g.shape))


@FIELDS
def test_hom_space_hit_is_a_fresh_build(field):
    a = _kA2(field)
    x1, x2 = _arrow_module(a, 1), _arrow_module(a, 1)
    first = alg.hom_space(x1, x1)
    hit = alg.hom_space(x2, x2)
    assert hit is not first and len(_entries(a._cache, "hom space")) == 1
    fresh = alg._solve_hom_space(x2, x2)
    assert [_bytes(m) for m in hit] == [_bytes(m) for m in fresh] == [_bytes(m) for m in first]
    assert not any(m.flags.writeable for m in hit)
    hit.clear()
    assert len(alg.hom_space(x1, x1)) == len(fresh)
    with pytest.raises(ValueError):
        alg.hom_space(x1, x2)[0][0, 0] = field.one


@FIELDS
def test_hom_space_entries_do_not_mix_contents(field):
    a = _kA2(field)
    xs = [_arrow_module(a, e) for e in (0, 1, 2)]
    answers = [[_bytes(m) for m in alg.hom_space(xs[1], y)] for y in xs]
    assert len(_entries(a._cache, "hom space")) == 3
    assert len({repr(ans) for ans in answers}) == 3
    assert answers == [[_bytes(m) for m in alg._solve_hom_space(xs[1], y)] for y in xs]


@FIELDS
def test_lambda_hom_space_hit_is_a_fresh_build_on_the_callers_modules(field):
    data = _ie(field)
    l, _ = _t_pair(data, "B")
    twin = mor.LambdaModule(data, _twin(l.X), _twin(l.Y), l.f.copy(), l.g.copy())
    assert twin.content_key() == l.content_key()
    first = mor.lambda_hom_space(l, l)
    hit = mor.lambda_hom_space(twin, twin)
    assert hit is not first and len(_entries(data._cache, "lambda hom space")) == 1
    (key,) = _entries(data._cache, "lambda hom space")
    assert not data._cache[key].flags.writeable
    fresh = mor._solve_lambda_hom_space(twin, twin)
    assert _bytes(data._cache[key]) == _bytes(fresh)
    for phi, psi in zip(hit, first):
        assert phi.source is twin and phi.target is twin
        assert psi.source is l and psi.target is l
        assert [_bytes(c) for c in phi.components] == [_bytes(c) for c in psi.components]
        assert not phi.a.flags.writeable and not phi.b.flags.writeable
        phi.validate()
    assert len(hit) == len(first) == fresh.shape[1]


@FIELDS
@pytest.mark.parametrize("side", ["A", "B"])
def test_lambda_hom_space_keys_on_both_structure_maps(field, side):
    data = _ie(field)
    l, l0 = _t_pair(data, side)
    assert (field.equal(l.f, l0.f), field.equal(l.g, l0.g)) == (side == "B", side == "A")
    for src, tgt, dim in ((l, l, 1), (l0, l0, 2), (l, l0, None), (l0, l, None)):
        got = mor.lambda_hom_space(src, tgt)
        assert dim is None or len(got) == dim
        assert (_bytes(_columns(field, src, tgt, got))
                == _bytes(mor._solve_lambda_hom_space(src, tgt)))
        for phi in got:
            phi.validate()
    assert len(_entries(data._cache, "lambda hom space")) == 4


@FIELDS
def test_lambda_hom_space_needs_one_morita_data(field):
    l, _ = _t_pair(_ie(field), "B")
    other, _ = _t_pair(_ie(field), "B")
    with pytest.raises(ValueError, match="different Morita data"):
        mor.lambda_hom_space(l, other)


@FIELDS
def test_ext_dim_hit_is_a_fresh_count_and_keys_on_degree(field):
    a = _kA2(field)
    s1, s2 = alg.simples(a)
    twin1, twin2 = _twin(s1), _twin(s2)
    assert hml.ext_dim(s1, s2, 1) == 1
    assert hml.ext_dim(twin1, twin2, 1) == hml._count_ext_dim(twin1, twin2, 1) == 1
    assert hml.ext_dim(s1, s2, 2) == 0
    assert hml.ext_dim(s2, s1, 1) == 0
    assert len(_entries(a._cache, "ext")) == 3
    data = _ie(field)
    l, l0 = _t_pair(data, "B")
    for x, y in ((l0, l), (l, l0), (l0, l0)):
        assert hml.ext_dim(x, y) == hml._count_ext_dim(x, y, 1)
        assert type(hml.ext_dim(x, y)) is int
    assert len(_entries(data._cache, "ext")) == 3


def test_ext_dim_needs_one_ring():
    s1, s2 = alg.simples(_kA2(F3))
    _, other = alg.simples(_kA2(F3))
    assert hml.ext_dim(s1, s2) == 1
    with pytest.raises(ValueError, match="different rings"):
        hml.ext_dim(s1, other)
    l, _ = _t_pair(_ie(F3), "B")
    m, _ = _t_pair(_ie(F3), "B")
    with pytest.raises(ValueError, match="different rings"):
        hml.ext_dim(l, m)


@FIELDS
def test_projective_sum_is_the_direct_sum_and_is_shared(field):
    a = _kA2(field)
    projs = alg.indecomposable_projectives(a)
    sums = {}
    for vertices in ((0,), (1, 0), (0, 1), (0, 1, 0)):
        s = alg.projective_sum(a, list(vertices))
        assert alg.projective_sum(a, vertices) is s
        fresh, _, _ = alg.direct_sum([projs[v] for v in vertices])
        assert _bytes(s.action) == _bytes(fresh.action)
        assert not s.action.flags.writeable
        sums[vertices] = s
    assert len(_entries(a._cache, "projective sum")) == 4
    assert len({s.content_key() for s in sums.values()}) == 4


def _columns(field, src, tgt, basis):
    """The hom basis as the solver's columns [vec_rm(a) | vec_rm(b)]."""
    out = field.zeros(src.X.dim * tgt.X.dim + src.Y.dim * tgt.Y.dim, len(basis))
    for i, phi in enumerate(basis):
        out[:, i] = [*phi.a.ravel().tolist(), *phi.b.ravel().tolist()]
    return out


def _twin(x):
    """A module equal in content to x, built from copies of its arrays."""
    return alg.Module(x.algebra, x.dim, x.action.copy())


COUNT_FIELDS = pytest.mark.parametrize(
    "field", [F3, QQ, FieldSpec("prime", (1 << 31) - 1)], ids=["F3", "QQ", "F2147483647"])


def _sampled_families(field):
    """On fresh ie and examctp4 instances: simples and sampled modules over
    A, flattened quadruples over the materialized ring, and lambda simples
    with sampled quadruples, each a family to pair up."""
    families = []
    for name in ("ie", "examctp4"):
        data = lab.catalog(name, field).data
        sampler = lab.Sampler(5, dim_cap=5, rank_cap=2)
        quads = mor.lambda_simples(data) + [sampler.quadruple(data) for _ in range(4)]
        plain = alg.simples(data.A) + [sampler.plain(data.A, cap=4) for _ in range(4)]
        flat = [mor.flatten(l) for l in quads[-4:]]
        families += [(alg.hom_dim, alg.hom_space, plain), (alg.hom_dim, alg.hom_space, flat),
                     (mor.lambda_hom_dim, mor.lambda_hom_space, quads)]
    return families


@COUNT_FIELDS
@pytest.mark.parametrize("dim_first", [True, False], ids=["dim-first", "dim-second"])
def test_hom_dims_count_the_solved_bases(field, dim_first):
    """hom_dim and lambda_hom_dim, counted from the constraint rows, equal
    the length of the canonical basis, whether the dimension is asked before
    the basis is solved or after; each has its own content memo entry."""
    seen = set()
    for dim, space, mods in _sampled_families(field):
        for x in mods:
            for y in mods:
                if dim_first:
                    d = dim(x, y)
                    n = len(space(x, y))
                else:
                    n = len(space(x, y))
                    d = dim(x, y)
                assert type(d) is int and d == n and dim(x, y) == d
                seen.add(d)
    assert {0, 1, 2} <= seen


@COUNT_FIELDS
def test_hom_dims_key_on_content_apart_from_the_bases(field):
    a = _kA2(field)
    xs = [_arrow_module(a, e) for e in (0, 1, 2)]
    dims = [alg.hom_dim(xs[1], y) for y in xs]
    assert len(_entries(a._cache, "hom dim")) == 3
    assert not _entries(a._cache, "hom space")
    assert alg.hom_dim(_twin(xs[1]), _twin(xs[0])) == dims[0]
    assert len(_entries(a._cache, "hom dim")) == 3
    assert dims == [len(alg._solve_hom_space(xs[1], y)) for y in xs]
    data = _ie(field)
    l, l0 = _t_pair(data, "B")
    assert [mor.lambda_hom_dim(l, l), mor.lambda_hom_dim(l0, l0)] == [1, 2]
    assert len(_entries(data._cache, "lambda hom dim")) == 2
    assert not _entries(data._cache, "lambda hom space")
    with pytest.raises(ValueError, match="different Morita data"):
        mor.lambda_hom_dim(l, _t_pair(_ie(field), "B")[0])
    with pytest.raises(ValueError, match="different algebras"):
        alg.hom_dim(xs[0], _arrow_module(_kA2(field), 1))
