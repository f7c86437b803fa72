import random

import numpy as np
import pytest

from morita_lab.fields import F2, F3, QQ, FieldSpec
from morita_lab import algebras as alg
from morita_lab import lab
from morita_lab import morita as mor
from morita_lab import homology as hml
from morita_lab import linalg


@pytest.fixture(scope="module")
def ie(a2_f3):
    m = alg.corner_bimodule(a2_f3, "2", "1")
    return mor.MoritaData(a2_f3, a2_f3, m, m, name="ie")


@pytest.fixture(scope="module")
def big_L(ie):
    """(Ae1; Ae1) with both structure maps the socle inclusion."""
    p1 = alg.indecomposable_projectives(ie.A)[0]
    sigma = ie.field.asmatrix([[0], [1]])
    l = mor.LambdaModule(ie, p1, p1, sigma, sigma)
    l.validate()
    return l


def free_ext_dim(x, y):
    """dim Ext^1(x, y) of plain modules along hml.free_presentation, with
    every hom dimension solved: the cross-check of the one presentation
    rule, since Ext does not depend on the presentation."""
    pres = hml.free_presentation(x)
    return alg.hom_dim(pres.left, y) - alg.hom_dim(pres.middle, y) + alg.hom_dim(x, y)


def test_free_presentation_shapes(a2_f3):
    s1 = alg.simples(a2_f3)[0]
    pres = hml.free_presentation(s1)
    assert pres.middle.dim == 3
    assert pres.left.dim == 2


def test_cover_presentation_of_simple(a2_f3):
    s1, s2 = alg.simples(a2_f3)
    pres = hml.cover_presentation(s1)
    assert pres.middle.dim == 2
    assert alg.module_isomorphism(pres.left, s2)


def test_presentation_of_projective_splits(a2_f3):
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    pres = hml.free_presentation(p1)
    ok, retr = hml.splits(pres)
    assert ok
    retr.validate()
    f = a2_f3.field
    assert f.equal(f.matmul(retr.matrix, pres.incl.matrix), f.eye(pres.left.dim))


def test_lambda_presentation_of_ZA_projective(ie):
    # the kernel of the canonical cover of (Ae1; 0) is (0; M(x)Ae1) = T_B S2
    p1 = alg.indecomposable_projectives(ie.A)[0]
    za = mor.functor_Z(ie, "A", p1)
    pres = hml.lambda_presentation(za)
    assert pres.left.dims == (0, 1)
    s2 = alg.simples(ie.B)[1]
    assert alg.module_isomorphism(pres.left.Y, s2)


def test_ext_simples_a2(a2_f3):
    s1, s2 = alg.simples(a2_f3)
    assert hml.ext_dim(s1, s2, 1) == 1
    assert hml.ext_dim(s2, s1, 1) == 0
    assert hml.ext_dim(s1, s1, 1) == 0
    # the free presentation gives the same count
    assert free_ext_dim(s1, s2) == 1


def test_ext_from_projective_vanishes(a2_f3, ie):
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    for y in list(alg.simples(a2_f3)) + [p1]:
        assert hml.ext_dim(p1, y, 1) == 0
        assert hml.ext_dim(p1, y, 2) == 0
    t = mor.functor_T(ie, "A", p1)
    reg = mor.regular_lambda_module(ie)
    assert hml.ext_dim(t, reg, 1) == 0


def test_ext_lambda_self_extension(ie, big_L):
    # frozen: both computation routes give a one-dimensional Ext^1(L, L)
    assert hml.ext_dim(big_L, big_L, 1) == 1
    assert hml.lambda_ext_dim_flatten(big_L, big_L, 1) == 1


def test_ext_group_realizations(a2_f3):
    s1, s2 = alg.simples(a2_f3)
    eg = hml.ext_group(s1, s2, 1)
    assert eg.dimension == 1 and len(eg.classes) == 1
    ses = eg.classes[0]
    ok, _ = hml.splits(ses)
    assert not ok
    assert not hml.ext_class_is_zero(ses)
    assert alg.module_isomorphism(ses.middle, alg.indecomposable_projectives(a2_f3)[0])


def test_lambda_ext_group_realizations(ie, big_L):
    eg = hml.ext_group(big_L, big_L, 1)
    assert eg.dimension == 1 and len(eg.classes) == 1
    ses = eg.classes[0]
    ok, _ = hml.splits(ses)
    assert not ok
    assert not hml.ext_class_is_zero(ses)
    assert ses.middle.dims == (4, 4)


def test_split_sequences_have_zero_class(ie, a2_f3):
    s1, s2 = alg.simples(a2_f3)
    s, injs, projs = alg.direct_sum([s1, s2])
    ses = hml.ShortExactSequence(s1, s, s2, injs[0], projs[1])
    ok, retr = hml.splits(ses)
    assert ok and hml.ext_class_is_zero(ses)
    # lambda level
    za = mor.functor_Z(ie, "A", s1)
    zb = mor.functor_Z(ie, "B", s2)
    lsum, linjs, lprojs = mor.lambda_direct_sum([za, zb])
    lses = hml.ShortExactSequence(za, lsum, zb, linjs[0], lprojs[1])
    ok, retr = hml.splits(lses)
    assert ok and hml.ext_class_is_zero(lses)
    retr.validate()


def test_tor_examples(a2_f3, ie):
    s1, s2 = alg.simples(a2_f3)
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    for x in (s1, s2, p1):
        d, _ = hml.tor1(ie.M, x)
        assert d == 0  # M is projective as a right module
    reg = alg.regular_bimodule(a2_f3)
    d, _ = hml.tor1(reg, s1)
    assert d == 0
    # dual numbers: Tor_1(k, k) is one dimensional
    q = alg.Quiver(("v",), (("x", "v", "v"),))
    dn = alg.path_algebra(q, [("x", "x")], F3)
    (k_mod,) = alg.simples(dn)
    k_alg = alg.ground_field_algebra(F3)
    f = F3
    right_k = alg.Bimodule(k_alg, dn, 1, [f.eye(1)],
                           [f.eye(1), f.zeros(1, 1)])
    d, wit = hml.tor1(right_k, k_mod)
    assert d == 1
    # presentation independence: recompute from the free presentation
    pres = hml.free_presentation(k_mod)
    tk = mor.tensor_over(right_k, pres.left)
    tp = mor.tensor_over(right_k, pres.middle)
    induced = hml._tensor_map(f, tk, tp, pres.incl.matrix)
    assert linalg.kernel_basis(f, induced).shape[1] == 1


def test_proj_dim(a2_f3, ie, big_L):
    s1, s2 = alg.simples(a2_f3)
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    assert hml.proj_dim_upto(p1) == 0
    assert hml.proj_dim_upto(s1) == 1
    assert hml.proj_dim_upto(s2) == 0
    assert hml.proj_dim_upto(big_L) == 1
    za = mor.functor_Z(ie, "A", p1)
    assert hml.proj_dim_upto(za) == 1


def test_inj_dim(a2_f3, ie, big_L):
    s1, s2 = alg.simples(a2_f3)
    assert hml.inj_dim_upto(s1) == 0
    assert hml.inj_dim_upto(s2) == 1
    # lambda level, through the dual over the opposite materialized algebra
    assert hml.inj_dim_upto(big_L, 3) is not None
    hb = mor.functor_H(ie, "B", s1)
    assert hml.inj_dim_upto(hb, 3) == 0


def test_dim_bound_exceeded_is_none(a2_f3):
    q = alg.Quiver(("v",), (("x", "v", "v"),))
    dn = alg.path_algebra(q, [("x", "x")], F3)
    (k_mod,) = alg.simples(dn)
    # k has infinite projective dimension over the dual numbers
    assert hml.proj_dim_upto(k_mod, 4) is None


def test_resolution_pq(ie):
    rng = random.Random(31)
    p1, p2 = alg.indecomposable_projectives(ie.A)
    x, _, _ = alg.direct_sum([p1, p2])
    y = p1
    tx = mor.tensor_over(ie.M, x)
    ty = mor.tensor_over(ie.N, y)
    for _ in range(5):
        f = _random_combo(ie.field, alg.hom_space(tx.module, y), (y.dim, tx.dim), rng)
        g = _random_combo(ie.field, alg.hom_space(ty.module, x), (x.dim, ty.dim), rng)
        l = mor.LambdaModule(ie, x, y, f, g, tx=tx, ty=ty)
        l.validate()
        ses = hml.resolution_pq(l)
        ses.validate()
        assert hml.is_projective_lambda(ses.left)
        assert hml.is_projective_lambda(ses.middle)


def test_coresolution_ij(ie):
    rng = random.Random(37)
    i1, i2 = alg.indecomposable_injectives(ie.A)
    x, _, _ = alg.direct_sum([i1, i2])
    y = i2
    tx = mor.tensor_over(ie.M, x)
    ty = mor.tensor_over(ie.N, y)
    for _ in range(5):
        f = _random_combo(ie.field, alg.hom_space(tx.module, y), (y.dim, tx.dim), rng)
        g = _random_combo(ie.field, alg.hom_space(ty.module, x), (x.dim, ty.dim), rng)
        l = mor.LambdaModule(ie, x, y, f, g, tx=tx, ty=ty)
        l.validate()
        ses = hml.coresolution_ij(l)
        ses.validate()
        assert _is_injective_lambda(ses.right)
        assert _is_injective_lambda(ses.middle)


def _is_injective_lambda(l):
    return hml.inj_dim_upto(l, 0) == 0


def _random_combo(field, basis, shape, rng):
    out = field.zeros(*shape)
    for mat in basis:
        c = rng.randrange(field.p)
        if c:
            out = out + c * mat
    return field.normalize(out)


def test_resolution_pq_rejects_bad_input(ie):
    s1 = alg.simples(ie.A)[0]
    z = mor.functor_Z(ie, "A", s1)
    with pytest.raises(ValueError):
        hml.resolution_pq(z)  # S_1 is not projective


def test_approx_c1_shape(ie, big_L):
    res = hml.approx_c1(big_L)
    res.ses.validate()
    assert mor.lambda_modules_equal(res.ses.right, big_L) or res.ses.right is big_L
    want, _, _ = alg.direct_sum([res.parts["MP"], res.parts["Y"]]) \
        if res.parts["Y"].dim else (res.parts["MP"], None, None)
    got = res.ses.left.Y
    assert alg.module_isomorphism(got, want) or got.dim == want.dim


def test_approx_c1_on_TA(ie):
    # L = T_A P has kernel reducing to (0; M (x) P)
    p1 = alg.indecomposable_projectives(ie.A)[0]
    t = mor.functor_T(ie, "A", p1)
    res = hml.approx_c1(t)
    res.ses.validate()
    k = res.ses.left
    assert k.X.dim == 0
    assert alg.module_isomorphism(k.Y, res.parts["MP"])


def test_approx_c2_c3_c4(ie, big_L):
    res2 = hml.approx_c2(big_L)
    res2.ses.validate()
    want_x, _, _ = alg.direct_sum([res2.parts["X"], res2.parts["NQ"]]) \
        if res2.parts["X"].dim or res2.parts["NQ"].dim else (None, None, None)
    assert res2.ses.left.X.dim == want_x.dim

    res3 = hml.approx_c3(big_L)
    res3.ses.validate()
    want_y, _, _ = alg.direct_sum([res3.parts["HNI"], res3.parts["V"]])
    assert res3.ses.right.Y.dim == want_y.dim
    assert alg.module_isomorphism(res3.ses.right.Y, want_y)

    res4 = hml.approx_c4(big_L)
    res4.ses.validate()
    want_x4, _, _ = alg.direct_sum([res4.parts["U"], res4.parts["HMJ"]])
    assert res4.ses.right.X.dim == want_x4.dim
    assert alg.module_isomorphism(res4.ses.right.X, want_x4)


def test_horseshoe_merge_triangular(a2_f3):
    # upper triangular instance: M = 0
    zero = alg.zero_bimodule(a2_f3, a2_f3)
    n = alg.corner_bimodule(a2_f3, "2", "1")
    tri = mor.MoritaData(a2_f3, a2_f3, zero, n, name="tri")
    p1 = alg.indecomposable_projectives(tri.A)[0]
    s1 = alg.simples(tri.B)[0]
    l = _triangular_module(tri, p1, s1)
    s = _canonical_triangular_ses(tri, l)
    approx_l = _za_injective_approx(tri, s.left.X)
    approx_r = _tb_injective_approx(tri, s.right.Y)
    merged = hml.horseshoe_merge(s, approx_l, approx_r)
    merged.ses.validate()
    assert merged.ses.middle.total_dim >= l.total_dim


def _triangular_module(tri, x, y):
    ty = mor.tensor_over(tri.N, y)
    g = tri.field.zeros(x.dim, ty.dim)
    basis = alg.hom_space(ty.module, x)
    if basis:
        g = basis[0]
    l = mor.LambdaModule(tri, x, y, tri.field.zeros(y.dim, 0), g)
    l.validate()
    return l


def _canonical_triangular_ses(tri, l):
    za = mor.functor_Z(tri, "A", l.X)
    zb = mor.functor_Z(tri, "B", l.Y)
    incl = mor.LambdaMorphism(za, l, tri.field.eye(l.X.dim), tri.field.zeros(l.Y.dim, 0))
    incl.validate()
    proj = mor.LambdaMorphism(l, zb, tri.field.zeros(0, l.X.dim), tri.field.eye(l.Y.dim))
    proj.validate()
    return hml.ShortExactSequence(za, l, zb, incl, proj)


def _za_injective_approx(tri, x):
    env, mono = alg.injective_envelope(x)
    s, injs, projs = alg.direct_sum([env, x])
    za_env = mor.functor_Z(tri, "A", env)
    za_sum = mor.functor_Z(tri, "A", s)
    za_x = mor.functor_Z(tri, "A", x)
    z = tri.field.zeros(0, 0)
    return hml.ShortExactSequence(
        za_env, za_sum, za_x,
        mor.LambdaMorphism(za_env, za_sum, injs[0].matrix, z),
        mor.LambdaMorphism(za_sum, za_x, projs[1].matrix, z))


def _tb_injective_approx(tri, y):
    env, mono = alg.injective_envelope(y)
    v, injs, projs = alg.direct_sum([env, y])
    tbv = mor.functor_T(tri, "B", v)
    zby = mor.functor_Z(tri, "B", y)
    epi = mor.LambdaMorphism(tbv, zby, tri.field.zeros(0, tbv.X.dim), projs[1].matrix)
    epi.validate()
    k, incl = mor.lambda_kernel(epi)
    return hml.ShortExactSequence(k, tbv, zby, incl, epi)


def test_presentation_independence_random(ie):
    rng = random.Random(41)
    p1, p2 = alg.indecomposable_projectives(ie.A)
    s1, s2 = alg.simples(ie.A)
    pool = [p1, p2, s1, s2]
    for _ in range(6):
        x = rng.choice(pool)
        y = rng.choice(pool)
        assert free_ext_dim(x, y) == hml.ext_dim(x, y, 1)
    for _ in range(4):
        x, _, _ = alg.direct_sum([rng.choice(pool), rng.choice(pool)])
        l1 = _random_quad(ie, x, rng.choice(pool), rng)
        l2 = _random_quad(ie, rng.choice(pool), rng.choice(pool), rng)
        assert hml.ext_dim(l1, l2, 1) == hml.lambda_ext_dim_flatten(l1, l2, 1)


def _random_quad(ie, x, y, rng):
    tx = mor.tensor_over(ie.M, x)
    ty = mor.tensor_over(ie.N, y)
    f = _random_combo(ie.field, alg.hom_space(tx.module, y), (y.dim, tx.dim), rng)
    g = _random_combo(ie.field, alg.hom_space(ty.module, x), (x.dim, ty.dim), rng)
    return mor.LambdaModule(ie, x, y, f, g, tx=tx, ty=ty)


def test_ext_into_injectives_vanishes(a2_f3, ie):
    s1, s2 = alg.simples(a2_f3)
    for x in (s1, s2):
        for i in alg.indecomposable_injectives(a2_f3):
            assert hml.ext_dim(x, i, 1) == 0
    big = None
    p1 = alg.indecomposable_projectives(ie.A)[0]
    rng = random.Random(43)
    l = _random_quad(ie, p1, alg.simples(ie.B)[0], rng)
    for i in alg.indecomposable_injectives(ie.A):
        assert hml.ext_dim(l, mor.functor_H(ie, "A", i), 1) == 0
    for j in alg.indecomposable_injectives(ie.B):
        assert hml.ext_dim(l, mor.functor_H(ie, "B", j), 1) == 0


def test_dual_lambda_inverts(ie):
    rng = random.Random(47)
    p1 = alg.indecomposable_projectives(ie.A)[0]
    l = _random_quad(ie, p1, alg.indecomposable_projectives(ie.B)[1], rng)
    d = mor.dual_lambda(l)
    d.validate()
    dd = mor.dual_lambda(d)
    assert bool(mor.lambda_isomorphism(l, dd))


def test_resolution_pq_refuses_nonvanishing_tensors(a2_f3):
    reg = alg.regular_bimodule(a2_f3)
    irem1 = mor.MoritaData(a2_f3, a2_f3, reg, reg, name="irem1")
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    t = mor.functor_T(irem1, "A", p1)
    with pytest.raises(ValueError):
        hml.resolution_pq(t)


def test_displayed_kernel_of_self_extension_presentation(ie, big_L):
    """The canonical cover of (Ae1; Ae1)_{sigma,sigma} has kernel the
    Z-type quadruple on the socle simples, with zero structure maps."""
    pres = hml.lambda_presentation(big_L)
    s2 = alg.simples(ie.A)[1]
    assert pres.left.dims == (1, 1)
    assert alg.module_isomorphism(pres.left.X, s2)
    assert alg.module_isomorphism(pres.left.Y, alg.simples(ie.B)[1])
    assert ie.field.is_zero(pres.left.f) and ie.field.is_zero(pres.left.g)
    assert pres.middle.dims == (3, 3)
    assert hml.is_projective_lambda(pres.left)


def test_ext_routes_agree_over_nonvanishing_tensors(a2_f3):
    import random as _random

    reg = alg.regular_bimodule(a2_f3)
    irem1 = mor.MoritaData(a2_f3, a2_f3, reg, reg, name="irem1")
    from morita_lab import lab as _lab

    sampler = _lab.Sampler(67, 6, 2)
    for _ in range(4):
        l1 = sampler.quadruple(irem1)
        l2 = sampler.quadruple(irem1)
        assert hml.ext_dim(l1, l2, 1) == hml.lambda_ext_dim_flatten(l1, l2, 1)


def test_ext_group_rejects_degrees_below_one(a2_f3, ie, big_L):
    s1, s2 = alg.simples(a2_f3)
    for x, y in ((s1, s2), (big_L, big_L)):
        for degree in (0, -1):
            with pytest.raises(ValueError):
                hml.ext_group(x, y, degree)
            with pytest.raises(ValueError):
                hml.ext_dim(x, y, degree)


def _ext_cases(a2):
    """(name, pairs): plain kA2 modules over F_3, and sampled quadruples on
    ie, irem1 and examctp4(3,2,1,3), each paired with itself, the next sample
    and a sum of structural simples."""
    from morita_lab import lab

    sampler = lab.Sampler(89, 6, 3)
    plain = list(alg.simples(a2)) + list(alg.indecomposable_injectives(a2))
    plain += [sampler.plain(a2, 4) for _ in range(2)]
    yield "kA2", [(x, y) for x in plain for y in plain]
    for name, params in (("ie", {}), ("irem1", {}), ("examctp4", dict(n=3, h=2, i=1, j=3))):
        data = lab.catalog(name, F3, **params).data
        quads = [sampler.quadruple(data, mono_bias=(i % 2 == 0)) for i in range(3)]
        simple_sum, _, _ = mor.lambda_direct_sum(mor.lambda_simples(data))
        yield name, [(l, t) for i, l in enumerate(quads)
                     for t in (l, quads[(i + 1) % len(quads)], simple_sum)]


def test_ext_group_dimension_matches_ext_dim(a2_f3):
    checked = 0
    for name, pairs in _ext_cases(a2_f3):
        for x, y in pairs:
            for degree in (1, 2):
                eg = hml.ext_group(x, y, degree)
                assert eg.dimension == hml.ext_dim(x, y, degree), (name, degree)
                checked += eg.dimension > 0
            # every realized class is a non-split extension with a nonzero class
            classes = hml.ext_group(x, y, 1).classes
            assert len(classes) == hml.ext_dim(x, y, 1)
            for ses in classes:
                assert ses.left is y and ses.right is x
                assert not hml.splits(ses)[0], name
                assert not hml.ext_class_is_zero(ses), name
    assert checked > 0


def test_approx_c1_default_is_the_lambda_presentation(ie, big_L):
    from morita_lab import lab

    data = lab.catalog("examctp4", F3, n=3, h=2, i=1, j=3).data
    sampler = lab.Sampler(97, 6, 3)
    for l in [big_L, *(sampler.quadruple(d) for d in (ie, ie, data, data))]:
        got = hml.approx_c1(l).ses.proj
        want = hml.lambda_presentation(l).proj
        for g, w in zip(got.components, want.components):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def test_projectivity_builds_the_simples_sum_once(monkeypatch):
    """is_projective_lambda keeps the sum of the structural simples on the
    Morita data, so repeated calls do not rebuild it."""
    from morita_lab import lab

    data = lab.catalog("ie", F3).data
    sampler = lab.Sampler(3, 6, 3)
    quads = [sampler.quadruple(data) for _ in range(4)]
    calls = []
    monkeypatch.setattr(hml, "lambda_simples", lambda d: calls.append(d) or mor.lambda_simples(d))
    verdicts = [hml.is_projective_lambda(l) for l in quads + quads]
    assert len(calls) == 1 and verdicts[:4] == verdicts[4:]
    simple_sum, _, _ = mor.lambda_direct_sum(mor.lambda_simples(data))
    assert verdicts[:4] == [hml.ext_dim(l, simple_sum) == 0 for l in quads]


# -- extend and lift against the dense affine system ------------------------------


def _kron_intertwiner_rows(x, y):
    """The rows of H x(g) = y(g) H over all of vec_rm(H), one Kronecker block
    kron(I, x(g)^T) - kron(y(g), I) per basis element g."""
    fld = x.field
    return [fld.normalize(np.kron(fld.eye(y.dim), x.act(g).T)
                          - np.kron(y.act(g), fld.eye(x.dim)))
            for g in range(x.algebra.dim)]


def _unit_square_rows(src, tgt):
    """The rows of b f_1 = f_2 (1 (x) a) and a g_1 = g_2 (1 (x) b) over
    [vec_rm(a) | vec_rm(b)]: column j is the residual of the j-th unit."""
    fld = src.field
    na, nb = src.X.dim * tgt.X.dim, src.Y.dim * tgt.Y.dim
    out = fld.zeros(tgt.Y.dim * src.tX.dim + tgt.X.dim * src.tY.dim, na + nb)
    for j in range(na + nb):
        unit = fld.zeros(na + nb)
        unit[j] = fld.one
        a = unit[:na].reshape(tgt.X.dim, src.X.dim)
        b = unit[na:].reshape(tgt.Y.dim, src.Y.dim)
        r1 = fld.matmul(b, src.f) - fld.matmul(tgt.f, mor._tensor_map(fld, src.tX, tgt.tX, a))
        r2 = fld.matmul(a, src.g) - fld.matmul(tgt.g, mor._tensor_map(fld, src.tY, tgt.tY, b))
        out[:, j] = fld.normalize(np.concatenate([r1.reshape(-1), r2.reshape(-1)]))
    return out


def _dense_solve(source, target, rows, goal):
    """The affine route kept as the reference: the homogeneous rows of
    Hom(source, target) over every coordinate of the unknowns [vec_rm of each
    block], the condition rows of block k placed at its offset, and
    linalg.solve (free variables 0)."""
    fld = source.field
    shapes = [(t, s) for s, t in zip(hml._dims(source), hml._dims(target))]
    ofs = np.cumsum([0, *(t * s for t, s in shapes)])

    def placed(k, r):
        out = fld.zeros(r.shape[0], ofs[-1])
        out[:, ofs[k]:ofs[k + 1]] = r
        return out

    if isinstance(source, mor.LambdaModule):
        homogeneous = [placed(k, r)
                       for k, (s, t) in enumerate(((source.X, target.X), (source.Y, target.Y)))
                       for r in _kron_intertwiner_rows(s, t)]
        homogeneous.append(_unit_square_rows(source, target))
    else:
        homogeneous = _kron_intertwiner_rows(source, target)
    conditions = [placed(k, r) for k, r in enumerate(rows)]
    lhs = linalg.vstack(fld, [fld.zeros(0, ofs[-1]), *homogeneous, *conditions])
    rhs = np.concatenate([fld.zeros(lhs.shape[0] - sum(r.shape[0] for r in conditions)),
                          hml._flat(goal)])
    sol = linalg.solve(fld, lhs, rhs)
    if sol is None:
        return None
    return hml._morphism(source, target, [sol[ofs[k]:ofs[k + 1], 0].reshape(shape)
                                          for k, shape in enumerate(shapes)])


def _dense_extend(incl, psi):
    fld = psi.field
    return _dense_solve(incl.target, psi.target, [
        np.kron(fld.eye(p.shape[0]), i.T) for i, p in zip(incl.components, psi.components)],
        psi)


def _dense_lift(epi, phi):
    fld = phi.field
    return _dense_solve(phi.source, epi.source, [
        np.kron(e, fld.eye(p.shape[1])) for e, p in zip(epi.components, phi.components)],
        phi)


def _random_hom(x, y, rng):
    fld = x.field
    out = [fld.zeros(t, s) for s, t in zip(hml._dims(x), hml._dims(y))]
    for phi in hml._hom_basis(x, y):
        c = fld.scalar(rng.randrange(-2, 3))
        out = [o + c * blk for o, blk in zip(out, phi.components)]
    return hml._morphism(x, y, [fld.normalize(o) for o in out])


def _identity(x):
    return hml._morphism(x, x, [x.field.eye(n) for n in hml._dims(x)])


def _twisted(x, rng):
    """(x', iso x -> x', iso^-1) for x' the conjugate of x by a random
    invertible matrix, so that no hom basis is aligned with x's summands."""
    fld = x.field
    while True:
        g = fld.asmatrix([[rng.randrange(-2, 3) for _ in range(x.dim)] for _ in range(x.dim)])
        if linalg.is_invertible(fld, g):
            break
    gi = linalg.invert(fld, g)
    y = alg.Module(x.algebra, x.dim, [fld.matmul(g, fld.matmul(m, gi)) for m in x.action])
    return y, alg.ModuleMorphism(x, y, g), alg.ModuleMorphism(y, x, gi)


def _extend_and_lift_problems(field):
    """(solver, along, goal) triples on presentations, covers and direct
    sums: plain modules over kA2 and Nak(3,2), quadruples over ie and
    examctp4(3,2,1,3).  Extending a random map or the identity along the
    presentation's mono; lifting a map out of the projective middle along a
    cover; lifting the identity of a non-projective module along its cover
    (no solution); and, with many solutions as soon as a hom space is not
    zero, extending a random map along the inclusion of a summand and
    lifting one along the projection onto a summand."""
    rng = random.Random(5)
    sets = []
    for algebra in (lab._two_vertex_algebra(field), lab._nakayama(field, 3, 2)):
        sampler = lab.Sampler(5, dim_cap=6, rank_cap=3)
        sets.append(([sampler.plain(algebra) for _ in range(3)] + alg.simples(algebra),
                     hml.cover_presentation, alg.direct_sum))
    for inst in (lab.catalog("ie", field), lab.catalog("examctp4", field)):
        sampler = lab.Sampler(5, dim_cap=5, rank_cap=2)
        sets.append((mor.lambda_simples(inst.data)[:2]
                     + [sampler.quadruple(inst.data) for _ in range(2)],
                     hml.lambda_presentation, mor.lambda_direct_sum))
    out = []
    for mods, present, direct_sum in sets:
        for x in mods:
            pres = present(x)
            y, z = rng.choice(mods), rng.choice(mods)
            cover = present(y).proj
            _, injs, projs = direct_sum([x, y])
            out += [("extend", pres.incl, _random_hom(pres.left, y, rng)),
                    ("extend", pres.incl, _identity(pres.left)),
                    ("lift", cover, _random_hom(pres.middle, y, rng)),
                    ("lift", cover, _identity(y)),
                    ("extend", injs[0], _random_hom(x, z, rng)),
                    ("lift", projs[1], _random_hom(pres.middle, y, rng))]
            if direct_sum is alg.direct_sum:
                # the same on a conjugate of the sum, where the maps that
                # vanish on a summand mix the basis
                _, to, back = _twisted(injs[0].target, rng)
                out += [("extend", to.compose(injs[0]), _random_hom(x, z, rng)),
                        ("lift", projs[1].compose(back), _random_hom(pres.middle, y, rng))]
    return out


def _bytes(phi):
    """dtype, shape and exact entries (with their Python types) per block."""
    return None if phi is None else [(c.dtype.str, c.shape, repr(c.tolist()))
                                     for c in phi.components]


@pytest.mark.parametrize("field", [F3, FieldSpec("prime", 33554467), QQ],
                         ids=["F3", "bigprime", "QQ"])
def test_extend_and_lift_match_the_dense_kronecker_reference(field):
    """_extend_along and _lift_along solve in the canonical hom basis; the
    morphism they return, or None, is byte for byte the one the dense
    affine system over every coordinate returns."""
    solvers = {"extend": (hml._extend_along, _dense_extend),
               "lift": (hml._lift_along, _dense_lift)}
    found = {}
    for kind, along, goal in _extend_and_lift_problems(field):
        new, ref = solvers[kind]
        got = new(along, goal)
        assert _bytes(got) == _bytes(ref(along, goal)), (kind, along, goal)
        quadruple = isinstance(goal.source, mor.LambdaModule)
        found.setdefault((kind, quadruple), set()).add(got is None)
    assert all(outcomes == {True, False} for outcomes in found.values()), found
    assert len(found) == 4


# -- the middle term of a cover presentation by Yoneda ---------------------------


def _plain_yoneda_modules(field):
    """Modules over kA2, Nak(3,2) and kA2 with its idempotent system replaced
    by the unit: sampled modules, simples, projectives, the zero module and
    conjugates of the sampled ones (no vertex classes)."""
    rng = random.Random(11)
    out = []
    whole = lab._two_vertex_algebra(field)
    whole.set_idempotent_system([whole.unit])
    for algebra in (lab._two_vertex_algebra(field), lab._nakayama(field, 3, 2), whole):
        sampler = lab.Sampler(7, dim_cap=4, rank_cap=3)
        mods = ([sampler.plain(algebra) for _ in range(3)] + alg.simples(algebra)
                + alg.indecomposable_projectives(algebra) + [alg.zero_module(algebra)])
        out.append(mods + [_twisted(x, rng)[0] for x in mods[:3]])
    return out


def _solved_ext_dim(x, y, degree):
    """dim Ext^degree(x, y) along the cover syzygies with every hom
    dimension solved, the middle term included."""
    for _ in range(degree - 1):
        x = hml.presentation(x).left
    pres = hml.presentation(x)
    return (hml._hom_dim(pres.left, y) - hml._hom_dim(pres.middle, y)
            + hml._hom_dim(x, y))


@pytest.mark.parametrize("field", [F3, FieldSpec("prime", 33554467), QQ],
                         ids=["F3", "bigprime", "QQ"])
def test_yoneda_middle_dimension_matches_the_solver_plain(field):
    """The middle term of a cover presentation, counted by Yoneda from the
    recorded summands, is hom_dim of the middle, and ext_dim in degrees 1
    and 2 (along the syzygy) is the count with every term solved.  The zero
    module has the zero cover; targets without vertex classes, or over an
    algebra whose idempotent system is not the vertex system, take the rank
    fallback.  The free presentation records no summands."""
    fallback = 0
    for mods in _plain_yoneda_modules(field):
        for x in mods:
            pres = hml.presentation(x)
            assert pres.tops == (alg.cover_vertices(x),)
            assert sum(alg.indecomposable_projectives(x.algebra)[v].dim
                       for v in pres.tops[0]) == pres.middle.dim
            if x.dim == 0:
                assert pres.tops == ((),) and pres.middle.dim == 0
            assert hml.free_presentation(x).tops is None
            for y in mods:
                assert hml._middle_hom_dim(pres, y) == alg.hom_dim(pres.middle, y)
                fallback += y.vertex_classes() is None
                if x.dim and y.dim:
                    for degree in (1, 2):
                        assert hml.ext_dim(x, y, degree) == _solved_ext_dim(x, y, degree)
    assert fallback
    s1, s2 = alg.simples(lab._two_vertex_algebra(field))
    assert hml.ext_dim(s1, s2) == 1 == free_ext_dim(s1, s2)


@pytest.mark.parametrize("field", [F3, FieldSpec("prime", 33554467), QQ],
                         ids=["F3", "bigprime", "QQ"])
def test_yoneda_middle_dimension_matches_the_solver_quadruples(field):
    """The middle T_A P (+) T_B V of a T-cover, counted as Hom_A(P, y.X) (+)
    Hom_B(V, y.Y) from the recorded summands, is lambda_hom_dim of the
    middle, over ie and examctp4(3,2,1,3); ext_dim in degrees 1 and 2 is the
    count with every term solved, and agrees with the flattened free
    route."""
    for inst in (lab.catalog("ie", field), lab.catalog("examctp4", field)):
        data = inst.data
        sampler = lab.Sampler(7, dim_cap=5, rank_cap=2)
        p_a, p_b = alg.indecomposable_projectives(data.A), alg.indecomposable_projectives(data.B)
        mods = (mor.lambda_simples(data)[:3] + [sampler.quadruple(data) for _ in range(2)]
                + [mor.functor_T(data, "A", p_a[0]), mor.functor_T(data, "B", p_b[-1])])
        for x in mods:
            pres = hml.lambda_presentation(x)
            assert pres.tops == (alg.cover_vertices(x.X), alg.cover_vertices(x.Y))
            for y in mods:
                assert hml._middle_hom_dim(pres, y) == mor.lambda_hom_dim(pres.middle, y)
                if x.total_dim and y.total_dim:
                    for degree in (1, 2):
                        assert hml.ext_dim(x, y, degree) == _solved_ext_dim(x, y, degree)
        x, y = mods[0], mods[1]
        assert hml.ext_dim(x, y) == hml.lambda_ext_dim_flatten(x, y)
