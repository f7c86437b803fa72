import random

import pytest

from morita_lab.fields import F2, F3
from morita_lab import algebras as alg
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
    # both presentations agree
    assert hml.ext_dim(s1, s2, 1, presentation_kind="free") == 1


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
        free = hml.ext_dim(x, y, 1, presentation_kind="free")
        cover = hml.ext_dim(x, y, 1, presentation_kind="cover")
        assert free == cover
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
