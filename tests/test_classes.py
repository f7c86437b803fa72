import random

import pytest

from morita_lab.fields import F3
from morita_lab import algebras as alg
from morita_lab import morita as mor
from morita_lab import homology as hml
from morita_lab import classes as cls
from morita_lab import linalg


@pytest.fixture(scope="module")
def ie(a2_f3):
    m = alg.corner_bimodule(a2_f3, "2", "1")
    return mor.MoritaData(a2_f3, a2_f3, m, m, name="ie")


@pytest.fixture(scope="module")
def big_L(ie):
    p1 = alg.indecomposable_projectives(ie.A)[0]
    sigma = ie.field.asmatrix([[0], [1]])
    l = mor.LambdaModule(ie, p1, p1, sigma, sigma)
    l.validate()
    return l


@pytest.fixture(scope="module")
def nak_morita(nakayama_f3):
    """The quasi-Frobenius instance: cyclic Nakayama with the corner
    bimodule Ae_1 (x) e_3 A (the gap 3 - 1 meets the nilpotency degree 2)."""
    m = alg.corner_bimodule(nakayama_f3, "1", "3")
    return mor.MoritaData(nakayama_f3, nakayama_f3, m, m, name="nak")


def test_in_column(ie, big_L):
    inj = cls.injectives_spec(ie.A)
    assert cls.in_column(big_L, inj, inj)  # Ae1 is injective over kA2
    proj = cls.projectives_spec(ie.A)
    assert cls.in_column(big_L, proj, proj)
    za = mor.functor_Z(ie, "A", alg.indecomposable_projectives(ie.A)[0])
    assert cls.in_column(za, proj, cls.projectives_spec(ie.B))
    zero = mor.functor_Z(ie, "A", alg.zero_module(ie.A))
    assert cls.in_column(zero, inj, inj)


def test_in_mon_epi(ie, big_L):
    assert cls.in_mon(big_L)
    assert cls.in_epi(big_L)
    za = mor.functor_Z(ie, "A", alg.indecomposable_projectives(ie.A)[0])
    assert not cls.in_mon(za)  # f: M (x) Ae1 = S2 -> 0 is not mono
    assert not cls.in_epi(za)  # g~: 0 -> Hom(N, Ae1) = S1 is not epi
    zero = mor.functor_Z(ie, "A", alg.zero_module(ie.A))
    assert cls.in_mon(zero) and cls.in_epi(zero)


def test_delta_of_projectives(ie):
    proj_a = cls.projectives_spec(ie.A)
    proj_b = cls.projectives_spec(ie.B)
    p1, p2 = alg.indecomposable_projectives(ie.A)
    for x in (p1, p2):
        t = mor.functor_T(ie, "A", x)
        assert cls.in_delta(t, proj_a, proj_b)
        assert cls.projective_by_shape(t)
    s, _, _ = mor.lambda_direct_sum([mor.functor_T(ie, "A", p1),
                                     mor.functor_T(ie, "B", p2)])
    assert cls.in_delta(s, proj_a, proj_b)
    assert cls.projective_by_shape(s)


def test_nabla_of_injectives(ie):
    inj_a = cls.injectives_spec(ie.A)
    inj_b = cls.injectives_spec(ie.B)
    for i in alg.indecomposable_injectives(ie.A):
        h = mor.functor_H(ie, "A", i)
        assert cls.in_nabla(h, inj_a, inj_b)
        assert cls.injective_by_shape(h)
    s, _, _ = mor.lambda_direct_sum(
        [mor.functor_H(ie, "A", alg.indecomposable_injectives(ie.A)[0]),
         mor.functor_H(ie, "B", alg.indecomposable_injectives(ie.B)[1])])
    assert cls.injective_by_shape(s)


def test_delta_degenerates_without_tensor_vanishing(a2_f3):
    reg = alg.regular_bimodule(a2_f3)
    irem1 = mor.MoritaData(a2_f3, a2_f3, reg, reg, name="irem1")
    allspec = cls.all_spec(a2_f3)
    zero = mor.functor_Z(irem1, "A", alg.zero_module(a2_f3))
    assert cls.in_delta(zero, allspec, allspec)
    # any nonzero T_A X fails: its g is the zero map out of a nonzero tensor
    t = mor.functor_T(irem1, "A", alg.simples(a2_f3)[0])
    assert not cls.in_delta(t, allspec, allspec)


def test_orthogonality_predicates(ie, big_L):
    p1 = alg.indecomposable_projectives(ie.A)[0]
    t = mor.functor_T(ie, "A", p1)
    assert cls.orthogonal((t, m) for m in [big_L, mor.functor_Z(ie, "A", p1)])
    assert not cls.orthogonal([(big_L, big_L)])  # Ext^1(L, L) != 0
    # T_A X is left orthogonal to H-type injectives when Tor_1(M, X) = 0
    s1 = alg.simples(ie.A)[0]
    d, _ = hml.tor1(ie.M, s1)
    assert d == 0
    ts = mor.functor_T(ie, "A", s1)
    i1 = alg.indecomposable_injectives(ie.A)[0]
    assert cls.orthogonal([(ts, mor.functor_H(ie, "A", i1))])


def test_delta_decompose_roundtrip(ie):
    rng = random.Random(3)
    p1, p2 = alg.indecomposable_projectives(ie.A)
    t = mor.functor_T(ie, "A", p1)
    tb = mor.functor_T(ie, "B", p2)
    s, _, _ = mor.lambda_direct_sum([t, tb])
    out = cls.delta_decompose(s, cls.projectives_spec(ie.A),
                              cls.projectives_spec(ie.B))
    assert out is not None
    u, v, iso = out
    assert alg.module_isomorphism(u, p1)
    assert alg.module_isomorphism(v, p2)
    iso.validate()
    f = ie.field
    assert f.equal(f.matmul(linalg.invert(f, iso.a), iso.a), f.eye(s.X.dim))


def test_delta_decompose_fails_on_nonsplit(ie, big_L):
    # L is in Mon but its canonical sequences do not split
    out = cls.delta_decompose(big_L, cls.all_spec(ie.A), cls.all_spec(ie.B))
    assert out is None
    assert not cls.projective_by_shape(big_L)


def test_nabla_decompose_roundtrip(ie):
    i1 = alg.indecomposable_injectives(ie.A)[0]
    i2 = alg.indecomposable_injectives(ie.B)[1]
    s, _, _ = mor.lambda_direct_sum([mor.functor_H(ie, "A", i1),
                                     mor.functor_H(ie, "B", i2)])
    out = cls.nabla_decompose(s, cls.injectives_spec(ie.A),
                              cls.injectives_spec(ie.B))
    assert out is not None
    kx, ky, iso = out
    assert alg.module_isomorphism(kx, i1)
    assert alg.module_isomorphism(ky, i2)
    iso.validate()


def test_tensor_hypothesis_probe(ie):
    inj = cls.injectives_spec(ie.B)
    # M (x) A-Mod is not inside the injectives: M (x) Ae1 = S2 is not injective
    assert cls.tensor_image_in(ie, "A", cls.all_spec(ie.A), inj) is False
    assert cls.tensor_image_in(ie, "A", cls.all_spec(ie.A), cls.all_spec(ie.B)) is True


def test_gorenstein_certificate_rejects_ie(ie):
    cert = cls.GorensteinCertificate(ie)
    assert not cert.ok  # kA2 is not quasi-Frobenius
    with pytest.raises(ValueError):
        cls.gp_member(cert, mor.functor_Z(ie, "A", alg.zero_module(ie.A)))


def test_gorenstein_certificate_nakayama(nak_morita):
    cert = cls.GorensteinCertificate(nak_morita)
    assert cert.ok, cert.reasons
    # projective quadruples are Gorenstein projective
    p = alg.indecomposable_projectives(nak_morita.A)[0]
    t = mor.functor_T(nak_morita, "A", p)
    assert cls.gp_member(cert, t)
    assert cls.gi_member(cert, mor.functor_H(nak_morita, "B", p))
    # Z on the third projective is not in Mon: M (x) Ae_3 = Ae_1 != 0
    p3 = alg.indecomposable_projectives(nak_morita.A)[2]
    za = mor.functor_Z(nak_morita, "A", p3)
    assert not cls.in_mon(za)
    assert not cls.gp_member(cert, za)
    # and gp agrees with mon on a handful of structured witnesses
    s, _, _ = mor.lambda_direct_sum([t, mor.functor_T(nak_morita, "B", p)])
    assert cls.in_mon(s) and cls.gp_member(cert, s)


def _frob_b_spec(data):
    proj_a = cls.projectives_spec(data.A)
    all_a = cls.all_spec(data.A)
    all_b = cls.all_spec(data.B)
    inj_b = cls.injectives_spec(data.B)

    def pair1_approx(l):
        return hml.lambda_presentation(l)

    def pair2_approx(l):
        env, mono = alg.injective_envelope(l.Y)
        v, injs, projs = alg.direct_sum([env, l.Y])
        ses0 = hml.ShortExactSequence(env, v, l.Y, injs[0], projs[1])
        return hml.approx_c1(l, ses0=ses0).ses

    return cls.HoveySpec(
        name="frobB1",
        c_spec=cls.LambdaClassSpec("t_sum", data, proj_a, all_b),
        f_spec=cls.LambdaClassSpec("all", data),
        w_spec=cls.LambdaClassSpec("column", data, all_a, inj_b),
        cw_spec=cls.LambdaClassSpec("projectives", data),
        fw_spec=cls.LambdaClassSpec("column", data, all_a, inj_b),
        pair1_approx=pair1_approx,
        pair2_approx=pair2_approx,
    )


def test_hovey_ingredients_frob_b(nak_morita):
    data = nak_morita
    p1 = alg.indecomposable_projectives(data.A)[0]
    s1 = alg.simples(data.A)[0]
    pool = [
        mor.functor_T(data, "A", p1),
        mor.functor_T(data, "B", p1),
        mor.functor_Z(data, "A", s1),
        mor.functor_Z(data, "B", s1),
        mor.functor_H(data, "A", p1),
    ]
    sess = [hml.lambda_presentation(l) for l in pool[:3]]
    spec = _frob_b_spec(data)
    entries = cls.hovey_ingredients_check(spec, pool, sess, {})
    assert all(ok for _, ok, _ in entries), entries


def test_hovey_thickness_summands_read_memberships_once(nak_morita, monkeypatch):
    """The summand-closure loop reads the pool's W-memberships from the
    table built at the start: W is asked once per pool module and once per
    pairwise sum."""
    data = nak_morita
    p1 = alg.indecomposable_projectives(data.A)[0]
    s1 = alg.simples(data.A)[0]
    pool = [mor.functor_T(data, "A", p1), mor.functor_Z(data, "A", s1),
            mor.functor_Z(data, "B", s1), mor.functor_H(data, "A", p1)]
    spec = _frob_b_spec(data)
    asked = []
    contains = cls.LambdaClassSpec.contains

    def counting(self, l):
        if self is spec.w_spec:
            asked.append(l)
        return contains(self, l)

    monkeypatch.setattr(cls.LambdaClassSpec, "contains", counting)
    entries = cls.hovey_ingredients_check(spec, pool, [], {})
    assert all(ok for _, ok, _ in entries), entries
    n = len(pool)
    assert len(asked) == n + n * (n + 1) // 2
    assert asked[:n] == pool
    assert not any(l in pool for l in asked[n:])  # only sums after the table


def test_hovey_ingredients_detect_corruption(nak_morita):
    data = nak_morita
    s1 = alg.simples(data.A)[0]
    pool = [mor.functor_T(data, "A", s1), mor.functor_Z(data, "B", s1)]
    spec = _frob_b_spec(data)
    corrupted = cls.HoveySpec(
        name="corrupted",
        c_spec=spec.c_spec,
        f_spec=spec.f_spec,
        w_spec=spec.w_spec,
        cw_spec=cls.LambdaClassSpec("t_sum", data, cls.all_spec(data.A),
                                    cls.projectives_spec(data.B)),
        fw_spec=spec.fw_spec,
        pair1_approx=spec.pair1_approx,
        pair2_approx=spec.pair2_approx,
    )
    entries = cls.hovey_ingredients_check(corrupted, pool, [], {})
    failed = [e for e in entries if not e[1]]
    assert failed


def test_hovey_ingredients_report_a_non_exact_approximation(nak_morita):
    """An approximation builder whose sequence is not exact fails its own
    entry with the reason, case by case; every other entry is still made."""
    data = nak_morita
    s1 = alg.simples(data.A)[0]
    pool = [mor.functor_T(data, "A", s1), mor.functor_Z(data, "B", s1)]
    spec = _frob_b_spec(data)
    spec.pair1_approx = lambda l: hml.ShortExactSequence(
        l, l, l, mor.lambda_identity(l), mor.lambda_identity(l))
    entries = cls.hovey_ingredients_check(spec, pool, [], {})
    assert [e[0] for e in entries] == [
        "intersection-cw", "intersection-fw", "orthogonality-pair1", "orthogonality-pair2",
        "thickness-two-of-three", "thickness-summands", "approximations-pair1",
        "approximations-pair2"]
    tag, ok, detail = entries[6]
    assert not ok
    assert detail["failures"] == [(0, "not exact: composite is nonzero"),
                                  (1, "not exact: composite is nonzero")]


def test_delta_decompose_hidden_sum_triangular(a2_f3):
    """Over the upper-triangular instance every member of the mono class
    with projective A-cokernel decomposes, even after a change of basis
    hides the direct sum."""
    import random
    from morita_lab import linalg

    zero = alg.zero_bimodule(a2_f3, a2_f3)
    n = alg.corner_bimodule(a2_f3, "1", "2")
    tri = mor.MoritaData(a2_f3, a2_f3, zero, n, name="tri")
    rng = random.Random(61)
    p = alg.indecomposable_projectives(tri.A)[0]
    v = alg.indecomposable_projectives(tri.B)[1]
    ta = mor.functor_T(tri, "A", p)
    tb = mor.functor_T(tri, "B", v)
    s, _, _ = mor.lambda_direct_sum([ta, tb])
    # conjugate the A-component to hide the summands
    while True:
        g = tri.field.asmatrix([[rng.randrange(3) for _ in range(s.X.dim)]
                                for _ in range(s.X.dim)])
        if linalg.is_invertible(tri.field, g):
            break
    gi = linalg.invert(tri.field, g)
    xc = alg.Module(tri.A, s.X.dim,
                    [tri.field.matmul(g, tri.field.matmul(m, gi)) for m in s.X.action])
    hidden = mor.LambdaModule(tri, xc, s.Y, s.f, tri.field.matmul(g, s.g))
    hidden.validate()
    out = cls.delta_decompose(hidden, cls.projectives_spec(tri.A),
                              cls.all_spec(tri.B))
    assert out is not None
    u, vv, iso = out
    assert alg.module_isomorphism(u, p)
    assert alg.module_isomorphism(vv, v)
