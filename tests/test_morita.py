import random

import numpy as np
import pytest

from morita_lab.fields import F2, F3, QQ, FieldSpec
from morita_lab import algebras as alg
from morita_lab import morita as mor
from morita_lab import linalg


@pytest.fixture(scope="module")
def ie(a2_f3):
    a = a2_f3
    m = alg.corner_bimodule(a, "2", "1")
    return mor.MoritaData(a, a, m, m, name="ie")


@pytest.fixture(scope="module")
def irem1(a2_f3):
    a = a2_f3
    reg = alg.regular_bimodule(a)
    return mor.MoritaData(a, a, reg, reg, name="irem1")


@pytest.fixture(scope="module")
def product_data():
    k = alg.ground_field_algebra(F3)
    z = alg.zero_bimodule(k, k)
    return mor.MoritaData(k, k, z, z, name="product")


def _proj(ie):
    return alg.indecomposable_projectives(ie.A)


def _simp(ie):
    return alg.simples(ie.A)


def _random_quadruple(data, x, y, rng):
    """Random structure maps; valid as-is because the tensors vanish."""
    tx = mor.tensor_over(data.M, x)
    ty = mor.tensor_over(data.N, y)
    f = _random_combo(data.field, alg.hom_space(tx.module, y), (y.dim, tx.dim), rng)
    g = _random_combo(data.field, alg.hom_space(ty.module, x), (x.dim, ty.dim), rng)
    l = mor.LambdaModule(data, x, y, f, g, tx=tx, ty=ty)
    l.validate()
    return l


def _random_combo(field, basis, shape, rng):
    out = field.zeros(*shape)
    for mat in basis:
        c = rng.randrange(field.p)
        if c:
            out = out + c * mat
    return field.normalize(out)


def test_validate_ie(ie):
    rep = ie.validate()
    assert rep["valid"] and rep["mn_vanishes"] and rep["nm_vanishes"]


def test_validate_irem1(irem1):
    rep = irem1.validate()
    assert rep["valid"] and rep["pairings_zero"]
    assert not rep["mn_vanishes"] and not rep["nm_vanishes"]


def test_validate_product(product_data):
    rep = product_data.validate()
    assert rep["valid"] and rep["mn_vanishes"] and rep["nm_vanishes"]


def test_functor_T_on_projective(ie):
    p1 = _proj(ie)[0]
    s2 = _simp(ie)[1]
    t = mor.functor_T(ie, "A", p1)
    assert t.dims == (2, 1)
    t.validate()
    assert alg.module_isomorphism(t.Y, s2)
    assert ie.field.equal(t.f, ie.field.eye(1))
    assert ie.field.is_zero(t.g)


def test_Z_equals_T_on_killed_module(ie):
    s2 = _simp(ie)[1]
    z = mor.functor_Z(ie, "A", s2)
    t = mor.functor_T(ie, "A", s2)
    assert mor.lambda_modules_equal(z, t)


def test_H_of_zero(ie):
    z = mor.functor_H(ie, "B", alg.zero_module(ie.B))
    assert z.total_dim == 0


def test_U_T_roundtrip(ie):
    rng = random.Random(3)
    p1, p2 = _proj(ie)
    x, _, _ = alg.direct_sum([p1, p2])
    t = mor.functor_T(ie, "A", x)
    assert mor.functor_U("A", t) is x


def test_C_A_of_T_B_vanishes(ie):
    for v in list(_proj(ie)) + list(_simp(ie)):
        t = mor.functor_T(ie, "B", v)
        c, _ = mor.functor_C("A", t)
        assert c.dim == 0


def test_K_B_of_H_A_vanishes(ie):
    for x in list(_proj(ie)) + list(_simp(ie)):
        h = mor.functor_H(ie, "A", x)
        k, _ = mor.functor_K("B", h)
        assert k.dim == 0
        h.validate()


def test_adjoint_transpose_of_sigma_is_pi(ie):
    """The transpose of the canonical inclusion S2 -> Ae1 is the canonical
    projection Ae1 ->> S1 in the hom description of Hom(M, Ae1)."""
    p1 = _proj(ie)[0]
    t = mor.tensor_over(ie.M, p1)
    assert t.dim == 1
    # sigma: M (x) Ae1 -> Ae1 hits the socle coordinate (the arrow path)
    sigma = ie.field.asmatrix([[0], [1]])
    l = mor.LambdaModule(ie, p1, p1, sigma, sigma)
    l.validate()
    ft = l.f_tilde
    hom = l.hom_MY()
    assert hom.dim == 1
    s1 = _simp(ie)[0]
    assert alg.module_isomorphism(hom.module, s1)
    # kernel of f~ is the radical: f~ = (1 0) in the path basis (e1, a1)
    assert ie.field.equal(ft, ie.field.asmatrix([[1, 0]]))


def test_transpose_roundtrip(ie):
    rng = random.Random(7)
    p1, p2 = _proj(ie)
    s1, s2 = _simp(ie)
    for x in (p1, p2, s1):
        for y in (p1, s1, s2):
            tx = mor.tensor_over(ie.M, x)
            basis = alg.hom_space(tx.module, y)
            hom = alg.hom_module(ie.M, y)
            for mat in basis:
                ft = mor.transpose_structure_map(x, tx, mat, hom)
                back = mor.untranspose_structure_map(x, tx, ft, hom)
                assert ie.field.equal(back, mat)
    # transpose of zero is zero
    tx = mor.tensor_over(ie.M, p1)
    hom = alg.hom_module(ie.M, p1)
    zero = ie.field.zeros(p1.dim, tx.dim)
    assert ie.field.is_zero(mor.transpose_structure_map(p1, tx, zero, hom))


def test_materialize_dimension(ie):
    lam = mor.materialize(ie)
    assert lam.dim == 8
    lam.validate()


def test_materialize_product(product_data):
    lam = mor.materialize(product_data)
    assert lam.dim == 2
    lam.validate()


def test_flatten_regular_is_regular(ie):
    lam = mor.materialize(ie)
    # T_A A (+) T_B B flattens to the left regular representation
    reg, _, _ = mor.lambda_direct_sum([mor.functor_T(ie, "A", alg.free_module(ie.A, 1)),
                                       mor.functor_T(ie, "B", alg.free_module(ie.B, 1))])
    flat = mor.flatten(reg)
    assert flat.dim == lam.dim
    flat.validate()
    res = alg.module_isomorphism(flat, alg.free_module(lam, 1))
    assert res.status == "isomorphic"


def test_unflatten_flatten_roundtrip(ie):
    rng = random.Random(11)
    p1, p2 = _proj(ie)
    s1, s2 = _simp(ie)
    pool = [p1, p2, s1, s2]
    for _ in range(25):
        x, _, _ = alg.direct_sum([rng.choice(pool), rng.choice(pool)])
        y = rng.choice(pool)
        l = _random_quadruple(ie, x, y, rng)
        z = mor.flatten(l)
        back = mor.unflatten(ie, z)
        assert mor.lambda_modules_equal(l, back)


def test_flatten_hom_dims_agree(ie):
    rng = random.Random(13)
    p1, p2 = _proj(ie)
    s1, s2 = _simp(ie)
    pool = [p1, p2, s1, s2]
    for _ in range(6):
        l1 = _random_quadruple(ie, rng.choice(pool), rng.choice(pool), rng)
        l2 = _random_quadruple(ie, rng.choice(pool), rng.choice(pool), rng)
        d_quad = mor.lambda_hom_dim(l1, l2)
        d_flat = alg.hom_dim(mor.flatten(l1), mor.flatten(l2))
        assert d_quad == d_flat
        for phi in mor.lambda_hom_space(l1, l2):
            phi.validate()


def test_lambda_cokernel_of_zero(ie):
    p1 = _proj(ie)[0]
    l = mor.functor_T(ie, "A", p1)
    z = mor.functor_Z(ie, "B", alg.zero_module(ie.B))
    zero = mor.LambdaMorphism(z, l, ie.field.zeros(l.X.dim, z.X.dim),
                              ie.field.zeros(l.Y.dim, z.Y.dim))
    c, proj = mor.lambda_cokernel(zero)
    assert mor.lambda_modules_equal(c, l) or c.dims == l.dims
    proj.validate()


def test_lambda_direct_sum_dims(ie):
    p1 = _proj(ie)[0]
    t1 = mor.functor_T(ie, "A", p1)
    t2 = mor.functor_T(ie, "B", p1)
    s, injs, projs = mor.lambda_direct_sum([t1, t2])
    assert s.dims == (t1.X.dim + t2.X.dim, t1.Y.dim + t2.Y.dim)
    s.validate()
    for m in injs + projs:
        m.validate()


def test_lambda_kernel_shape(ie):
    # T_A Ae1 ->> Z_A Ae1 has kernel (0; M (x) Ae1)
    p1 = _proj(ie)[0]
    t = mor.functor_T(ie, "A", p1)
    z = mor.functor_Z(ie, "A", p1)
    phi = mor.LambdaMorphism(t, z, ie.field.eye(p1.dim), ie.field.zeros(0, t.Y.dim))
    phi.validate()
    k, incl = mor.lambda_kernel(phi)
    assert k.dims == (0, 1)
    incl.validate()
    assert incl.target is phi.source and mor.is_exact_pair(incl, phi)


def test_adjunction_dimension_identities(ie):
    rng = random.Random(17)
    p1, p2 = _proj(ie)
    s1, s2 = _simp(ie)
    pool = [p1, p2, s1, s2]
    for _ in range(4):
        x = rng.choice(pool)
        y = rng.choice(pool)
        l = _random_quadruple(ie, rng.choice(pool), rng.choice(pool), rng)
        ta = mor.functor_T(ie, "A", x)
        assert mor.lambda_hom_dim(ta, l) == alg.hom_dim(x, l.X)
        tb = mor.functor_T(ie, "B", y)
        assert mor.lambda_hom_dim(tb, l) == alg.hom_dim(y, l.Y)
        ha = mor.functor_H(ie, "A", x)
        assert mor.lambda_hom_dim(l, ha) == alg.hom_dim(l.X, x)
        hb = mor.functor_H(ie, "B", y)
        assert mor.lambda_hom_dim(l, hb) == alg.hom_dim(l.Y, y)
        za = mor.functor_Z(ie, "A", x)
        ka, _ = mor.functor_K("A", l)
        assert mor.lambda_hom_dim(za, l) == alg.hom_dim(x, ka)
        ca, _ = mor.functor_C("A", l)
        assert mor.lambda_hom_dim(l, za) == alg.hom_dim(ca, x)
        zb = mor.functor_Z(ie, "B", y)
        kb, _ = mor.functor_K("B", l)
        assert mor.lambda_hom_dim(zb, l) == alg.hom_dim(y, kb)
        cb, _ = mor.functor_C("B", l)
        assert mor.lambda_hom_dim(l, zb) == alg.hom_dim(cb, y)


def test_lambda_simples(ie, product_data):
    ls = mor.lambda_simples(ie)
    assert len(ls) == 4
    assert all(s.total_dim == 1 for s in ls)
    assert len(mor.lambda_simples(product_data)) == 2


def test_compatibility_enforced(irem1):
    # over (A A; A A) a quadruple with f = g = identity violates g(1(x)f) = 0
    a = irem1.A
    reg = alg.free_module(a, 1)
    tx = mor.tensor_over(irem1.M, reg)
    ty = mor.tensor_over(irem1.N, reg)
    assert tx.dim == reg.dim and ty.dim == reg.dim
    with pytest.raises(ValueError):
        mor.LambdaModule(irem1, reg, reg, irem1.field.eye(3), irem1.field.eye(3)).validate()


def test_second_expression_roundtrip(ie):
    rng = random.Random(23)
    p1 = _proj(ie)[0]
    l = _random_quadruple(ie, p1, p1, rng)
    rebuilt = mor.lambda_module_from_second_expression(ie, l.X, l.Y, l.f_tilde, l.g_tilde)
    rebuilt.validate()
    assert mor.lambda_modules_equal(l, rebuilt)


def test_adjoint_transpose_roundtrip(ie):
    """eta: Hom_B(M (x) X, Y) -> Hom_A(X, Hom_B(M, Y)) and
    eta': Hom_A(N (x) Y, X) -> Hom_B(Y, Hom_A(N, X)) invert on sigma."""
    p1 = _proj(ie)[0]
    sigma = ie.field.asmatrix([[0], [1]])
    tx, hom_my = mor.tensor_over(ie.M, p1), mor.hom_module(ie.M, p1)
    ft = mor.transpose_structure_map(p1, tx, sigma, hom_my)
    assert ie.field.equal(ft, ie.field.asmatrix([[1, 0]]))
    back = mor.untranspose_structure_map(p1, tx, ft, hom_my)
    assert ie.field.equal(back, sigma)
    ty, hom_nx = mor.tensor_over(ie.N, p1), mor.hom_module(ie.N, p1)
    gt = mor.transpose_structure_map(p1, ty, sigma, hom_nx)
    assert ie.field.equal(mor.untranspose_structure_map(p1, ty, gt, hom_nx), sigma)


def _conjugate_module(x, g):
    f = x.field
    gi = linalg.invert(f, g)
    return alg.Module(x.algebra, x.dim, [f.matmul(g, f.matmul(m, gi)) for m in x.action])


def _random_invertible(field, n, rng):
    while True:
        m = field.asmatrix([[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
        if linalg.is_invertible(field, m):
            return m


def test_lambda_hom_generic_path_agrees(ie):
    """Conjugating a component destroys the adapted basis, forcing the
    generic solver; dimensions must not change."""
    rng = random.Random(53)
    p1 = _proj(ie)[0]
    l1 = _random_quadruple(ie, p1, p1, rng)
    g = _random_invertible(ie.field, p1.dim, rng)
    xc = _conjugate_module(l1.X, g)
    assert xc.vertex_classes() is None
    tx = mor.tensor_over(ie.M, xc)
    gi = linalg.invert(ie.field, g)
    one_gi = mor._tensor_map(ie.field, tx, l1.tX, gi)
    f_c = ie.field.matmul(l1.f, one_gi)
    g_c = ie.field.matmul(g, l1.g)
    l1c = mor.LambdaModule(ie, xc, l1.Y, f_c, g_c, tx=tx)
    l1c.validate()
    iso = mor.lambda_isomorphism(l1, l1c)
    assert iso.status == "isomorphic"
    l2 = _random_quadruple(ie, _proj(ie)[1], _simp(ie)[0], rng)
    assert mor.lambda_hom_dim(l1, l2) == mor.lambda_hom_dim(l1c, l2)
    assert mor.lambda_hom_dim(l2, l1) == mor.lambda_hom_dim(l2, l1c)


def test_unflatten_arbitrary_basis(ie):
    rng = random.Random(59)
    p1 = _proj(ie)[0]
    l = _random_quadruple(ie, p1, _simp(ie)[1], rng)
    flat = mor.flatten(l)
    t = _random_invertible(ie.field, flat.dim, rng)
    ti = linalg.invert(ie.field, t)
    twisted = alg.Module(flat.algebra, flat.dim,
                         [ie.field.matmul(t, ie.field.matmul(m, ti))
                          for m in flat.action])
    back = mor.unflatten(ie, twisted)
    assert mor.lambda_isomorphism(l, back).status == "isomorphic"


def test_large_prime_flow():
    from morita_lab.fields import FieldSpec
    big = FieldSpec("prime", (1 << 31) - 1)
    a = alg.path_algebra(alg.linear_quiver(2), [], big)
    m = alg.corner_bimodule(a, "2", "1")
    data = mor.MoritaData(a, a, m, m, name="big")
    p1 = alg.indecomposable_projectives(a)[0]
    t = mor.functor_T(data, "A", p1)
    t.validate()
    assert mor.lambda_hom_dim(t, t) >= 1
    back = mor.unflatten(data, mor.flatten(t))
    assert mor.lambda_modules_equal(t, back)


def _bytes(m):
    """dtype, shape and exact entries (with their Python types)."""
    return m.dtype.str, m.shape, repr(m.tolist())


@pytest.mark.parametrize("field", [F3, FieldSpec("prime", 33554467), QQ],
                         ids=["F3", "bigprime", "QQ"])
def test_lambda_one_class_path_gives_the_same_bytes(field, monkeypatch):
    """With every component counted as one class, lambda_hom_space and the
    extend and lift problems of homology give the same bases and solutions:
    retractions of random split sequences (into sums) and of non-split ones
    (T-cover presentations), lifts of random maps out of a T-cover's
    projective middle, and a section of the T-cover of a simple, which has
    no solution."""
    from morita_lab import homology as hml
    from morita_lab import lab

    rng = random.Random(11)
    pairs, problems = [], []
    for inst in (lab.catalog("ie", field), lab.catalog("examctp4", field)):
        sampler = lab.Sampler(3, dim_cap=5, rank_cap=2)
        ms = mor.lambda_simples(inst.data) + [sampler.quadruple(inst.data) for _ in range(4)]
        for src in ms:
            for tgt in rng.sample(ms, 3):
                pairs.append((src, tgt))
                _, injs, _ = mor.lambda_direct_sum([src, tgt])
                problems.append((hml._extend_along, injs[0], mor.lambda_identity(src)))
            pres = hml.lambda_presentation(src)
            problems.append((hml._extend_along, pres.incl, mor.lambda_identity(pres.left)))
            tgt = rng.choice(ms)
            basis = mor.lambda_hom_space(pres.middle, tgt)
            if basis:
                problems.append((hml._lift_along, hml.lambda_presentation(tgt).proj,
                                 rng.choice(basis)))
    s1 = mor.lambda_simples(lab.catalog("ie", field).data)[0]
    problems.append((hml._lift_along, hml.lambda_presentation(s1).proj,
                     mor.lambda_identity(s1)))
    assert all(c is not None for src, tgt in pairs
               for c in (src.X.vertex_classes(), tgt.Y.vertex_classes()))

    def run():
        homs = [[(_bytes(phi.a), _bytes(phi.b)) for phi in mor.lambda_hom_space(src, tgt)]
                for src, tgt in pairs]
        sols = [solve(along, goal) for solve, along, goal in problems]
        return homs, [None if s is None else (_bytes(s.a), _bytes(s.b)) for s in sols]

    classed = run()
    monkeypatch.setattr(alg.Module, "vertex_classes", lambda self: None)
    assert run() == classed
    homs, sols = classed
    assert max(map(len, homs)) >= 2
    assert sols[-1] is None and sols.count(None) < len(sols) // 2
    assert any(solve is hml._lift_along and s is not None
               for (solve, _, _), s in zip(problems, sols))


def _summand_loop_sum(mods):
    """lambda_direct_sum's structure maps built summand by summand, kept as
    the reference: f = sum_k inj_k f_k (1 (x) proj_k), and likewise g."""
    data = mods[0].data
    fld = data.field
    xs, x_injs, x_projs = alg.direct_sum([l.X for l in mods])
    ys, y_injs, y_projs = alg.direct_sum([l.Y for l in mods])
    txs, tys = mor.tensor_over(data.M, xs), mor.tensor_over(data.N, ys)
    f = fld.zeros(ys.dim, txs.dim)
    g = fld.zeros(xs.dim, tys.dim)
    for l, xi, xp, yi, yp in zip(mods, x_injs, x_projs, y_injs, y_projs):
        one_xp = mor._tensor_map(fld, txs, l.tX, xp.matrix)
        f = f + fld.matmul(yi.matrix, fld.matmul(l.f, one_xp))
        one_yp = mor._tensor_map(fld, tys, l.tY, yp.matrix)
        g = g + fld.matmul(xi.matrix, fld.matmul(l.g, one_yp))
    return fld.normalize(f), fld.normalize(g)


def _descended_sum(s, mods):
    """lambda_direct_sum's structure maps by the formula placement replaced,
    kept as a second reference: the summands' pure values placed
    block-diagonally and descended once through the sum's tensors."""
    fld, data = s.field, s.data
    f = s.tX.descend(alg._block_diagonal(fld, data.M.dim, [
        l.pure_f().transpose(1, 0, 2) for l in mods]).transpose(1, 0, 2))
    g = s.tY.descend(alg._block_diagonal(fld, data.N.dim, [
        l.pure_g().transpose(1, 0, 2) for l in mods]).transpose(1, 0, 2))
    return f, g


@pytest.mark.parametrize("field", [F3, FieldSpec("prime", 33554467), QQ],
                         ids=["F3", "bigprime", "QQ"])
def test_lambda_direct_sum_matches_the_summand_loop(field):
    """The placed structure maps are those of the old summand-by-summand
    loop and of the block-diagonal descent, byte for byte, also with
    summands of zero and of unequal dimension; the sum and every injection
    and projection validate."""
    from morita_lab import lab

    for name in ("ie", "examctp4"):
        data = lab.catalog(name, field).data
        sampler = lab.Sampler(5, dim_cap=5, rank_cap=2)
        zero = mor.functor_Z(data, "A", alg.zero_module(data.A))
        simples = mor.lambda_simples(data)
        t_a = mor.functor_T(data, "A", alg.indecomposable_projectives(data.A)[0])
        h_b = mor.functor_H(data, "B", alg.indecomposable_injectives(data.B)[-1])
        sampled = [sampler.quadruple(data) for _ in range(3)]
        cases = [[zero], [zero, zero], [simples[0], zero, simples[-1]],
                 [t_a, h_b], [sampled[0], zero, t_a, sampled[1]],
                 sampled + simples, [h_b, simples[1], sampled[2], zero]]
        dims = set()
        for mods in cases:
            s, injs, projs = mor.lambda_direct_sum(mods)
            f, g = _summand_loop_sum(mods)
            assert (_bytes(s.f), _bytes(s.g)) == (_bytes(f), _bytes(g))
            f, g = _descended_sum(s, mods)
            assert (_bytes(s.f), _bytes(s.g)) == (_bytes(f), _bytes(g))
            s.validate()
            for phi in injs + projs:
                phi.validate()
            dims.update(l.dims for l in mods)
        assert (0, 0) in dims and len(dims) >= 5


def _reference_squares(phi):
    """Whether the f-square and the g-square of phi commute, compared as
    maps on the tensor quotients: b f_src against f_tgt (1 (x) a), with
    1 (x) a built by _tensor_map, and likewise for g."""
    fld, src, tgt = phi.field, phi.source, phi.target
    one_a = mor._tensor_map(fld, src.tX, tgt.tX, phi.a)
    one_b = mor._tensor_map(fld, src.tY, tgt.tY, phi.b)
    return (fld.equal(fld.matmul(phi.b, src.f), fld.matmul(tgt.f, one_a)),
            fld.equal(fld.matmul(phi.a, src.g), fld.matmul(tgt.g, one_b)))


@pytest.mark.parametrize("field", [F3, QQ, FieldSpec("prime", (1 << 31) - 1)],
                         ids=["F3", "QQ", "F2147483647"])
def test_lambda_morphism_squares_are_checked_on_pure_tensors(field):
    """validate accepts every element of the canonical lambda hom basis, and
    on (a + h, b) and (a, b + k), for module maps h and k, it fails with the
    message of the first square that the quotient-map reference finds not
    commuting, exactly when the flattened map is not a module map."""
    from morita_lab import lab

    rng = random.Random(3)
    seen = set()
    for name in ("ie", "examctp4"):
        data = lab.catalog(name, field).data
        sampler = lab.Sampler(9, dim_cap=5, rank_cap=2)
        mods = [mor.functor_T(data, "A", alg.indecomposable_projectives(data.A)[0]),
                mor.functor_T(data, "B", alg.indecomposable_projectives(data.B)[0]),
                mor.functor_H(data, "A", alg.indecomposable_injectives(data.A)[-1]),
                mor.functor_H(data, "B", alg.indecomposable_injectives(data.B)[-1]),
                *mor.lambda_simples(data)[:2],
                *[sampler.quadruple(data) for _ in range(4)]]
        for src in mods:
            for tgt in mods:
                basis = mor.lambda_hom_space(src, tgt)
                for phi in basis:
                    assert phi.validate() is True
                base = rng.choice(basis) if basis else mor.LambdaMorphism(
                    src, tgt, field.zeros(tgt.X.dim, src.X.dim), field.zeros(tgt.Y.dim, src.Y.dim))
                perturbed = (
                    [mor.LambdaMorphism(src, tgt, field.normalize(base.a + h), base.b)
                     for h in alg.hom_space(src.X, tgt.X)]
                    + [mor.LambdaMorphism(src, tgt, base.a, field.normalize(base.b + k))
                       for k in alg.hom_space(src.Y, tgt.Y)])
                for psi in perturbed:
                    f_ok, g_ok = _reference_squares(psi)
                    flat_ok = True
                    try:
                        mor.flatten_morphism(psi).validate()
                    except ValueError:
                        flat_ok = False
                    assert flat_ok == (f_ok and g_ok)
                    if f_ok and g_ok:
                        assert psi.validate() is True
                        seen.add("accepted")
                        continue
                    side = "f" if not f_ok else "g"
                    with pytest.raises(ValueError, match=f"^square over {side} does not commute$"):
                        psi.validate()
                    seen.add(side)
    assert seen == {"accepted", "f", "g"}
