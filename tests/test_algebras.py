import random
from fractions import Fraction

import numpy as np
import pytest

from morita_lab.fields import F2, F3, QQ, FieldSpec
from morita_lab import algebras as alg
from morita_lab import linalg


def test_path_algebra_a2(a2_f3):
    assert a2_f3.dim == 3
    a2_f3.validate()
    assert set(a2_f3.vertex_idempotents) == {"1", "2"}


def test_path_algebra_cyclic_j2():
    q = alg.cyclic_quiver(3)
    a = alg.path_algebra(q, alg.nakayama_relations(q, 2), F2)
    assert a.dim == 6
    a.validate()


def test_path_algebra_ground_field():
    a = alg.path_algebra(alg.Quiver(("v",), ()), [], F3)
    assert a.dim == 1
    a.validate()


def test_path_algebra_infinite_rejected():
    q = alg.Quiver(("v",), (("x", "v", "v"),))
    with pytest.raises(ValueError):
        alg.path_algebra(q, [], F3)


def test_dual_numbers_opposite_is_itself():
    q = alg.Quiver(("v",), (("x", "v", "v"),))
    a = alg.path_algebra(q, [("x", "x")], QQ)
    assert a.dim == 2
    op = a.opposite()
    for key, vec in a.mult.items():
        assert QQ.equal(op.mult[(key[1], key[0])].reshape(1, -1), vec.reshape(1, -1))
    assert op.opposite() is a


def test_opposite_a2(a2_f3):
    op = a2_f3.opposite()
    assert op.dim == 3
    op.validate()
    arr = op.quiver.arrows[0]
    assert (arr[1], arr[2]) == ("2", "1")


def test_simples(a2_f3, nakayama_f3):
    s = alg.simples(a2_f3)
    assert [m.dim for m in s] == [1, 1]
    for m in s:
        m.validate()
    # built once per algebra, handed out as a fresh list each time
    s.pop()
    again = alg.simples(a2_f3)
    assert len(again) == 2 and again[0] is s[0] and again is not alg.simples(a2_f3)
    assert len(alg.simples(nakayama_f3)) == 3
    k = alg.ground_field_algebra(F3)
    (only,) = alg.simples(k)
    assert only.dim == 1 == alg.free_module(k, 1).dim


def test_projectives_a2(a2_f3):
    p1, p2 = alg.indecomposable_projectives(a2_f3)
    assert p1.dim == 2 and p2.dim == 1
    p1.validate(), p2.validate()
    assert alg.is_projective_module(p1) and alg.is_projective_module(p2)


def test_nakayama_self_injective(nakayama_f3):
    projs = alg.indecomposable_projectives(nakayama_f3)
    injs = alg.indecomposable_injectives(nakayama_f3)
    assert all(p.dim == 2 for p in projs)
    matched = set()
    for p in projs:
        hits = [i for i, j in enumerate(injs)
                if i not in matched and alg.module_isomorphism(p, j)]
        assert hits, "projective without matching injective"
        matched.add(hits[0])
    assert len(matched) == 3


def test_semisimple_proj_eq_inj():
    a = alg.path_algebra(alg.Quiver(("1", "2"), ()), [], F3)
    projs = alg.indecomposable_projectives(a)
    injs = alg.indecomposable_injectives(a)
    ss = alg.simples(a)
    for p, i, s in zip(projs, injs, ss):
        assert alg.module_isomorphism(p, s) and alg.module_isomorphism(i, s)


def test_dual_module(a2_f3):
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    d = alg.dual_module(p1)
    assert d.dim == 2 and d.algebra is a2_f3.opposite()
    d.validate()
    z = alg.dual_module(alg.zero_module(a2_f3))
    assert z.dim == 0
    s1 = alg.simples(a2_f3)[0]
    ds = alg.dual_module(s1)
    assert ds.dim == 1
    ds.validate()


def test_hom_space_examples(a2_f3):
    p1, p2 = alg.indecomposable_projectives(a2_f3)
    s1, s2 = alg.simples(a2_f3)
    # e_2 A e_1 is one dimensional
    assert alg.hom_dim(p2, p1) == 1
    assert alg.hom_dim(s1, s2) == 0
    reg = alg.free_module(a2_f3, 1)
    for x in (p1, p2, s1, s2):
        assert alg.hom_dim(reg, x) == x.dim
    for h in alg.hom_space(p2, p1):
        alg.ModuleMorphism(p2, p1, h).validate()


def test_hom_dim_invariant_under_base_change(a2_f3):
    rng = random.Random(5)
    p1, _ = alg.indecomposable_projectives(a2_f3)
    s1, s2 = alg.simples(a2_f3)
    x, _, _ = alg.direct_sum([p1, s1])
    y, _, _ = alg.direct_sum([p1, s2])
    base = alg.hom_dim(x, y)
    for _ in range(3):
        gx = _random_invertible_selfmap(x, rng)
        gy = _random_invertible_selfmap(y, rng)
        xc = _conjugate(x, gx)
        yc = _conjugate(y, gy)
        assert alg.hom_dim(xc, yc) == base


def _random_invertible_selfmap(x, rng):
    f = x.field
    while True:
        m = f.asmatrix([[rng.randrange(f.p) for _ in range(x.dim)] for _ in range(x.dim)])
        if linalg.is_invertible(f, m):
            return m


def _conjugate(x, g):
    f = x.field
    gi = linalg.invert(f, g)
    return alg.Module(x.algebra, x.dim, [f.matmul(g, f.matmul(a, gi)) for a in x.action])


def _corner_m(a):
    """Ae_2 (x) e_1 A, the bimodule of the two-vertex example."""
    return alg.corner_bimodule(a, "2", "1")


def test_tensor_corner_bimodule(a2_f3):
    m = _corner_m(a2_f3)
    assert m.dim == 1
    m.validate()
    p1, p2 = alg.indecomposable_projectives(a2_f3)
    s1, s2 = alg.simples(a2_f3)
    t = alg.tensor_over(m, p1)
    assert t.dim == 1
    assert alg.module_isomorphism(t.module, s2)
    # N (x)_A N = 0 for this bimodule
    t2 = alg.tensor_over(m, m.as_left_module())
    assert t2.dim == 0


def test_tensor_regular(a2_f3):
    reg = alg.regular_bimodule(a2_f3)
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    t = alg.tensor_over(reg, p1)
    assert t.dim == p1.dim
    assert alg.module_isomorphism(t.module, p1)
    t.module.validate()


def test_hom_module_examples(a2_f3):
    m = _corner_m(a2_f3)
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    s1 = alg.simples(a2_f3)[0]
    h = alg.hom_module(m, p1)
    assert h.dim == 1
    assert alg.module_isomorphism(h.module, s1)
    reg = alg.regular_bimodule(a2_f3)
    hx = alg.hom_module(reg, p1)
    assert alg.module_isomorphism(hx.module, p1)
    z = alg.zero_bimodule(a2_f3, a2_f3)
    assert alg.hom_module(z, p1).dim == 0


def test_tensor_hom_adjunction_dimensions(a2_f3):
    m = _corner_m(a2_f3)
    mods = list(alg.indecomposable_projectives(a2_f3)) + list(alg.simples(a2_f3))
    for x in mods:
        for y in mods:
            lhs = alg.hom_dim(alg.tensor_over(m, x).module, y)
            rhs = alg.hom_dim(x, alg.hom_module(m, y).module)
            assert lhs == rhs


def test_kernel_cokernel(a2_f3):
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    s1, s2 = alg.simples(a2_f3)
    k, _ = alg.kernel(alg.identity_morphism(p1))
    assert k.dim == 0
    z = alg.zero_module(a2_f3)
    c, _ = alg.cokernel(alg.ModuleMorphism(z, p1, a2_f3.field.zeros(p1.dim, z.dim)))
    assert alg.module_isomorphism(c, p1)
    # the projective cover of the top simple has radical S_2
    cover, epi = alg.projective_cover(s1)
    assert alg.module_isomorphism(cover, p1)
    ker, incl = alg.kernel(epi)
    assert alg.module_isomorphism(ker, s2)
    incl.validate()
    epi.validate()


def test_direct_sum_morphisms(a2_f3):
    s1, s2 = alg.simples(a2_f3)
    s, injs, projs = alg.direct_sum([s1, s2])
    assert s.dim == 2
    for m in injs + projs:
        m.validate()
    f = s.field
    total = f.zeros(s.dim, s.dim)
    for inj, pr in zip(injs, projs):
        total = f.normalize(total + f.matmul(inj.matrix, pr.matrix))
    assert f.equal(total, f.eye(s.dim))


def test_dual_is_exact(a2_f3):
    s1, s2 = alg.simples(a2_f3)
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    cover, epi = alg.projective_cover(s1)
    ker, incl = alg.kernel(epi)
    f = F3
    # dualize the short exact sequence and check exactness by ranks
    d_incl = alg.ModuleMorphism(alg.dual_module(s1), alg.dual_module(cover), epi.matrix.T)
    d_epi = alg.ModuleMorphism(alg.dual_module(cover), alg.dual_module(ker), incl.matrix.T)
    d_incl.validate(), d_epi.validate()
    assert linalg.rank(f, d_incl.matrix) == 1
    assert linalg.rank(f, d_epi.matrix) == ker.dim
    assert f.is_zero(f.matmul(d_epi.matrix, d_incl.matrix))


def test_injectivity_tests(a2_f3, nakayama_f3):
    i1, i2 = alg.indecomposable_injectives(a2_f3)
    assert alg.is_injective_module(i1) and alg.is_injective_module(i2)
    s1, s2 = alg.simples(a2_f3)
    assert alg.is_injective_module(s1)  # S_1 = D(e_1 A) is injective over kA2
    assert not alg.is_injective_module(s2)
    assert not alg.is_projective_module(s1)
    for p in alg.indecomposable_projectives(nakayama_f3):
        assert alg.is_injective_module(p)


def test_iso_rejects_different_structures(a2_f3):
    s1, s2 = alg.simples(a2_f3)
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    ss, _, _ = alg.direct_sum([s1, s2])
    res = alg.module_isomorphism(p1, ss)
    assert res.status == "not_isomorphic"


def test_iso_accepts_conjugated(a2_f3):
    rng = random.Random(11)
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    g = _random_invertible_selfmap(p1, rng)
    res = alg.module_isomorphism(p1, _conjugate(p1, g))
    assert res.status == "isomorphic"
    res.witness.validate()


def test_injective_envelope(a2_f3):
    s2 = alg.simples(a2_f3)[1]
    env, mono = alg.injective_envelope(s2)
    assert env.dim == 2
    mono.validate()
    assert linalg.rank(F3, mono.matrix) == 1
    assert alg.is_injective_module(env)


def test_module_validation_rejects_garbage(a2_f3):
    bad = [F3.eye(1)] * a2_f3.dim
    with pytest.raises(ValueError):
        alg.Module(a2_f3, 1, bad).validate()


# -- PresentedAlgebra.validate against the loop it replaced -------------------

TOP = FieldSpec("prime", (1 << 31) - 1)  # the largest admitted prime
VALIDATE_FIELDS = pytest.mark.parametrize("field", [F3, QQ, TOP], ids=["F3", "QQ", "top"])


def _reduce(field):
    """Reduction of a Python scalar: mod p, or over Q an integral value as
    an int, which keeps the reference arithmetic off Fractions."""
    if field.kind == "prime":
        return lambda v: v % field.p
    return lambda v: v.numerator if v.denominator == 1 else v


def _truncated_polynomial_constants(field, coeffs):
    """Structure constants of F[x]/(x^n - sum_i coeffs[i] x^i) in the basis
    1, x, ..., x^(n-1), as nested lists of scalars: [a][b] is x^a x^b."""
    n, red = len(coeffs), _reduce(field)
    powers = [[int(a == e) for a in range(n)] for e in range(n)]
    for _ in range(n - 1):  # x^e = x * x^(e-1), with x^n replaced
        top = powers[-1]
        powers.append([red((top[a - 1] if a else 0) + top[-1] * coeffs[a]) for a in range(n)])
    return [[powers[a + b] for b in range(n)] for a in range(n)]


def _change_basis(field, consts, unit, s):
    """The constants and unit in the basis whose i-th element has coordinates
    s[i] in the old one, computed in Python scalars."""
    n, red = len(s), _reduce(field)
    # s^-1 by Gauss-Jordan on [s | 1]
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(s)]
    for c in range(n):
        piv = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = field.inv(rows[c][c])
        rows[c] = [red(v * inv) for v in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                rows[i] = [red(v - rows[i][c] * w) for v, w in zip(rows[i], rows[c])]
    s_inv = [row[n:] for row in rows]

    def new_coords(v):
        return [red(sum(v[a] * s_inv[a][b] for a in range(n))) for b in range(n)]

    def product(u, v):
        return [red(sum(u[a] * v[b] * consts[a][b][e] for a in range(n) for b in range(n)))
                for e in range(n)]

    return ([[new_coords(product(s[i], s[j])) for j in range(n)] for i in range(n)],
            new_coords(unit))


def _random_basis(field, rng, n):
    """A product of a lower and an upper unitriangular matrix: invertible
    over every field, with entries near p at a large prime."""
    def entry():
        if field is TOP:
            return rng.choice([field.p - 1 - rng.randrange(3), rng.randrange(field.p)])
        return rng.randrange(-2, 3)
    lower = [[1 if i == j else (entry() if i > j else 0) for j in range(n)] for i in range(n)]
    red = _reduce(field)
    return [[red(sum(lower[i][k] * lower[j][k] for k in range(n))) for j in range(n)]
            for i in range(n)]


def _ref_validate(field, consts, unit):
    """PresentedAlgebra.validate as the loop it was: the first failing basis
    element, left unit law before right, then the first failing (i,j,k)."""
    n, red = len(unit), _reduce(field)

    def mul(u, v):
        out = [0] * n
        for a in range(n):
            for b in range(n):
                if u[a] and v[b]:
                    out = [w + u[a] * v[b] * c for w, c in zip(out, consts[a][b])]
        return [red(w) for w in out]

    eye = [[int(a == b) for b in range(n)] for a in range(n)]
    for j in range(n):
        if mul(unit, eye[j]) != eye[j]:
            return "unit law fails on the left"
        if mul(eye[j], unit) != eye[j]:
            return "unit law fails on the right"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mul(consts[i][j], eye[k]) != mul(eye[i], consts[j][k]):
                    return f"associativity fails at ({i},{j},{k})"
    return None


def _presented(field, consts, unit):
    n = len(unit)
    mult = {(i, j): field.asmatrix([consts[i][j]])[0] for i in range(n) for j in range(n)}
    return alg.PresentedAlgebra(field, [f"b{i}" for i in range(n)], mult,
                                field.asmatrix([unit])[0])


def _outcome(algebra):
    try:
        assert algebra.validate() is True
    except ValueError as exc:
        return str(exc)
    return None


SEXTIC = [2, 0, -1, 1, 0, 3]  # x^6 = 2 - x^2 + x^3 + 3x^5


@VALIDATE_FIELDS
def test_validate_accepts_an_algebra_in_a_random_basis(field):
    rng = random.Random(17)
    consts = _truncated_polynomial_constants(field, SEXTIC)
    for _ in range(10):
        new, unit = _change_basis(field, consts, [1, 0, 0, 0, 0, 0], _random_basis(field, rng, 6))
        assert _ref_validate(field, new, unit) is None
        assert _outcome(_presented(field, new, unit)) is None


def _broken(field, consts, changes):
    """A copy of the constants with e_1 added to x^a x^b for each (a, b)."""
    out = [[list(v) for v in row] for row in consts]
    for a, b in changes:
        out[a][b][1] = _reduce(field)(out[a][b][1] + 1)
    return out


# (a, b) products broken in the basis 1, x, ..., x^5, where the unit is e_0:
# x^0 x^j breaks the left unit law at j, x^j x^0 the right one
BROKEN = {
    "left at 3": ([(0, 3)], "unit law fails on the left"),
    "right at 2": ([(2, 0)], "unit law fails on the right"),
    "right at 1 before left at 3": ([(1, 0), (0, 3)], "unit law fails on the right"),
    "left and right at 2": ([(2, 0), (0, 2)], "unit law fails on the left"),
    "associativity": ([(2, 3)], "associativity fails at (1,1,3)"),
    "associativity at the end": ([(5, 5)], "associativity fails at (1,4,5)"),
}


@VALIDATE_FIELDS
@pytest.mark.parametrize("case", sorted(BROKEN))
def test_validate_names_the_first_failure(field, case):
    changes, message = BROKEN[case]
    consts = _broken(field, _truncated_polynomial_constants(field, SEXTIC), changes)
    unit = [1, 0, 0, 0, 0, 0]
    assert _ref_validate(field, consts, unit) == message
    assert _outcome(_presented(field, consts, unit)) == message


@VALIDATE_FIELDS
def test_validate_matches_the_loop_in_a_random_basis(field):
    rng = random.Random(19)
    consts = _truncated_polynomial_constants(field, SEXTIC)
    seen = set()
    for _ in range(12):
        new, unit = _change_basis(field, consts, [1, 0, 0, 0, 0, 0], _random_basis(field, rng, 6))
        changes = [(rng.randrange(6), rng.randrange(6)) for _ in range(rng.randint(1, 2))]
        new = _broken(field, new, changes)
        want = _ref_validate(field, new, unit)
        seen.add(want)
        assert _outcome(_presented(field, new, unit)) == want
    assert None not in seen


from hypothesis import given, settings, strategies as st


def _a2_module_from_arrow(field, d1, d2, entries):
    """Module over kA2 with dimension vector (d1, d2) and the given arrow
    block, in vertex-adapted coordinates."""
    a = alg.path_algebra(alg.linear_quiver(2), [], field)
    f = field
    total = d1 + d2
    e1 = f.zeros(total, total)
    for i in range(d1):
        e1[i, i] = f.one
    e2 = f.zeros(total, total)
    for i in range(d2):
        e2[d1 + i, d1 + i] = f.one
    arrow = f.zeros(total, total)
    for i in range(d2):
        for j in range(d1):
            arrow[d1 + i, j] = f.scalar(entries[i * d1 + j])
    return a, alg.Module(a, total, [e1, e2, arrow])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
       st.lists(st.integers(0, 2), min_size=0, max_size=4),
       st.lists(st.integers(0, 2), min_size=0, max_size=4))
def test_hom_tensor_adjunction_property(d1, d2, e1, e2, ent_x, ent_y):
    fld = F3
    ent_x = (ent_x * 4 + [0] * (d1 * d2))[: d1 * d2]
    ent_y = (ent_y * 4 + [0] * (e1 * e2))[: e1 * e2]
    a, x = _a2_module_from_arrow(fld, d1, d2, ent_x)
    a2, y = _a2_module_from_arrow(fld, e1, e2, ent_y)
    y = alg.Module(a, y.dim, y.action)  # over the same algebra object
    x.validate(), y.validate()
    m = alg.corner_bimodule(a, "2", "1")
    lhs = alg.hom_dim(alg.tensor_over(m, x).module, y)
    rhs = alg.hom_dim(x, alg.hom_module(m, y).module)
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2),
       st.lists(st.integers(0, 2), min_size=0, max_size=4))
def test_presentation_exactness_property(d1, d2, entries):
    from morita_lab import homology as hml
    from test_homology import free_ext_dim

    entries = (entries * 4 + [0] * (d1 * d2))[: d1 * d2]
    a, x = _a2_module_from_arrow(F3, d1, d2, entries)
    if x.dim == 0:
        return
    pres = hml.free_presentation(x)
    assert pres.left.dim + x.dim == pres.middle.dim
    assert alg.is_projective_module(pres.middle)
    cov = hml.cover_presentation(x)
    assert cov.middle.dim <= pres.middle.dim
    for y in alg.simples(a):
        assert free_ext_dim(x, y) == hml.ext_dim(x, y, 1)


# -- the tensor memo ---------------------------------------------------------

BIG = FieldSpec("prime", 33554467)  # first prime above 2^25; int64, as every prime


def _arrow_module(algebra, entry):
    """The 2-dimensional representation k -> k of 1 -> 2 with arrow = entry.
    Every call builds fresh arrays (and, over Q, fresh Fraction objects for
    a non-integral entry)."""
    f = algebra.field
    acts = []
    for word, src, tgt in algebra.path_words:
        if not word:
            acts.append(f.asmatrix([[1, 0], [0, 0]] if src == "1" else [[0, 0], [0, 1]]))
        else:
            acts.append(f.asmatrix([[0, 0], [entry, 0]]))
    x = alg.Module(algebra, 2, acts)
    x.validate()
    return x


@pytest.mark.parametrize("field", [F3, QQ, BIG], ids=["F3", "QQ", "bigprime"])
def test_tensor_memo_keys_on_content(field):
    a = alg.path_algebra(alg.linear_quiver(2), [], field, name="kA2")
    reg = alg.regular_bimodule(a)
    # over Q a non-integral entry, so that the two modules hold distinct
    # objects: small ints are shared by the interpreter
    entry = Fraction(1, 2) if field.kind == "rational" else 1
    x1, x2 = _arrow_module(a, entry), _arrow_module(a, entry)
    assert x1 is not x2 and x1.action[2] is not x2.action[2]
    if field.kind == "rational":
        assert x1.action[2][1, 0] is not x2.action[2][1, 0]
    t1 = alg.tensor_over(reg, x1)
    assert alg.tensor_over(reg, x2) is t1
    # the shared entry is what a fresh computation gives
    fresh = alg._tensor_presentation(reg, x2)
    assert field.equal(fresh.surjection, t1.surjection)
    assert field.equal(fresh.section, t1.section)
    assert all(field.equal(p, q) for p, q in zip(fresh.module.action, t1.module.action))
    # different content never shares an entry, even at equal dimension
    t0 = alg.tensor_over(reg, _arrow_module(a, 0))
    t2 = alg.tensor_over(reg, _arrow_module(a, 2))
    assert len({id(t0), id(t1), id(t2)}) == 3
    assert len(reg._tensors) == 3
    assert not field.equal(t0.module.action[2], t1.module.action[2])
    assert alg.tensor_over(reg, alg.simples(a)[0]) is not t1


@pytest.mark.parametrize("field", [F3, QQ, BIG], ids=["F3", "QQ", "bigprime"])
def test_tensor_memo_entries_are_read_only(field):
    a = alg.path_algebra(alg.linear_quiver(2), [], field, name="kA2")
    t = alg.tensor_over(alg.regular_bimodule(a), _arrow_module(a, 1))
    for arr in (t.surjection, t.section, t.module.action[0]):
        with pytest.raises(ValueError):
            arr[0, 0] = field.one


def test_tensor_memo_under_thread_contention():
    """Threads filling one memo concurrently all get an entry equal to a
    fresh computation, and each content ends with exactly one entry."""
    import sys
    import threading

    a = alg.path_algebra(alg.linear_quiver(2), [], F3, name="kA2")
    reg = alg.regular_bimodule(a)
    entries = [0, 1, 2] * 4
    got = [None] * len(entries)
    start = threading.Barrier(len(entries))

    def work(i):
        start.wait(timeout=10)
        got[i] = alg.tensor_over(reg, _arrow_module(a, entries[i]))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(entries))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(reg._tensors) == 3
    for entry, t in zip(entries, got):
        assert t is reg._tensors[_arrow_module(a, entry).content_key()]
        fresh = alg._tensor_presentation(reg, _arrow_module(a, entry))
        assert F3.equal(fresh.surjection, t.surjection)
        assert all(F3.equal(p, q) for p, q in zip(fresh.module.action, t.module.action))


@pytest.mark.parametrize("field", [F3, QQ, BIG], ids=["F3", "QQ", "bigprime"])
def test_hom_and_cover_memos_key_on_content(field):
    a = alg.path_algebra(alg.linear_quiver(2), [], field, name="kA2")
    reg = alg.regular_bimodule(a)
    x1, x2 = _arrow_module(a, 1), _arrow_module(a, 1)
    h1 = alg.hom_module(reg, x1)
    assert alg.hom_module(reg, x2) is h1
    (p1, e1), (p2, e2) = alg.projective_cover(x1), alg.projective_cover(x2)
    assert p2 is p1 and e1.source is p1 and e2.source is p1
    # the epi targets the caller's module, not the one that filled the entry
    assert e1.target is x1 and e2.target is x2
    e2.validate()
    # the shared entries are what a fresh computation gives
    fresh = alg._hom_presentation(reg, x2)
    assert field.equal(fresh.basis, h1.basis) and fresh.pivots == h1.pivots
    assert field.equal(fresh.module.action, h1.module.action)
    p0, m0, v0 = alg._cover(x2)
    assert field.equal(p0.action, p1.action) and field.equal(m0, e2.matrix)
    assert v0 == alg.cover_vertices(x1) == alg.cover_vertices(x2)
    # different content never shares an entry, even at equal dimension; the
    # cover's P is the shared projective_sum of its vertices, so the entries,
    # not the P objects, are what differ
    others = [_arrow_module(a, 0), _arrow_module(a, 2)]
    homs = [h1] + [alg.hom_module(reg, x) for x in others]
    assert len(set(map(id, homs))) == 3
    assert sum(isinstance(k, tuple) and k[0] == "hom" for k in reg._cache) == 3
    mods = [x1, *others]
    covers = [alg.projective_cover(x) for x in mods]
    entries = {k[1]: v for k, v in a._cache.items() if isinstance(k, tuple) and k[0] == "cover"}
    assert sorted(entries, key=repr) == sorted((x.content_key() for x in mods), key=repr)
    for x, (p, epi) in zip(mods, covers):
        p0, m0, v0 = entries[x.content_key()]
        assert p is p0 is alg.projective_sum(a, v0) and field.equal(epi.matrix, m0)
        assert epi.target is x
    assert not field.equal(entries[x1.content_key()][1], entries[others[1].content_key()][1])


@pytest.mark.parametrize("field", [F3, QQ, BIG], ids=["F3", "QQ", "bigprime"])
def test_hom_and_cover_memo_entries_are_read_only(field):
    a = alg.path_algebra(alg.linear_quiver(2), [], field, name="kA2")
    x = _arrow_module(a, 1)
    h = alg.hom_module(alg.regular_bimodule(a), x)
    p, epi = alg.projective_cover(x)
    assert isinstance(h.pivots, tuple) and not hasattr(h, "x") and not hasattr(h, "n")
    for arr in (h.basis[0], h.module.action[0], p.action[0], epi.matrix,
                alg.projective_cover(x)[1].matrix):
        with pytest.raises(ValueError):
            arr[0, 0] = field.one


def test_a_cached_none_is_not_rebuilt(a2_f3, monkeypatch):
    f = a2_f3.field
    x = _arrow_module(a2_f3, 1)
    g = f.asmatrix([[1, 1], [0, 1]])
    gi = linalg.invert(f, g)
    # e_1 acts as a non-diagonal idempotent, so the module has no classes
    y = alg.Module(a2_f3, 2, [f.matmul(g, f.matmul(m, gi)) for m in x.action])
    y.validate()
    builds = []
    build = alg.Module._build_vertex_classes
    monkeypatch.setattr(alg.Module, "_build_vertex_classes",
                        lambda self: builds.append(self) or build(self))
    assert y.vertex_classes() is None and y.vertex_classes() is None
    assert builds == [y]
    assert alg.memo({"k": None}, "k", lambda: builds.append("rebuilt")) is None
    assert builds == [y]


def _reference_vertex_classes(x):
    """Classes from the images of the whole idempotent system, each checked
    against the 0/1 diagonal matrix it must be."""
    system = x.algebra.idempotent_system()
    if system is None:
        return None
    f = x.field
    images = [x.act_vec(vec) for vec in system]
    classes = []
    for c in range(x.dim):
        hits = [v for v, im in enumerate(images) if im[c, c] == f.one]
        if len(hits) != 1:
            return None
        classes.append(hits[0])
    for v, im in enumerate(images):
        want = f.zeros(x.dim, x.dim)
        for c in range(x.dim):
            want[c, c] = f.one if classes[c] == v else f.zero
        if not f.equal(im, want):
            return None
    return tuple(classes)


@pytest.mark.parametrize("field", [F3, QQ, BIG], ids=["F3", "QQ", "bigprime"])
def test_vertex_classes_match_the_reference(field):
    """A system of basis elements and a system given by other vectors both
    give the reference classes."""
    q = alg.cyclic_quiver(3)
    nak = alg.path_algebra(q, alg.nakayama_relations(q, 2), field)
    whole = alg.path_algebra(q, alg.nakayama_relations(q, 2), field)
    whole.set_idempotent_system([whole.unit])
    seen = set()
    for a in (nak, whole):
        projs = alg.indecomposable_projectives(a)
        x = alg.direct_sum([projs[0], alg.simples(a)[1], projs[2]])[0]
        g = field.asmatrix([[1 if c >= r else 0 for c in range(x.dim)] for r in range(x.dim)])
        gi = linalg.invert(field, g)
        conj = alg.Module(a, x.dim, [field.matmul(g, field.matmul(m, gi)) for m in x.action])
        for m in [*projs, *alg.indecomposable_injectives(a), x, conj, alg.zero_module(a)]:
            got = alg.Module(a, m.dim, m.action)._build_vertex_classes()
            assert got == _reference_vertex_classes(m)
            seen.add(got is None)
        # a direct sum has classes exactly when every summand has
        for parts in ([x, projs[1]], [projs[2], conj], [alg.zero_module(a), x]):
            s = alg.direct_sum(parts)[0]
            assert s.vertex_classes() == _reference_vertex_classes(s)
    assert seen == {True, False}
    assert alg.Module(whole, x.dim, x.action).vertex_classes() == (0,) * x.dim


@pytest.mark.parametrize("field", [F3, QQ, TOP], ids=["F3", "QQ", "largest"])
def test_vertex_classes_agree_on_both_paths(field, monkeypatch):
    """A system of basis elements has its images read off the action stack,
    with no product; forcing the product, as any other system takes, gives
    the same classes.  Systems: the vertices, the vertices with e_1 + e_2
    as one idempotent, and the unit alone."""
    q = alg.cyclic_quiver(3)
    seen = set()
    for system in ("vertices", "e_1 + e_2", "unit"):
        a = alg.path_algebra(q, alg.nakayama_relations(q, 2), field)
        e = [field.eye(a.dim)[a.vertex_idempotents[v]] for v in q.vertices]
        if system == "e_1 + e_2":
            a.set_idempotent_system([field.normalize(e[0] + e[1]), e[2]])
        elif system == "unit":
            a.set_idempotent_system([a.unit])
        projs = alg.indecomposable_projectives(a)
        x = alg.direct_sum([projs[0], alg.simples(a)[1], projs[2]])[0]
        g = field.asmatrix([[1 if c >= r else 0 for c in range(x.dim)] for r in range(x.dim)])
        gi = linalg.invert(field, g)
        conj = alg.Module(a, x.dim, [field.matmul(g, field.matmul(m, gi)) for m in x.action])
        for m in [*projs, *alg.indecomposable_injectives(a), x, conj, alg.zero_module(a)]:
            with monkeypatch.context() as patch:
                if system == "vertices":  # the images are read, not multiplied
                    patch.setattr(linalg, "combine", None)
                read = alg.Module(a, m.dim, m.action)._build_vertex_classes()
            with monkeypatch.context() as patch:
                patch.setattr(alg, "enumerate_idempotent_basis", lambda algebra: [])
                combined = alg.Module(a, m.dim, m.action)._build_vertex_classes()
            assert read == combined
            seen.add((system, read is None))
    assert seen == {(s, none) for s in ("vertices", "e_1 + e_2") for none in (True, False)} | {
        ("unit", False)}


@pytest.mark.parametrize("field", [F3, QQ, BIG], ids=["F3", "QQ", "bigprime"])
def test_vertex_structure_memos_key_on_content(field, monkeypatch):
    """Modules with equal content share one vertex_classes entry and one
    simple_multiplicities entry on the algebra; a cached None is a hit."""
    a = alg.path_algebra(alg.linear_quiver(2), [], field, name="kA2")
    classes, mults = [], []
    build_classes = alg.Module._build_vertex_classes
    build_mults = alg._simple_multiplicities
    monkeypatch.setattr(alg.Module, "_build_vertex_classes",
                        lambda self: classes.append(self) or build_classes(self))
    monkeypatch.setattr(alg, "_simple_multiplicities",
                        lambda x: mults.append(x) or build_mults(x))
    x1, x2 = _arrow_module(a, 1), _arrow_module(a, 1)
    assert x1 is not x2
    assert x1.vertex_classes() == x2.vertex_classes() == (0, 1)
    assert alg.simple_multiplicities(x1) == alg.simple_multiplicities(x2)
    assert classes == [x1] and mults == [x1]
    # different content never shares an entry
    x0 = _arrow_module(a, 0)
    assert x0.vertex_classes() == (0, 1)
    assert alg.simple_multiplicities(x0) != alg.simple_multiplicities(x1)
    assert classes == [x1, x0] and mults == [x1, x0]
    # a cached None is a hit, also for a second module with that content
    g = field.asmatrix([[1, 1], [0, 1]])
    gi = linalg.invert(field, g)
    y1, y2 = ([field.matmul(g, field.matmul(m, gi)) for m in x1.action] for _ in range(2))
    y1, y2 = alg.Module(a, 2, y1), alg.Module(a, 2, y2)
    assert y1.vertex_classes() is None and y2.vertex_classes() is None
    assert classes == [x1, x0, y1]
    assert sum(isinstance(k, tuple) and k[0] == "classes" for k in a._cache) == 3
    assert sum(isinstance(k, tuple) and k[0] == "simple_multiplicities"
               for k in a._cache) == 2


# -- the isomorphism search ----------------------------------------------------


def _sequential_combination(field, basis, dim):
    """The exhaustive search as a plain loop, kept as the reference: each
    basis matrix, then every coefficient vector in counter order (digit i is
    the coefficient of basis[i]), one rank computation per candidate."""
    h = len(basis)
    if h == 0:
        return None, True
    for mat in basis:
        if linalg.is_invertible(field, mat):
            return mat, True
    coeffs = [0] * h
    while True:
        i = 0
        while i < h and coeffs[i] == field.p - 1:
            coeffs[i] = 0
            i += 1
        if i == h:
            return None, True
        coeffs[i] += 1
        cand = field.zeros(dim, dim)
        for c, mat in zip(coeffs, basis):
            if c:
                cand = cand + c * mat
        cand = field.normalize(cand)
        if linalg.is_invertible(field, cand):
            return cand, True


@st.composite
def _hom_bases(draw, max_dim=6, max_candidates=2000):
    """(field, basis, dim): h low-rank d x d matrices over a small F_p, with
    p^h kept small enough for the reference loop.  Some bases share a zero
    column, so no combination of them is invertible."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    field = FieldSpec("prime", p)
    d = draw(st.integers(1, max_dim))
    h_max = 1
    while p ** (h_max + 1) <= max_candidates:
        h_max += 1
    h = draw(st.integers(0, h_max))
    assert p ** h <= alg.ISO_EXHAUSTIVE_LIMIT
    entry = st.integers(0, p - 1)
    basis = []
    for _ in range(h):
        r = draw(st.integers(0, d))
        u = np.array(draw(st.lists(entry, min_size=d * r, max_size=d * r)),
                     dtype=np.int64).reshape(d, r)
        v = np.array(draw(st.lists(entry, min_size=r * d, max_size=r * d)),
                     dtype=np.int64).reshape(r, d)
        basis.append(field.matmul(u, v) if r else field.zeros(d, d))
    if draw(st.booleans()):
        col = draw(st.integers(0, d - 1))
        for mat in basis:
            mat[:, col] = 0
    return field, basis, d


@settings(max_examples=150, deadline=None)
@given(_hom_bases())
def test_batched_search_matches_sequential_witness(case):
    field, basis, d = case
    want, want_complete = _sequential_combination(field, basis, d)
    got, complete = alg._invertible_combination(field, basis)
    assert complete and want_complete
    if want is None:
        assert got is None
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_batched_search_exhausts_at_the_limit():
    # 2^16 <= ISO_EXHAUSTIVE_LIMIT combinations, none invertible: a shared
    # zero column
    rng = np.random.default_rng(5)
    basis = [F2.normalize(rng.integers(0, 2, size=(4, 4))) for _ in range(16)]
    for mat in basis:
        mat[:, 2] = 0
    assert 2 ** 16 <= alg.ISO_EXHAUSTIVE_LIMIT
    assert alg._invertible_combination(F2, basis) == (None, True)
    # one invertible combination, reached only after most of the counter:
    # the matrix units e_00, e_11, e_22, e_33 sit in the last four slots
    units = [F2.zeros(4, 4) for _ in range(4)]
    for i, u in enumerate(units):
        u[i, i] = 1
    basis = [F2.zeros(4, 4) for _ in range(12)] + units
    got, complete = alg._invertible_combination(F2, basis)
    assert complete and got.tobytes() == F2.eye(4).tobytes()


def test_lambda_isomorphism_witness_is_a_valid_isomorphism(a2_f3):
    """From L (+) L to a conjugate of it no hom basis element is invertible,
    so the witness comes from a combination; split from its block-diagonal
    form it is still a morphism of quadruples with invertible components.
    The conjugate moves X by g and carries f and g along, as in
    tests/test_morita.py, so its content differs and the search runs."""
    from morita_lab import morita as mor

    data = mor.MoritaData(a2_f3, a2_f3, _corner_m(a2_f3), _corner_m(a2_f3), name="ie")
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    l = mor.functor_T(data, "A", p1)
    ll, _, _ = mor.lambda_direct_sum([l, l])
    g = _random_invertible_selfmap(ll.X, random.Random(25))
    xc = _conjugate(ll.X, g)
    tx = mor.tensor_over(data.M, xc)
    one_gi = mor._tensor_map(F3, tx, ll.tX, linalg.invert(F3, g))
    llc = mor.LambdaModule(data, xc, ll.Y, F3.matmul(ll.f, one_gi), F3.matmul(g, ll.g), tx=tx)
    llc.validate()
    assert llc.content_key() != ll.content_key()
    assert not any(linalg.is_invertible(F3, phi.a) and linalg.is_invertible(F3, phi.b)
                   for phi in mor.lambda_hom_space(ll, llc))
    iso = mor.lambda_isomorphism(ll, llc)
    assert iso.status == "isomorphic"
    phi = iso.witness
    assert phi.source is ll and phi.target is llc
    phi.validate()
    assert linalg.is_invertible(F3, phi.a) and linalg.is_invertible(F3, phi.b)


# -- the intertwiner system ------------------------------------------------------


def _kron_rows(field, a_g, b_g):
    """The dense intertwiner rows of H A_g = B_g H over all of vec_rm(H),
    kept as the reference: kron(I, A_g^T) - kron(B_g, I)."""
    dx, dy = a_g.shape[0], b_g.shape[0]
    return field.normalize(np.kron(field.eye(dy), a_g.T) - np.kron(b_g, field.eye(dx)))


def _bytes(m):
    """dtype, shape and exact entries (with their Python types)."""
    return m.dtype.str, m.shape, repr(m.tolist())


def _rand_matrix(field, rng, rows, cols):
    pick = (lambda: rng.randrange(field.p)) if field.kind == "prime" else (
        lambda: rng.randrange(-3, 4))
    return field.asmatrix([[pick() for _ in range(cols)] for _ in range(rows)]) \
        if rows else field.zeros(0, cols)


@pytest.mark.parametrize("field", [F3, BIG, QQ], ids=["F3", "bigprime", "QQ"])
def test_intertwiner_rows_match_sliced_kron_rows(field):
    rng = random.Random(17)
    for _ in range(60):
        dx, dy = rng.randrange(0, 5), rng.randrange(0, 5)
        pairs = [(_rand_matrix(field, rng, dx, dx), _rand_matrix(field, rng, dy, dy))
                 for _ in range(rng.randrange(0, 3))]
        support = np.array(sorted(rng.sample(range(dx * dy), rng.randrange(dx * dy + 1))),
                           dtype=np.int64)
        got = alg.intertwiner_constraints(field, pairs, dx, dy, support)
        assert len(got) == len(pairs)
        for rows, (a_g, b_g) in zip(got, pairs):
            assert _bytes(rows) == _bytes(_kron_rows(field, a_g, b_g)[:, support])


def _hom_solver_problems(field, seed):
    """Module pairs over kA2 and Nak(3,2), with vertex classes, for
    hom_space, and extend or lift problems for homology: retractions of
    random split sequences (into direct sums) and of non-split ones (cover
    presentations), a lift along a projective cover, and a section of the
    non-split cover P_1 -> S_1, which has no solution."""
    from morita_lab import homology as hml
    from morita_lab import lab

    rng = random.Random(seed)
    pairs, problems = [], []
    for algebra in (lab._two_vertex_algebra(field), lab._nakayama(field, 3, 2)):
        sampler = lab.Sampler(seed, dim_cap=6, rank_cap=3)
        mods = [sampler.plain(algebra) for _ in range(4)]
        mods += alg.simples(algebra) + alg.indecomposable_injectives(algebra)
        for x in mods:
            for y in rng.sample(mods, 3):
                pairs.append((x, y))
                _, injs, _ = alg.direct_sum([x, y])
                problems.append((hml._extend_along, injs[0], alg.identity_morphism(x)))
            pres = hml.cover_presentation(x)
            problems.append((hml._extend_along, pres.incl, alg.identity_morphism(pres.left)))
        s1 = alg.simples(algebra)[0]
        cover = alg.projective_cover(s1)[1]
        problems.append((hml._lift_along, cover, alg.identity_morphism(s1)))
        x = mods[0]
        p, epi = alg.projective_cover(x)
        q = alg.free_module(algebra, 1)
        phi = alg.ModuleMorphism(q, x, alg.hom_space(q, x)[-1])
        problems.append((hml._lift_along, epi, phi))
    return pairs, problems


@pytest.mark.parametrize("field", [F3, BIG, QQ], ids=["F3", "bigprime", "QQ"])
def test_one_class_path_gives_the_same_bytes(field, monkeypatch):
    """With every module counted as one class, the support is all of
    vec_rm(H) and no generator is dropped; the canonical bases and the
    morphisms that extend and lift solve for must not change."""
    pairs, problems = _hom_solver_problems(field, 7)
    assert all(x.vertex_classes() is not None and y.vertex_classes() is not None
               for x, y in pairs)

    def run():
        homs = [[_bytes(m) for m in alg.hom_space(x, y)] for x, y in pairs]
        sols = [solve(along, goal) for solve, along, goal in problems]
        return homs, [None if s is None else _bytes(s.matrix) for s in sols]

    classed = run()
    monkeypatch.setattr(alg.Module, "vertex_classes", lambda self: None)
    assert run() == classed
    homs, sols = classed
    assert max(map(len, homs)) >= 3
    assert sols[-2] is None and sols[-1] is not None  # the section, the lift
    retractions = sols[:-2]
    assert None in retractions and retractions.count(None) < len(retractions) // 2


def test_fixed_structure_is_built_once(a2_f3):
    """Projectives, injectives and the one-sided modules of a bimodule are
    built once per owner; the algebra hands out a fresh list each call."""
    for build in (alg.indecomposable_projectives, alg.indecomposable_injectives):
        first = build(a2_f3)
        first.pop()
        again = build(a2_f3)
        assert len(again) == 2 and again[0] is first[0] and again is not build(a2_f3)
    m = alg.regular_bimodule(a2_f3)
    assert m.as_left_module() is m.as_left_module()
    assert m.right_as_left_module() is m.right_as_left_module()
    assert m.right_as_left_module().algebra is a2_f3.opposite()


def test_generator_indices_are_stored_once(a2_f3):
    from morita_lab import morita as mor

    q = alg.cyclic_quiver(3)
    a = alg.path_algebra(q, alg.nakayama_relations(q, 3), F3)
    z = alg.zero_bimodule(a, a)
    lam = mor.materialize(mor.MoritaData(a, a, z, z))
    gens = lam.generator_indices()
    assert gens == a.generator_indices() + [a.dim + i for i in a.generator_indices()]
    assert len(gens) < lam.dim
    assert "generator_indices" not in vars(lam) and "lambda_generators" not in lam._cache
    gens.pop()
    assert len(lam.generator_indices()) == len(gens) + 1
    assert lam.opposite().generator_indices() == lam.generator_indices()
    assert a2_f3.opposite().generator_indices() == a2_f3.generator_indices() == [0, 1, 2]


def _multiplicity_cases(algebra, rng):
    """Sampled modules with their cover kernels and duals, plus conjugated
    copies on which the vertex idempotents are not diagonal."""
    from morita_lab import lab

    f = algebra.field
    sampler = lab.Sampler(rng, 6, 3)
    mods = alg.simples(algebra) + alg.indecomposable_injectives(algebra)
    for _ in range(3):
        x = sampler.plain(algebra)
        mods += [x, alg.kernel(alg.projective_cover(x)[1])[0]]
    out = []
    for x in mods:
        out += [x, alg.dual_module(x)]
        if x.dim:
            while True:
                g = f.asmatrix([[rng.randrange(-3, 4) for _ in range(x.dim)]
                                for _ in range(x.dim)])
                if linalg.is_invertible(f, g):
                    break
            out.append(_conjugate(x, g))
    return out


@pytest.mark.parametrize("field", [F3, FieldSpec("prime", 33554467), QQ],
                         ids=["3", "33554467", "Q"])
def test_simple_multiplicities_match_hom_dim(field):
    """dim Hom(x, S_v) and dim Hom(S_v, x) from top and socle ranks equal the
    hom solver's counts, also on modules without vertex classes."""
    from morita_lab import lab

    rng = random.Random(5)
    ie = lab.catalog("ie", field).data
    ex = lab.catalog("examctp4", field, n=3, h=2, i=1, j=3).data
    seen_unclassed = 0
    for algebra in (ie.A, ie.B, ex.A, ex.B):
        for x in _multiplicity_cases(algebra, rng):
            seen_unclassed += x.vertex_classes() is None
            want = tuple((alg.hom_dim(x, s), alg.hom_dim(s, x))
                         for s in alg.simples(x.algebra))
            assert alg.simple_multiplicities(x) == want
    assert seen_unclassed > 10


# -- Hom between sums of indecomposable projectives from the per-algebra table --


def _table_algebras(field):
    q = alg.cyclic_quiver(3)
    return [alg.path_algebra(alg.linear_quiver(2), [], field, name="kA2"),
            alg.path_algebra(q, alg.nakayama_relations(q, 2), field, name="Nak(3,2)"),
            alg.path_algebra(q, alg.nakayama_relations(q, 3), field, name="Nak(3,3)")]


def _exact(mats):
    """dtype, shape and exact entries (with their Python types) of each
    matrix."""
    return [(m.dtype.str, m.shape, repr(m.tolist())) for m in mats]


@pytest.mark.parametrize("field", [F3, BIG, QQ], ids=["F3", "bigprime", "QQ"])
def test_projective_hom_table_gives_the_hom_space_bytes(field):
    """The basis of Hom(P_src, P_tgt) assembled from the table is hom_space
    of the two built sums byte for byte, entry types included: single
    summands, repeated summands and mixed orders, and every read-only."""
    rng = random.Random(3)
    for a in _table_algebras(field):
        projs = alg.indecomposable_projectives(a)
        n = len(projs)
        cases = [([u], [v]) for u in range(n) for v in range(n)]
        cases += [([0, 0], [0]), ([1], [1, 1, 1]), ([n - 1, 0, n - 1], [0, n - 1, 0, 1])]
        cases += [([rng.randrange(n) for _ in range(rng.randint(1, 4))],
                   [rng.randrange(n) for _ in range(rng.randint(1, 4))]) for _ in range(6)]
        for src, tgt in cases:
            got = alg.projective_hom_space(a, src, tgt)
            want = alg.hom_space(alg.direct_sum([projs[u] for u in src])[0],
                                 alg.direct_sum([projs[v] for v in tgt])[0])
            assert _exact(got) == _exact(want), (a.name, src, tgt)
            assert all(not m.flags.writeable for m in got)


@pytest.mark.parametrize("field", [F3, BIG, QQ], ids=["F3", "bigprime", "QQ"])
def test_sampler_draws_on_the_table_are_those_of_hom_space(field, monkeypatch):
    """Two seeded Samplers, one on the table and one on hom_space of the
    built sums, draw the same modules; the table builds each entry
    (algebra, u, v) once, across samplers."""
    from morita_lab import lab

    def draws(algebra):
        sampler = lab.Sampler(17, dim_cap=8, rank_cap=3)
        return [(x.dim, x.content_key()) for x in (sampler.plain(algebra) for _ in range(12))]

    for a, b in zip(_table_algebras(field), _table_algebras(field)):
        projs = alg.indecomposable_projectives(a)
        built = []
        hom_space = alg.hom_space
        monkeypatch.setattr(alg, "hom_space", lambda x, y: built.append(
            (projs.index(x), projs.index(y))) or hom_space(x, y))
        on_table = draws(a) + draws(a)
        monkeypatch.setattr(alg, "hom_space", hom_space)
        assert built and len(built) == len(set(built))
        assert sorted(built) == sorted(k[1:] for k in a._cache
                                       if isinstance(k, tuple) and k[0] == "projective hom")

        def solved(algebra, src, tgt):
            ps = alg.indecomposable_projectives(algebra)
            return alg.hom_space(alg.direct_sum([ps[u] for u in src])[0],
                                 alg.direct_sum([ps[v] for v in tgt])[0])

        monkeypatch.setattr(alg, "projective_hom_space", solved)
        on_hom_space = draws(b)
        monkeypatch.undo()
        assert on_table == on_hom_space + on_hom_space
        assert any(d for d, _ in on_table)


def test_idempotent_basis_is_memoized_until_the_system_is_set_again():
    a = alg.path_algebra(alg.linear_quiver(2), [], F3, name="kA2")
    first = alg.enumerate_idempotent_basis(a)
    second = alg.enumerate_idempotent_basis(a)
    assert first == second and first is not second
    assert [i for i, _ in first] == [a.vertex_idempotents[v] for v in a.quiver.vertices]
    first.clear()
    assert len(alg.enumerate_idempotent_basis(a)) == 2
    a.set_idempotent_system([a.unit])
    assert alg.enumerate_idempotent_basis(a) == []
    e = [a.field.eye(a.dim)[a.vertex_idempotents[v]] for v in a.quiver.vertices]
    a.set_idempotent_system(e[:1])
    assert [i for i, _ in alg.enumerate_idempotent_basis(a)] == [a.vertex_idempotents["1"]]
