import random

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
    c, _ = alg.cokernel(alg.zero_morphism(alg.zero_module(a2_f3), p1))
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
        d_free = hml.ext_dim(x, y, 1, presentation_kind="free")
        d_cover = hml.ext_dim(x, y, 1, presentation_kind="cover")
        assert d_free == d_cover


# -- the tensor memo ---------------------------------------------------------

BIG = FieldSpec("prime", 33554467)  # first prime above 2^25: object dtype


def _arrow_module(algebra, entry):
    """The 2-dimensional representation k -> k of 1 -> 2 with arrow = entry.
    Every call builds fresh arrays (and, over Q, fresh Fraction objects)."""
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
    x1, x2 = _arrow_module(a, 1), _arrow_module(a, 1)
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
    p0, m0 = alg._cover(x2)
    assert field.equal(p0.action, p1.action) and field.equal(m0, e2.matrix)
    # different content never shares an entry, even at equal dimension
    others = [_arrow_module(a, 0), _arrow_module(a, 2)]
    homs = [h1] + [alg.hom_module(reg, x) for x in others]
    covers = [p1] + [alg.projective_cover(x)[0] for x in others]
    assert len(set(map(id, homs))) == 3 and len(set(map(id, covers))) == 3
    assert sum(isinstance(k, tuple) and k[0] == "hom" for k in reg._cache) == 3
    assert sum(isinstance(k, tuple) and k[0] == "cover" for k in a._cache) == 3


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
    got, complete = alg._invertible_combination(field, basis, d, random.Random(0))
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
    assert alg._invertible_combination(F2, basis, 4, random.Random(0)) == (None, True)
    # one invertible combination, reached only after most of the counter:
    # the matrix units e_00, e_11, e_22, e_33 sit in the last four slots
    units = [F2.zeros(4, 4) for _ in range(4)]
    for i, u in enumerate(units):
        u[i, i] = 1
    basis = [F2.zeros(4, 4) for _ in range(12)] + units
    got, complete = alg._invertible_combination(F2, basis, 4, random.Random(0))
    assert complete and got.tobytes() == F2.eye(4).tobytes()


def test_lambda_isomorphism_witness_is_a_valid_isomorphism(a2_f3):
    """On L (+) L no hom basis element is invertible, so the witness comes
    from a combination; split from its block-diagonal form it is still a
    morphism of quadruples with invertible components."""
    from morita_lab import morita as mor

    data = mor.MoritaData(a2_f3, a2_f3, _corner_m(a2_f3), _corner_m(a2_f3), name="ie")
    p1 = alg.indecomposable_projectives(a2_f3)[0]
    l = mor.functor_T(data, "A", p1)
    ll, _, _ = mor.lambda_direct_sum([l, l])
    assert not any(linalg.is_invertible(F3, phi.a) and linalg.is_invertible(F3, phi.b)
                   for phi in mor.lambda_hom_space(ll, ll))
    iso = mor.lambda_isomorphism(ll, ll)
    assert iso.status == "isomorphic"
    phi = iso.witness
    assert phi.source is ll and phi.target is ll
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
    """Module pairs over kA2 and Nak(3,2), with vertex classes, and affine
    conditions for solve_hom_equation: some copied from a random
    homomorphism, one lift along a projective cover, and a section of the
    non-split cover P_1 -> S_1, which has no solution."""
    from morita_lab import lab

    rng = random.Random(seed)
    out = []
    for algebra in (lab._two_vertex_algebra(field), lab._nakayama(field, 3, 2)):
        sampler = lab.Sampler(seed, dim_cap=6, rank_cap=3)
        mods = [sampler.plain(algebra) for _ in range(4)]
        mods += alg.simples(algebra) + alg.indecomposable_injectives(algebra)
        for x in mods:
            for y in rng.sample(mods, 3):
                basis = alg.hom_space(x, y)
                h0 = field.zeros(y.dim, x.dim)
                for mat in basis:
                    h0 = h0 + field.scalar(rng.randrange(-2, 3)) * mat
                n = x.dim * y.dim
                picked = sorted(rng.sample(range(n), min(n, 3)))
                coeff = field.zeros(len(picked), n)
                for i, k in enumerate(picked):
                    coeff[i, k] = field.one
                rhs = field.normalize(h0).reshape(-1)[picked]
                out.append((x, y, [(coeff, rhs)]))
        p1 = alg.indecomposable_projectives(algebra)[0]
        s1 = alg.simples(algebra)[0]
        cover = alg.projective_cover(s1)[1]
        out.append((s1, p1, [(linalg.kron(field, cover.matrix, field.eye(1)),
                              field.eye(1).reshape(-1))]))
        x = mods[0]
        p, epi = alg.projective_cover(x)
        q = alg.free_module(algebra, 1)
        phi = alg.hom_space(q, x)[-1]
        out.append((q, p, [(linalg.kron(field, epi.matrix, field.eye(q.dim)),
                            phi.reshape(-1))]))
    return out


@pytest.mark.parametrize("field", [F3, BIG, QQ], ids=["F3", "bigprime", "QQ"])
def test_one_class_path_gives_the_same_bytes(field, monkeypatch):
    """With every module counted as one class, the support is all of
    vec_rm(H) and no generator is dropped; the canonical bases and the
    solutions must not change."""
    problems = _hom_solver_problems(field, 7)
    assert all(x.vertex_classes() is not None and y.vertex_classes() is not None
               for x, y, _ in problems)

    def run():
        homs = [[_bytes(m) for m in alg.hom_space(x, y)] for x, y, _ in problems]
        sols = [alg.solve_hom_equation(x, y, extra) for x, y, extra in problems]
        return homs, [None if s is None else _bytes(s.matrix) for s in sols]

    classed = run()
    monkeypatch.setattr(alg.Module, "vertex_classes", lambda self: None)
    assert run() == classed
    homs, sols = classed
    assert max(map(len, homs)) >= 3
    assert sols[-2] is None and sols[-1] is not None  # the section, the lift


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
