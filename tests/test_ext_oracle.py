"""An independent count of dim Ext^1, from derivations, against ext_dim.

Ext^1_A(X, Y) is H^1(A, Hom_k(X, Y)) (Cartan & Eilenberg, Homological
Algebra, ch. IX, section 4).  A derivation D: A -> Hom_k(X, Y) is a list of
matrices D_k = D(b_k), one per basis element b_k, with

    sum_k c_ij^k D_k = Y(b_i) D_j + D_i X(b_j)

for every generator b_i and every basis element b_j, and D(1) = 0; by
induction on words these rows give the rule for every b_i.  The inner
derivations a -> Y(a) phi - phi X(a) are the image of Hom_k(X, Y), and
Hom_A(X, Y) is the kernel of phi -> (Y(b_k) phi - phi X(b_k))_k, so

    dim Ext^1(X, Y) = dim Der - dim X dim Y + dim Hom_A(X, Y)
                    = n dim X dim Y - rank(derivation rows) - rank(inner rows)

over an algebra of dimension n.  The oracle reads only the structure
constants, the unit, the generator indices and the action stacks, and ranks
with its own elimination: mod p in numpy, over Q with sympy's DomainMatrix.
Past those reads it calls no morita_lab.linalg, no hom solver, no
presentation and no content memo, so it shares no code with ext_dim.  A
quadruple is checked as flatten(l) over materialize(data).
"""

import math

import numpy as np
import pytest

from morita_lab import algebras as alg
from morita_lab import classes as cls
from morita_lab import homology as hml
from morita_lab import lab, linalg
from morita_lab import morita as mor
from morita_lab.fields import F3, QQ, FieldSpec

F_LARGEST = FieldSpec("prime", (1 << 31) - 1)
EXAMCTP4 = dict(n=3, h=2, i=1, j=3)


def _rank_mod_p(m, p):
    """Rank of an int64 matrix with entries in 0..p-1 by Gaussian elimination
    mod p.  p < 2^31, so a product of two entries is below 2^62."""
    m = m.copy()
    rank = 0
    for col in range(m.shape[1]):
        live = rank + np.flatnonzero(m[rank:, col])
        if not live.size:
            continue
        m[[rank, live[0]]] = m[[live[0], rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
        # the row swapped down had a zero in col, so live[1:] are the rest
        below = live[1:]
        m[below] = (m[below] - np.outer(m[below, col], m[rank])) % p
        rank += 1
    return rank


def _rank(field, rows):
    """Rank of an integer matrix over F_p or over Q."""
    rows = rows[rows.any(axis=1)]
    if field.kind == "prime":
        return _rank_mod_p(rows % field.p, field.p)
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    entries = {}
    for r, c in zip(*np.nonzero(rows)):
        entries.setdefault(int(r), {})[int(c)] = sympy.QQ(int(rows[r, c]))
    return DomainMatrix(entries, rows.shape, sympy.QQ).rank()


def _integer_arrays(field, *arrays):
    """The arrays as int64 integers: as they are over F_p, and over Q times
    their common denominator.  Every term of an oracle row has exactly one
    factor from these arrays, so the scaling scales whole rows."""
    if field.kind == "prime":
        return [np.asarray(a, dtype=np.int64) for a in arrays]
    scale = math.lcm(*(v.denominator for a in arrays for v in a.flat))
    out = [np.array([v.numerator * (scale // v.denominator) for v in a.flat],
                    dtype=object).reshape(a.shape) for a in arrays]
    assert all(abs(v) < 1 << 60 for a in out for v in a.flat)
    return [a.astype(np.int64) for a in out]


def oracle_ext1(x, y, generator_rows_only=True):
    """dim Ext^1(x, y) of plain modules from derivations (module docstring)."""
    algebra = x.algebra
    n, dx, dy = algebra.dim, x.dim, y.dim
    m = dx * dy
    if m == 0:
        return 0
    c, xs, ys, unit = _integer_arrays(x.field, algebra.structure_constants(), x.action,
                                      y.action, algebra.unit)
    ex, ey, em = (np.eye(d, dtype=np.int64) for d in (dx, dy, m))
    # D_k[a, b] is unknown k*m + a*dx + b, so vec(Y_i D) = left[i] vec(D)
    # with left[i] = Y_i (x) 1, and vec(D X_j) = right[j] vec(D) with
    # right[j] = 1 (x) X_j^T
    left = np.einsum("iac,bd->iabcd", ys, ex).reshape(n, m, m)
    right = np.einsum("ac,jdb->jabcd", ey, xs).reshape(n, m, m)
    gens = algebra.generator_indices() if generator_rows_only else range(n)
    # der[g, j, :, k] is the block of D_k in the rows of (b_i, b_j), b_i = gens[g]
    der = np.zeros((len(gens), n, m, n, m), np.int64)
    every = np.arange(n)
    for g, i in enumerate(gens):
        der[g] = c[i][:, None, :, None] * em[None, :, None, :]
        der[g, every, :, every] -= left[i]
        der[g, :, :, i] -= right
    unit_rows = (unit[None, :, None] * em[:, None, :]).reshape(m, n * m)
    rows = np.concatenate([der.reshape(-1, n * m), unit_rows])
    inner = (left - right).reshape(n * m, m)
    return n * m - _rank(x.field, rows) - _rank(x.field, inner)


def _dual_numbers(field):
    """k[x]/(x^2) with basis (1, x), generated by x alone, and its simple
    module.  Here the generator rows leave D(1) free, so the count needs the
    D(1) = 0 rows."""
    one, x = field.eye(2)
    a = alg.PresentedAlgebra(field, ("1", "x"), {(0, 0): one, (0, 1): x, (1, 0): x}, one,
                             name="k[x]/(x^2)")
    a.set_generator_indices([1])
    return a, alg.Module(a, 1, field.asmatrix([[1], [0]]).reshape(2, 1, 1))


def _cases(field):
    """(name, pairs, against simples): pairs (x, y) compared in degree 1,
    and pairs (x, s) with s simple, compared along the syzygy of x.

    Plain modules over kA2 (the A side of ie) and Nak(3,2) (the A side of
    examctp4): the simples, the indecomposable projectives and two draws;
    the simple and the regular module of the dual numbers; and quadruples on
    ie, examctp4(3,2,1,3) and irem1 (whose tensor products do not vanish):
    three draws each against the structural simples and the first draw; and
    on the same three, the pairs of _adjunction_pairs."""
    sampler = lab.Sampler(23, 4, 2)
    examctp4 = lab.catalog("examctp4", field, **EXAMCTP4).data
    ie = lab.catalog("ie", field).data
    for a in (ie.A, examctp4.A):
        simples = alg.simples(a)
        mods = [*simples, *alg.indecomposable_projectives(a), sampler.plain(a), sampler.plain(a)]
        yield a.name, [(x, y) for x in mods for y in mods], [(x, s) for x in mods for s in simples]
    dual, simple = _dual_numbers(field)
    mods = [simple, alg.free_module(dual)]
    yield dual.name, [(x, y) for x in mods for y in mods], [(simple, simple)]
    irem1 = lab.catalog("irem1", field).data
    for data in (ie, examctp4, irem1):
        quads = [sampler.quadruple(data, mono_bias=(i % 2 == 0)) for i in range(3)]
        simples = mor.lambda_simples(data)
        yield (data.name, [(l, t) for l in quads for t in (*simples, quads[0])],
               [(l, t) for l in quads for t in simples])
    adjunction = lab.Sampler(29, 3, 2)
    for data in (ie, examctp4, irem1):
        yield f"{data.name} adjunction", _adjunction_pairs(data, adjunction), []


def _adjunction_pairs(data, sampler):
    """Pairs for the closed form of Ext^1 (homology module docstring).

    First arguments on projective components: Z_A P and Z_B Q, the nonzero
    kernels of the resolution_pq of T_A P and T_B Q, and a draw on
    projective components, each against the structural simples and a draw.
    Second arguments on injective components: Z_A I and Z_B J, the nonzero
    right terms of the coresolution_ij of H_A I and H_B J, and a draw on
    injective components, each after the same.  T_A P, T_B Q, H_A I, H_B J
    and the coresolution middles are projective or injective quadruples,
    so they meet only the draw.  Over irem1 the tensor products do not
    vanish, so there is no resolution_pq or coresolution_ij, and the other
    pairs go along the presentation."""
    sides = (("A", data.A), ("B", data.B))
    t_images = [mor.functor_T(data, side, p) for side, a in sides
                for p in alg.indecomposable_projectives(a)]
    h_images = cls.h_images_of_injectives(data)
    firsts = [mor.functor_Z(data, side, p) for side, a in sides
              for p in alg.indecomposable_projectives(a)]
    seconds = [mor.functor_Z(data, side, i) for side, a in sides
               for i in alg.indecomposable_injectives(a)]
    if data.tensor_vanishing:
        firsts += [k for k in (hml.resolution_pq(t).left for t in t_images) if k.total_dim]
        cores = [hml.coresolution_ij(h) for h in h_images]
        seconds += [c.right for c in cores if c.right.total_dim]
        h_images += [c.middle for c in cores]
    firsts.append(sampler.quadruple_on(data, sampler.plain_projective(data.A),
                                       sampler.plain_projective(data.B)))
    seconds.append(sampler.quadruple_on(data, sampler.plain_injective(data.A),
                                        sampler.plain_injective(data.B)))
    draw = sampler.quadruple(data, mono_bias=True)
    others = [*mor.lambda_simples(data), draw]
    return ([(x, o) for x in firsts for o in others] + [(o, y) for o in others for y in seconds]
            + [(t, draw) for t in t_images] + [(draw, h) for h in h_images])


def _flat(z):
    return mor.flatten(z) if isinstance(z, mor.LambdaModule) else z


@pytest.mark.parametrize("field", [F3, QQ, F_LARGEST], ids=["F3", "QQ", "F2147483647"])
def test_derivations_count_what_ext_dim_counts(field):
    nonzero = 0
    for name, pairs, against_simples in _cases(field):
        for x, y in pairs:
            want = oracle_ext1(_flat(x), _flat(y))
            assert hml.ext_dim(x, y, 1) == want, name
            nonzero += want > 0
        # the syzygy K of x against a simple s, in degree 1, and x against
        # s in degree 2: Ext^2(x, s) = Ext^1(K, s)
        for x, s in against_simples:
            k = hml.presentation(x).left
            want = oracle_ext1(_flat(k), _flat(s))
            assert hml.ext_dim(k, s, 1) == want == hml.ext_dim(x, s, 2), name
            nonzero += want > 0
    assert nonzero >= 10


def test_generator_rows_count_what_all_rows_count():
    """Over kA3 the path of length 2 is no generator, and over the dual
    numbers the unit is no generator; the generator rows with D(1) = 0 count
    what the rows of every basis element count."""
    k_a3 = alg.path_algebra(alg.linear_quiver(3), [], F3, name="kA3")
    dual, simple = _dual_numbers(F3)
    for mods in ([*alg.simples(k_a3), *alg.indecomposable_projectives(k_a3)],
                 [simple, alg.free_module(dual)]):
        assert len(mods[0].algebra.generator_indices()) < mods[0].algebra.dim
        for x in mods:
            for y in mods:
                want = oracle_ext1(x, y, generator_rows_only=False)
                assert oracle_ext1(x, y) == want == hml.ext_dim(x, y)


def test_the_oracle_shares_no_code_with_ext_dim(monkeypatch, a2_f3):
    """No linalg routine, hom solver or presentation runs in the oracle."""
    s1, s2 = alg.simples(a2_f3)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called into the code it checks")

    for name in dir(linalg):
        if callable(getattr(linalg, name)) and not name.startswith("__"):
            monkeypatch.setattr(linalg, name, refuse)
    for module, name in ((alg, "hom_space"), (alg, "hom_dim"), (hml, "presentation"),
                         (hml, "_count_ext_dim")):
        monkeypatch.setattr(module, name, refuse)
    assert oracle_ext1(s1, s2) == 1 and oracle_ext1(s2, s1) == 0


def test_adjunction_pairs_take_the_closed_form_exactly_when_the_tensors_vanish():
    for data in (lab.catalog("ie", F3).data, lab.catalog("examctp4", F3, **EXAMCTP4).data,
                 lab.catalog("irem1", F3).data):
        routes = {hml._closed_form_applies(x, y)
                  for x, y in _adjunction_pairs(data, lab.Sampler(29, 3, 2))}
        assert routes == {data.tensor_vanishing}, data.name


@pytest.mark.parametrize("field", [F3, QQ, F_LARGEST], ids=["F3", "QQ", "F2147483647"])
def test_ext_is_additive_across_the_two_routes(field):
    """Ext^1(x (+) x', y) = Ext^1(x, y) + Ext^1(x', y) with x on projective
    components, so that (x, y) takes the closed form, and x' and y on
    neither, so that (x', y) and the sum go along the presentation."""
    sampler = lab.Sampler(31, 3, 2)
    for data in (lab.catalog("ie", field).data, lab.catalog("examctp4", field, **EXAMCTP4).data):
        x = sampler.quadruple_on(data, sampler.plain_projective(data.A),
                                 sampler.plain_projective(data.B))
        x_other = next(l for l in iter(lambda: sampler.quadruple(data), None)
                       if not all(map(alg.is_projective_module, (l.X, l.Y))))
        total = mor.lambda_direct_sum([x, x_other])[0]
        ys = [y for y in (*mor.lambda_simples(data), x_other)
              if not all(map(alg.is_injective_module, (y.X, y.Y)))]
        assert ys
        for y in ys:
            assert [hml._closed_form_applies(z, y) for z in (x, x_other, total)] == [
                True, False, False]
            want = [oracle_ext1(_flat(z), _flat(y)) for z in (x, x_other, total)]
            assert [hml.ext_dim(z, y, 1) for z in (x, x_other, total)] == want, data.name
            assert want[2] == want[0] + want[1]
