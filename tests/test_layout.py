"""The layout homes against the loop versions they replaced.

The references below are the per-entry loops the package used before the
pure-tensor order moved into TensorModule, before one coordinate reader
replaced the fill loops and before module actions became one stacked array.
Results must match them byte for byte: dtype, shape and the repr of every
entry, over F_3, F_33554467, 2^31 - 1 (the largest admitted prime) and Q
(object dtype, the only field that is not int64), over random shapes that
include zero dimensions, and at the largest prime below 2^25.
"""

import random

import numpy as np
import pytest

from morita_lab import algebras as alg
from morita_lab import linalg
from morita_lab import morita as mor
from morita_lab.fields import F3, QQ, FieldSpec

F_BIG = FieldSpec("prime", 33554467)       # first prime above 2^25
F_BELOW = FieldSpec("prime", 33554393)     # largest prime below 2^25
F_TOP = FieldSpec("prime", (1 << 31) - 1)  # largest admitted prime
FIELDS = (F3, F_BIG, QQ, F_BELOW, F_TOP)


def _same(a, b):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert [repr(v) for v in a.flat] == [repr(v) for v in b.flat]


def _random(field, rng, *shape):
    top = field.p if field.kind == "prime" else 7
    lo = 0 if field.kind == "prime" else -top
    # large primes also get entries near p, to exercise the int64 bound
    pick = (lambda: rng.choice([rng.randrange(lo, top), top - 1 - rng.randrange(3)])
            if field.kind == "prime" else rng.randrange(lo, top))
    out = field.zeros(*shape)
    for idx in np.ndindex(*shape):
        out[idx] = field.scalar(pick())
    return out


def _tensor(field, rng, outer, inner, t):
    """A TensorModule with random presenting matrices: the layout methods
    never use that they present a quotient, nor read its free pure tensors
    kept, which are left as the first t indices."""
    k = alg.ground_field_algebra(field)
    module = alg.Module(k, t, [field.eye(t)])
    return alg.TensorModule(module, field.freeze(_random(field, rng, t, outer * inner)),
                            field.freeze(_random(field, rng, outer * inner, t)), outer, inner,
                            np.arange(t))


# -- the loop references ---------------------------------------------------------


def _ref_pure_values(field, t, fmap):
    full = field.matmul(fmap, t.surjection)
    out = field.zeros(fmap.shape[0], t.outer, t.inner)
    for i in range(t.outer):
        for j in range(t.inner):
            out[:, i, j] = full[:, i * t.inner + j]
    return out


def _ref_descend(field, t, values):
    full = field.zeros(values.shape[0], t.outer * t.inner)
    for i in range(t.outer):
        for j in range(t.inner):
            full[:, i * t.inner + j] = values[:, i, j]
    return field.matmul(full, t.section)


def _ref_tensor_map(field, tsrc, ttgt, a):
    big = linalg.kron(field, field.eye(tsrc.outer), a)
    return field.matmul(ttgt.surjection, field.matmul(big, tsrc.section))


def _ref_basis_pivots(field, basis):
    pivots, taken = [], set()
    for mat in basis:
        vec = mat.reshape(-1)
        for p in range(vec.shape[0]):
            if vec[p] == field.one and p not in taken and all(
                    other.reshape(-1)[p] == field.zero for other in basis if other is not mat):
                pivots.append(p)
                taken.add(p)
                break
        else:
            raise AssertionError("canonical basis lost its pivot structure")
    return pivots


def _ref_coordinates(field, pivots, mats):
    out = field.zeros(len(pivots), len(mats))
    for j, mat in enumerate(mats):
        vec = mat.reshape(-1)
        col = np.array([vec[p] for p in pivots], dtype=object)
        for r in range(len(pivots)):
            out[r, j] = col[r]
    return out


def _ref_combine(field, coeffs, stack):
    out = []
    for row in coeffs:
        acc = field.zeros(*stack.shape[1:])
        for c, m in zip(row, stack):
            if c != field.zero:
                acc = acc + c * m
        out.append(field.normalize(acc))
    return out


# -- the comparisons ---------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.p or "Q"))
def test_pure_tensor_methods_match_the_loops(field):
    rng = random.Random(field.p or 0)
    for _ in range(25):
        outer, inner, t, rows = (rng.randrange(4) for _ in range(4))
        tm = _tensor(field, rng, outer, inner, t)
        fmap = _random(field, rng, rows, t)
        _same(tm.pure_values(fmap), _ref_pure_values(field, tm, fmap))
        values = _random(field, rng, rows, outer, inner)
        _same(tm.descend(values), _ref_descend(field, tm, values))
        _same(tm.pure_surjection, _ref_pure_values(field, tm, field.eye(t)))
        assert not tm.pure_surjection.flags.writeable and not tm.pure_section.flags.writeable


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.p or "Q"))
def test_tensor_map_matches_the_kronecker_product(field):
    rng = random.Random(1 + (field.p or 0))
    for _ in range(25):
        outer, inner_s, inner_t, t1, t2 = (rng.randrange(4) for _ in range(5))
        tsrc = _tensor(field, rng, outer, inner_s, t1)
        ttgt = _tensor(field, rng, outer, inner_t, t2)
        a = _random(field, rng, inner_t, inner_s)
        _same(mor._tensor_map(field, tsrc, ttgt, a), _ref_tensor_map(field, tsrc, ttgt, a))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.p or "Q"))
def test_coordinate_reader_and_pivots_match_the_loops(field):
    rng = random.Random(2 + (field.p or 0))
    for _ in range(25):
        r, c = rng.randrange(4), rng.randrange(4)
        # a canonical kernel basis, as the hom solvers produce it
        kern = linalg.kernel_basis(field, _random(field, rng, rng.randrange(r * c + 1), r * c))
        basis = [field.freeze(kern[:, k].reshape(r, c)) for k in range(kern.shape[1])]
        pivots = alg.basis_pivots(field, basis)
        assert pivots == _ref_basis_pivots(field, basis)
        mats = [_random(field, rng, r, c) for _ in range(rng.randrange(4))]
        mats += [linalg.combine(field, [[field.scalar(rng.randrange(5)) for _ in basis]],
                                alg._stack(field, basis, (r, c)))[0]]
        _same(alg.coordinates(field, pivots, mats), _ref_coordinates(field, pivots, mats))
    with pytest.raises(AssertionError):
        alg.basis_pivots(field, [field.eye(2), field.eye(2)])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.p or "Q"))
def test_combine_matches_the_loop(field):
    rng = random.Random(3 + (field.p or 0))
    for _ in range(25):
        n, rows, d = rng.randrange(1, 5), rng.randrange(4), rng.randrange(4)
        stack = _random(field, rng, n, d, d)
        coeffs = _random(field, rng, rows, n)
        coeffs[:, ::2] = field.zero
        got = linalg.combine(field, coeffs, stack)
        assert got.shape == (rows, d, d)
        for g, want in zip(got, _ref_combine(field, coeffs, stack)):
            _same(g, want)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.p or "Q"))
def test_module_from_a_list_or_a_stack(field):
    a = alg.path_algebra(alg.cyclic_quiver(3), alg.nakayama_relations(alg.cyclic_quiver(3), 2),
                         field)
    rng = random.Random(4)
    mods = alg.indecomposable_projectives(a) + [alg.zero_module(a)]
    x = alg.direct_sum(mods[:2])[0]
    while True:
        g = _random(field, rng, x.dim, x.dim)
        if linalg.is_invertible(field, g):
            break
    gi = linalg.invert(field, g)
    conj = alg.Module(a, x.dim, [field.matmul(g, field.matmul(m, gi)) for m in x.action])
    assert conj.vertex_classes() is None
    for m in mods + [x, conj]:
        as_list = alg.Module(a, m.dim, [np.array(act) for act in m.action])
        writeable = np.array(m.action)
        as_stack = alg.Module(a, m.dim, writeable)
        for y in (as_list, as_stack):
            assert y.content_key() == m.content_key()
            assert y.vertex_classes() == m.vertex_classes()
            assert y.action.dtype == field.zeros(0, 0).dtype
            assert y.action.shape == (a.dim, m.dim, m.dim)
            assert not y.action.flags.writeable and not y.act(0).flags.writeable
            _same(y.action, m.action)
        writeable[...] = field.zero
        _same(as_stack.action, m.action)  # the stack was copied, not kept
        assert alg.Module(a, m.dim, m.action).action is m.action  # a frozen stack is kept
    with pytest.raises(ValueError):
        alg.Module(a, 1, [field.eye(1)] * (a.dim - 1))
    with pytest.raises(ValueError):
        alg.Module(a, 1, [field.eye(2)] * a.dim)
