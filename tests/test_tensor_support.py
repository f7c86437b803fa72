"""M (x)_A X is built on the vertex-class support.  A test-only copy of the
full-space Kronecker builder it replaced checks the new builder byte for
byte: surjection, section and action, dtype included."""

import numpy as np
import pytest

from morita_lab.fields import F3, QQ, FieldSpec
from morita_lab import algebras as alg
from morita_lab import classes as cls
from morita_lab import homology as hml
from morita_lab import lab
from morita_lab import linalg
from morita_lab import morita as mor

FIELDS = [F3, FieldSpec("prime", 33554467), QQ]
INSTANCES = [("ie", {}), ("examctp4", dict(n=3, h=2, i=1, j=3))]


def kronecker_tensor(m, x):
    """The quotient of all dim M * dim X pure tensors by the relations
    R_M(g) (x) 1 - 1 (x) X(g) of every generator g, and the action
    proj (L_i (x) 1) sect: the builder before the support rule."""
    f = m.field
    dm, dx = m.dim, x.dim
    full = dm * dx
    blocks = [f.normalize(linalg.kron(f, m.right_action[g], f.eye(dx))
                          - linalg.kron(f, f.eye(dm), x.act(g)))
              for g in x.algebra.generator_indices()]
    relations = linalg.hstack(f, blocks) if blocks else f.zeros(full, 0)
    proj, sect = linalg.quotient(f, full, relations)
    big = f.zeros(m.left_algebra.dim, full, full)
    for i, a in enumerate(m.left_action):
        big[i] = linalg.kron(f, a, f.eye(dx))
    acts = [f.matmul(proj, f.matmul(b, sect)) for b in big]
    return f.freeze(proj), f.freeze(sect), alg.Module(m.left_algebra, proj.shape[0], acts).action


def _exact(a):
    """dtype, shape and every entry with its Python type."""
    if a.dtype == object:
        return a.dtype.str, a.shape, [(type(v), v) for v in a.flat]
    return a.dtype.str, a.shape, a.tobytes()


def _assert_same_tensor(m, x):
    t = alg._tensor_presentation(m, x)
    proj, sect, acts = kronecker_tensor(m, x)
    assert _exact(t.surjection) == _exact(proj)
    assert _exact(t.section) == _exact(sect)
    assert _exact(t.module.action) == _exact(acts)
    return t


def _conjugated(x, g):
    """x with its action conjugated by the invertible matrix g."""
    f = x.field
    gi = linalg.invert(f, g)
    return alg.Module(x.algebra, x.dim, [f.matmul(g, f.matmul(a, gi)) for a in x.action])


def _shear(field, d):
    """The invertible d x d matrix with ones on and above the diagonal."""
    return field.asmatrix([[1 if c >= r else 0 for c in range(d)] for r in range(d)])


def _modules(a, seed):
    sampler = lab.Sampler(seed, dim_cap=6, rank_cap=3)
    return [*alg.indecomposable_projectives(a), *alg.indecomposable_injectives(a),
            *alg.simples(a), *(sampler.plain(a) for _ in range(3))]


@pytest.mark.parametrize("field", FIELDS, ids=["F3", "F33554467", "Q"])
@pytest.mark.parametrize("name,params", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_tensor_matches_the_kronecker_builder(name, params, field):
    data = lab.catalog(name, field, **params).data
    kept = 0
    for m in (data.M, data.N):
        for x in _modules(data.A, 7):
            assert x.vertex_classes() is not None
            kept += _assert_same_tensor(m, x).dim
    assert kept  # some tensor is nonzero


@pytest.mark.parametrize("field", FIELDS, ids=["F3", "F33554467", "Q"])
def test_tensor_of_the_zero_module(field):
    data = lab.catalog("ie", field).data
    t = _assert_same_tensor(data.M, alg.zero_module(data.A))
    assert t.dim == 0 and t.surjection.shape == (0, 0) and t.section.shape == (0, 0)


@pytest.mark.parametrize("field", FIELDS, ids=["F3", "F33554467", "Q"])
def test_tensor_without_vertex_classes(field):
    """A side without vertex classes counts as one class: every coordinate
    and every generator, the same system as the full-space builder."""
    data = lab.catalog("examctp4", field, n=3, h=2, i=1, j=3).data
    a = data.A
    p1, p2, _ = alg.indecomposable_projectives(a)
    x, _, _ = alg.direct_sum([p1, alg.simples(a)[1], p2])
    y = _conjugated(x, _shear(field, x.dim))
    assert y.vertex_classes() is None
    _assert_same_tensor(data.M, y)
    m = data.M
    g = _shear(field, m.dim)
    gi = linalg.invert(field, g)
    twisted = alg.Bimodule(m.left_algebra, m.right_algebra, m.dim,
                           [field.matmul(g, field.matmul(l, gi)) for l in m.left_action],
                           [field.matmul(g, field.matmul(r, gi)) for r in m.right_action])
    twisted.validate()
    assert twisted.right_as_left_module().vertex_classes() is None
    for z in (x, y):
        assert _assert_same_tensor(twisted, z).dim == _assert_same_tensor(m, z).dim


def test_tensor_and_square_rows_use_no_kronecker_product(monkeypatch):
    data = lab.catalog("examctp4", F3, n=3, h=2, i=1, j=3).data
    sampler = lab.Sampler(3)
    quads = [sampler.quadruple(data) for _ in range(3)]

    def refuse(*args):
        raise AssertionError("linalg.kron called")

    monkeypatch.setattr(linalg, "kron", refuse)
    for x in _modules(data.A, 11):
        alg._tensor_presentation(data.M, x)
    for src in quads:
        for tgt in quads:
            mor.lambda_hom_space(src, tgt)
    # the extend and lift solvers, through every caller of theirs
    for ses in [hml.cover_presentation(_modules(data.A, 1)[0]),
                *(hml.lambda_presentation(l) for l in quads)]:
        assert hml.splits(ses)[0] == hml.ext_class_is_zero(ses)
    proj = sampler.projective_quadruple(data)
    assert cls.delta_decompose(proj, cls.projectives_spec(data.A),
                               cls.projectives_spec(data.B)) is not None
    inj = mor.functor_H(data, "A", alg.indecomposable_injectives(data.A)[0])
    assert cls.nabla_decompose(inj, cls.injectives_spec(data.A),
                               cls.injectives_spec(data.B)) is not None
    hml.approx_c1(quads[0])


def test_tensor_support_excludes_cross_class_pure_tensors():
    """The surjection vanishes at every pure tensor whose classes differ,
    and the section lifts only to pure tensors whose classes agree."""
    data = lab.catalog("examctp4", F3, n=3, h=2, i=1, j=3).data
    for x in _modules(data.A, 5):
        t = alg._tensor_presentation(data.M, x)
        agree = np.equal.outer(data.M.right_as_left_module().vertex_classes(),
                               x.vertex_classes())
        assert not np.any(t.pure_surjection[:, ~agree])
        assert not np.any(t.pure_section[~agree])
