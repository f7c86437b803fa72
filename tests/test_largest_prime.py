"""The int64 field path at the largest admitted prime, p = 2^31 - 1, against
a reference written in Python ints, which cannot overflow.

At this p one product (p-1)^2 is just below 2^62, so FieldSpec.matmul may
add only two of them before it reduces mod p.  Entries are drawn near p - 1
as well as at random, so every sum that skipped a reduction would wrap.
"""

import random

import numpy as np
import pytest

from morita_lab import algebras as alg
from morita_lab import fields
from morita_lab import linalg
from morita_lab.fields import FieldSpec

P = (1 << 31) - 1
TOP = FieldSpec("prime", P)
INT64_MAX = (1 << 63) - 1


def _entries(rng, count):
    """Python ints in 0..p-1, half of them within 3 of p - 1."""
    return [rng.choice([P - 1 - rng.randrange(3), rng.randrange(P)]) for _ in range(count)]


def _matrix(rng, *shape):
    return np.array(_entries(rng, int(np.prod(shape))), dtype=np.int64).reshape(shape)


def _as_ints(a):
    """a as an object array of Python ints."""
    out = np.empty(a.shape, dtype=object)
    out.ravel()[:] = [int(v) for v in a.ravel().tolist()]
    return out


def _ref_matmul(a, b):
    return np.matmul(_as_ints(a), _as_ints(b)) % P


def _ref_rref(rows):
    """(R, pivots) by Gauss-Jordan on lists of Python ints mod p."""
    rows = [[int(v) % P for v in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        inv = pow(rows[r][c], -1, P)
        rows[r] = [v * inv % P for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [(v - row[c] * w) % P for v, w in zip(row, rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


@pytest.mark.parametrize("p", [2, 3, 33554393, 33554467, P])
def test_chunk_bound_keeps_every_partial_sum_in_int64(p):
    chunk = fields._products_per_reduction(p)
    assert chunk >= 2
    assert chunk * (p - 1) ** 2 + (p - 1) <= INT64_MAX


@pytest.mark.parametrize("k", [1, 2, 3, 7, 64])
def test_matmul_matches_python_ints(k):
    assert fields._products_per_reduction(P) == 2
    rng = random.Random(k)
    for ashape, bshape in [((4, k), (k, 3)), ((1, k), (k, 1)), ((3, 2, k), (3, k, 4))]:
        a, b = _matrix(rng, *ashape), _matrix(rng, *bshape)
        got = TOP.matmul(a, b)
        assert got.dtype == np.int64
        assert got.tolist() == _ref_matmul(a, b).tolist()
    # the worst case: every entry p - 1, so every product is (p-1)^2
    worst = np.full((2, k), P - 1, dtype=np.int64)
    assert TOP.matmul(worst, worst.T.copy()).tolist() == [[k % P] * 2] * 2


def test_combine_matches_python_ints():
    rng = random.Random(5)
    for r, k, shape in [(3, 1, (2, 2)), (2, 3, (3,)), (4, 7, (2, 3)), (2, 64, (1, 2))]:
        coeffs, stack = _matrix(rng, r, k), _matrix(rng, k, *shape)
        got = linalg.combine(TOP, coeffs, stack)
        want = [[sum(int(coeffs[i, j]) * int(stack[j].flat[e]) for j in range(k)) % P
                 for e in range(int(np.prod(shape)))] for i in range(r)]
        assert got.dtype == np.int64 and got.shape == (r, *shape)
        assert got.reshape(r, -1).tolist() == want


def test_rref_matches_python_ints():
    rng = random.Random(7)
    for nrows, ncols in [(4, 6), (6, 4), (5, 5), (3, 1), (1, 3)]:
        m = _matrix(rng, nrows, ncols)
        if nrows > 2:
            # a dependent row: a sum of two rows, so the rank drops
            m[-1] = (m[0] + m[1]) % P
        r, pivots = linalg.rref(TOP, m)
        want, want_pivots = _ref_rref(m.tolist())
        assert pivots == want_pivots
        assert r.dtype == np.int64 and r.tolist() == want


def test_kron_matches_python_ints():
    rng = random.Random(9)
    a, b = _matrix(rng, 2, 3), _matrix(rng, 3, 2)
    got = linalg.kron(TOP, a, b)
    want = [[int(a[i, j]) * int(b[k, l]) % P for j in range(3) for l in range(2)]
            for i in range(2) for k in range(3)]
    assert got.dtype == np.int64 and got.tolist() == want


def _ref_inverse(s):
    n = len(s)
    r, pivots = _ref_rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(s)])
    assert pivots == list(range(n))
    return [row[n:] for row in r]


def _conjugate(module, rng):
    """The module in a random basis: action s^-1 x(b) s, computed in Python
    ints, with s a product of unitriangular matrices with entries near p."""
    n = module.dim
    lower = [[1 if i == j else (_entries(rng, 1)[0] if i > j else 0) for j in range(n)]
             for i in range(n)]
    upper = [list(row) for row in zip(*lower)]
    s = (np.array(lower, dtype=object) @ np.array(upper, dtype=object)) % P
    s_inv = np.array(_ref_inverse(s.tolist()), dtype=object)
    action = [np.array((s_inv @ _as_ints(x) @ s) % P, dtype=np.int64) for x in module.action]
    return alg.Module(module.algebra, n, action)


def test_hom_space_matches_python_ints():
    a = alg.path_algebra(alg.linear_quiver(3), [], TOP, name="kA3")
    proj, simple = alg.indecomposable_projectives(a), alg.simples(a)
    rng = random.Random(11)
    x = _conjugate(alg.free_module(a), rng)
    y = _conjugate(alg.direct_sum([proj[0], proj[1], simple[2]])[0], rng)
    for src, tgt in [(x, y), (y, x), (y, y)]:
        basis = alg.hom_space(src, tgt)
        # the reference system phi x(b) = y(b) phi, unknown phi[r, m] at r * dx + m
        dx, dy = src.dim, tgt.dim
        rows = []
        for xb, yb in zip(src.action.tolist(), tgt.action.tolist()):
            for r in range(dy):
                for c in range(dx):
                    row = [0] * (dx * dy)
                    for m in range(dx):
                        row[r * dx + m] += xb[m][c]
                    for m in range(dy):
                        row[m * dx + c] -= yb[r][m]
                    rows.append(row)
        rank = len(_ref_rref(rows)[1])
        assert len(basis) == dx * dy - rank > 0
        for phi in basis:
            assert phi.dtype == np.int64
            for xb, yb in zip(src.action, tgt.action):
                assert (_ref_matmul(phi, xb) == _ref_matmul(yb, phi)).all()
        assert len(_ref_rref([phi.ravel().tolist() for phi in basis])[1]) == len(basis)
