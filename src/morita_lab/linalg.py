"""Exact dense linear algebra over F_p and Q.

Everything is deterministic: reduced row echelon form with leftmost-pivot
choice, so the bases produced by kernel_basis and quotient are canonical
and reproducible bit-for-bit across runs.

rref and rank read one elimination loop, which works on the rows held as
Python lists (reduced mod p after each row operation over F_p, ints and
Fractions over Q).  rref clears each pivot column above and below and
builds its result array once, normalized: over Q an integral entry is a
Python int.  rank eliminates forward only, clearing below each pivot, and
counts the pivots without building an array.  The matrices the suites
reduce are small, most at most 8 x 8, and there a numpy call per pivot
costs more than the arithmetic.  The RREF is unique, so the pivot rule and
the canonical output do not depend on how the elimination is carried out.
invertible_mask is the batched invertibility test over F_p of the
isomorphism search: one vectorized elimination for a whole stack.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import FieldSpec


def _eliminate(field: FieldSpec, rows: list, ncols: int, reduced: bool) -> list:
    """Eliminate in place on rows, a list of normalized row lists, and return
    the pivot columns; the first len(pivots) rows are then the echelon rows.

    Pivot rule: leftmost column, topmost nonzero entry.  The pivot row is
    scaled to 1 and its column cleared below it, and above it too when
    reduced.  The pivot row is zero left of its pivot, so each row
    operation touches only the pivot row's nonzero entries right of it.
    """
    p, zero = field.p, field.zero
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i], rows[r] = rows[r], prow
        inv = field.inv(prow[c])
        if inv != 1:
            prow[c:] = [x * inv % p for x in prow[c:]] if p else [x * inv for x in prow[c:]]
        support = [(j, y) for j, y in enumerate(prow[c + 1 :], c + 1) if y]
        for row in rows if reduced else rows[r + 1 :]:
            f = row[c]
            if f and row is not prow:
                row[c] = zero
                if p:
                    for j, y in support:
                        row[j] = (row[j] - f * y) % p
                else:
                    for j, y in support:
                        row[j] -= f * y
        pivots.append(c)
    return pivots


def rref(field: FieldSpec, m: np.ndarray):
    """Reduced row echelon form.  Returns (R, pivot_columns); R is
    normalized, in the field's dtype."""
    a = field.normalize(np.asarray(m))
    ncols = a.shape[1]
    rows = a.tolist()
    pivots = _eliminate(field, rows, ncols, True)
    out = np.array(rows[: len(pivots)], dtype=a.dtype).reshape(len(pivots), ncols)
    return (out if field.p else field.normalize(out)), pivots


def rank(field: FieldSpec, m: np.ndarray) -> int:
    """The number of pivots of m, by forward elimination on its nonzero
    rows: no back-substitution and no result array."""
    a = field.normalize(np.asarray(m))
    rows = [row for row in a.tolist() if any(row)]
    return len(_eliminate(field, rows, a.shape[1], False))


def kernel_from_rref(field: FieldSpec, r: np.ndarray, pivots, ncols: int):
    """The canonical kernel basis read off an RREF, and the free coordinates:
    one column per free coordinate, identity there and -r on the pivots."""
    taken = set(pivots)
    free = [j for j in range(ncols) if j not in taken]
    k = field.zeros(ncols, len(free))
    k[free, range(len(free))] = field.one
    k[pivots, :] = field.normalize(-r[:, free])
    return k, free


def kernel_basis(field: FieldSpec, m: np.ndarray) -> np.ndarray:
    """Columns span ker(m); the basis is the canonical one read off the RREF:
    one column per free coordinate, identity on the free coordinates."""
    r, pivots = rref(field, m)
    return kernel_from_rref(field, r, pivots, m.shape[1])[0]


def solve(field: FieldSpec, m: np.ndarray, b: np.ndarray):
    """Some solution of m x = b (free variables set to 0), or None."""
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if m.shape[0] != b.shape[0]:
        raise ValueError(f"solve shape mismatch {m.shape} vs {b.shape}")
    r, pivots = rref(field, np.concatenate([m, b], axis=1))
    ncols = m.shape[1]
    if any(p >= ncols for p in pivots):
        return None
    x = field.zeros(ncols, b.shape[1])
    for i, p in enumerate(pivots):
        x[p, :] = r[i, ncols:]
    return x


def quotient(field: FieldSpec, ambient_dim: int, subspace: np.ndarray):
    """Projection/section pair presenting ambient / span(columns of subspace).

    projection has full row rank ambient_dim - rank(subspace),
    projection @ subspace = 0 and projection @ section = identity.  The
    quotient basis is the image of the non-pivot coordinates (echelon rule).
    """
    if subspace.shape[0] != ambient_dim:
        raise ValueError("subspace columns must live in the ambient space")
    r, pivots = rref(field, subspace.T)
    # x = sum_i x_{p_i} r_i mod span, so project onto the free coordinates:
    # identity there, and e_{p_i} goes to -r_i read on the free coordinates.
    # That is the canonical kernel basis of subspace^T, transposed.
    k, free = kernel_from_rref(field, r, pivots, ambient_dim)
    section = field.zeros(ambient_dim, len(free))
    section[free, range(len(free))] = field.one
    return k.T.copy(), section


def column_space_basis(field: FieldSpec, m: np.ndarray) -> np.ndarray:
    """Canonical (RREF of the transpose) basis of the column space, as columns."""
    r, _ = rref(field, m.T)
    return r.T


def invert(field: FieldSpec, m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("only square matrices are invertible")
    # the RREF of [m | I] has rank n, so it has a pivot in I exactly when m
    # is singular, and then solve returns None
    x = solve(field, m, field.eye(n))
    if x is None:
        raise ValueError("matrix is singular")
    return x


def is_invertible(field: FieldSpec, m: np.ndarray) -> bool:
    return m.shape[0] == m.shape[1] and rank(field, m) == m.shape[0]


def invertible_mask(field: FieldSpec, mats: np.ndarray) -> np.ndarray:
    """Which of a stack of square int64 matrices over F_p are invertible.

    One fraction-free elimination for the whole stack, one vectorized step
    per column: the topmost nonzero entry at or below the diagonal is the
    pivot, and each lower row r becomes pivot * r - r[c] * (pivot row), a
    unit multiple of r minus a multiple of the pivot row.  Matrices without
    a pivot in some column leave the stack at once.  Every prime is int64,
    and each new entry is a difference of two products below p^2 <= 2^62
    (p <= 2^31), so it fits in int64 at every admitted p.
    """
    p = field.p
    n, d, _ = mats.shape
    a = mats % p
    alive = np.arange(n)
    for c in range(d):
        nonzero = a[:, c:, c] != 0
        has = nonzero.any(axis=1)
        if not has.all():
            a, alive, nonzero = a[has], alive[has], nonzero[has]
            if not len(alive):
                break
        rows = np.arange(len(alive))
        piv = c + nonzero.argmax(axis=1)
        top = a[rows, piv, c:]
        a[rows, piv, c:] = a[:, c, c:]
        lower = a[:, c + 1 :, c:]
        a[:, c + 1 :, c:] = (lower * top[:, None, :1]
                             - lower[:, :, :1] * top[:, None, :]) % p
    mask = np.zeros(n, dtype=bool)
    mask[alive] = True
    return mask


def combine(field: FieldSpec, coeffs, stack: np.ndarray) -> np.ndarray:
    """sum_k coeffs[r, k] stack[k] for each row r of coeffs, normalized: one
    field.matmul of coeffs with the stack read as a k x rest matrix."""
    coeffs = np.asarray(coeffs, dtype=field._dtype)
    k, rest = stack.shape[0], stack.shape[1:]
    out = field.matmul(coeffs, stack.reshape(k, math.prod(rest)))
    return out.reshape(coeffs.shape[0], *rest)


def vstack(field: FieldSpec, blocks) -> np.ndarray:
    blocks = [b for b in blocks]
    if not blocks:
        return field.zeros(0, 0)
    ncols = blocks[0].shape[1]
    out = field.zeros(sum(b.shape[0] for b in blocks), ncols)
    r = 0
    for b in blocks:
        out[r : r + b.shape[0], :] = b
        r += b.shape[0]
    return out


def hstack(field: FieldSpec, blocks) -> np.ndarray:
    blocks = [b for b in blocks]
    if not blocks:
        return field.zeros(0, 0)
    nrows = blocks[0].shape[0]
    out = field.zeros(nrows, sum(b.shape[1] for b in blocks))
    c = 0
    for b in blocks:
        out[:, c : c + b.shape[1]] = b
        c += b.shape[1]
    return out


def block_diag(field: FieldSpec, blocks) -> np.ndarray:
    blocks = [b for b in blocks]
    out = field.zeros(sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def kron(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size == 0 or b.size == 0:
        return field.zeros(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    (ar, ac), (br, bc) = a.shape, b.shape
    out = a.reshape(ar, 1, ac, 1) * b.reshape(1, br, 1, bc)
    return field.normalize(out.reshape(ar * br, ac * bc))
