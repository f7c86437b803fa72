"""The entry contract over Q: every array that fields and linalg produce
holds exact Python ints for its integral entries and Fractions in lowest
terms for the others, never a numpy integer and never a Fraction with
denominator 1; and its values are those of a reference computed on
Fraction objects alone."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from morita_lab import linalg
from morita_lab.fields import QQ, _integral

INT64_MAX = (1 << 63) - 1
INT64_EDGE = [INT64_MAX, INT64_MAX + 1, -INT64_MAX, -INT64_MAX - 2, 1 << 70]


def canonical_value(v):
    """v is a Python int or a Fraction that is not integral; the other test
    modules over Q import this check."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def _assert_canonical(a, want=None):
    """a is an object array of canonical entries, equal to want (an array
    or nested list of Fractions) when given."""
    assert isinstance(a, np.ndarray) and a.dtype == object
    bad = [v for v in a.flat if not canonical_value(v)]
    assert not bad, bad
    if want is not None:
        assert a.tolist() == np.asarray(want, dtype=object).reshape(a.shape).tolist()


def _fractions(a):
    """a as an object array of Fractions with Python-int parts."""
    out = np.empty(np.shape(a), dtype=object)
    out.ravel()[:] = [Fraction(int(v.numerator), int(v.denominator)) for v in np.ravel(a)]
    return out


# entries as callers may hand them over: ints of every size, numpy integers,
# integral and non-integral Fractions, and values at the int64 edge
ENTRY = st.one_of(
    st.integers(-4, 4),
    st.integers(-4, 4).map(np.int64),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from(INT64_EDGE),
    st.sampled_from(INT64_EDGE).map(lambda n: Fraction(n, 3)),
)


@st.composite
def raw_matrices(draw, rows=None, cols=None, max_dim=5):
    """A raw Q matrix: an object array of mixed entries, or an int64 array."""
    rows = draw(st.integers(0, max_dim)) if rows is None else rows
    cols = draw(st.integers(0, max_dim)) if cols is None else cols
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(-9, 9), min_size=rows * cols, max_size=rows * cols))
        return np.array(values, dtype=np.int64).reshape(rows, cols)
    values = draw(st.lists(ENTRY, min_size=rows * cols, max_size=rows * cols))
    out = np.empty(rows * cols, dtype=object)
    out[:] = values
    return out.reshape(rows, cols)


def _reference_rref(a):
    """Gauss-Jordan on Fraction rows: leftmost column, topmost nonzero entry."""
    rows = [list(r) for r in _fractions(a).tolist()]
    ncols = a.shape[1]
    pivots, r = [], 0
    for c in range(ncols):
        i = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if i is None:
            continue
        rows[i], rows[r] = rows[r], rows[i]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


@settings(max_examples=150, deadline=None)
@given(ENTRY)
def test_scalar_and_inv_are_canonical(v):
    s = QQ.scalar(v)
    assert canonical_value(s) and s == Fraction(int(v.numerator), int(v.denominator))
    assert canonical_value(QQ.scalar(str(s))) and QQ.scalar(str(s)) == s
    if s:
        inv = QQ.inv(s)
        assert canonical_value(inv) and inv == 1 / Fraction(s)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4))
def test_zeros_eye_zero_and_one_are_python_ints(r, c):
    _assert_canonical(QQ.zeros(r, c), [[0] * c] * r)
    _assert_canonical(QQ.zeros(2, r, c))
    _assert_canonical(QQ.eye(r), [[int(i == j) for j in range(r)] for i in range(r)])
    assert (type(QQ.zero), QQ.zero, type(QQ.one), QQ.one) == (int, 0, int, 1)


@settings(max_examples=150, deadline=None)
@given(raw_matrices())
def test_normalize_is_canonical_and_keeps_values(a):
    got = QQ.normalize(a)
    _assert_canonical(got, _fractions(a))
    _assert_canonical(QQ.normalize(got), got)
    if all(type(v) is int for v in got.flat):
        assert QQ.normalize(got) is got  # one type scan, and no copy


@st.composite
def operands(draw, rows, cols):
    """A Q product operand of one of the three kinds that fields._integral
    tells apart, with its kind: an object array of Python ints alone, which
    is multiplied as it is; an object array of mixed entries (numpy ints
    too) holding a Fraction; or an int64 array.  The last two are rebuilt."""
    kind = draw(st.sampled_from(["ints", "fraction", "int64"]))
    n = rows * cols
    if kind == "int64":
        values = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        return kind, np.array(values, dtype=np.int64).reshape(rows, cols)
    entry = st.one_of(st.integers(-9, 9), st.sampled_from(INT64_EDGE)) if kind == "ints" else ENTRY
    values = draw(st.lists(entry, min_size=n, max_size=n))
    if kind == "fraction" and n:  # integral or not: a Fraction is never used as it is
        values[draw(st.integers(0, n - 1))] = draw(st.fractions(max_denominator=6))
    out = np.empty(n, dtype=object)
    out[:] = values
    return kind, out.reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_matmul_and_combine_are_canonical_and_exact(data):
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    (a_kind, a), (b_kind, b) = data.draw(operands(r, k)), data.draw(operands(k, c))
    for kind, m in ((a_kind, a), (b_kind, b)):
        nums, den = _integral(m)
        if kind == "ints" or (kind == "fraction" and not m.size):
            assert nums is m and den == 1  # multiplied as it is
        else:
            assert nums is not m
            _assert_canonical(nums, _fractions(m) * den)  # Python ints alone
    want = np.matmul(_fractions(a), _fractions(b)) if k else np.zeros((r, c), dtype=object)
    _assert_canonical(QQ.matmul(a, b), want)
    _assert_canonical(QQ.matmul(QQ.normalize(a), QQ.normalize(b)), want)
    stack = QQ.normalize(b).reshape(k, c, 1)
    for coeffs in (a, a.tolist() if r else a):
        _assert_canonical(linalg.combine(QQ, coeffs, stack), want.reshape(r, c, 1))


def test_a_zero_factor_with_entries_beyond_int64():
    """A zero factor makes the product bound 0, but the other factor's
    numerators need not fit int64: the product is still exact and canonical."""
    huge = QQ.normalize(np.array([[10 ** 30, Fraction(1, 3)], [-(10 ** 30), INT64_MAX + 1]],
                                 dtype=object))
    zero = QQ.zeros(2, 2)
    for a, b in ((huge, zero), (zero, huge)):
        _assert_canonical(QQ.matmul(a, b), [[0, 0], [0, 0]])
    _assert_canonical(QQ.matmul(huge, QQ.eye(2)), huge)
    edge = QQ.normalize(np.array([[INT64_MAX, 1]], dtype=object))
    _assert_canonical(QQ.matmul(edge, edge.T.copy()), [[INT64_MAX ** 2 + 1]])


@settings(max_examples=150, deadline=None)
@given(raw_matrices())
def test_rref_and_rank_are_canonical_and_exact(m):
    want, want_pivots = _reference_rref(m)
    got, pivots = linalg.rref(QQ, m)
    assert pivots == want_pivots and got.shape == (len(pivots), m.shape[1])
    _assert_canonical(got, want if want else None)
    assert linalg.rank(QQ, m) == len(want_pivots)
    _assert_canonical(linalg.kernel_basis(QQ, m))
    assert QQ.is_zero(QQ.matmul(m, linalg.kernel_basis(QQ, m)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_solve_is_canonical_and_exact(data):
    m = data.draw(raw_matrices(max_dim=4))
    b = data.draw(raw_matrices(m.shape[0], data.draw(st.integers(1, 2))))
    x = linalg.solve(QQ, m, b)
    want, pivots = _reference_rref(np.concatenate([_fractions(m), _fractions(b)], axis=1))
    ncols = m.shape[1]
    if any(p >= ncols for p in pivots):
        assert x is None
        return
    ref = np.zeros((ncols, b.shape[1]), dtype=object)
    for i, p in enumerate(pivots):
        ref[p, :] = want[i][ncols:]
    _assert_canonical(x, ref)
