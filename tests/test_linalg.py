from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morita_lab.fields import F2, F3, QQ, FieldSpec, field_from_token
from morita_lab import linalg
from test_rational_entries import canonical_value


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec("prime", 4)
    with pytest.raises(ValueError):
        FieldSpec("prime", (1 << 31) + 11)
    with pytest.raises(ValueError):
        FieldSpec("weird")
    assert field_from_token("Q") == QQ
    assert field_from_token("3") == F3


def test_rank_empty():
    assert linalg.rank(F3, F3.zeros(0, 0)) == 0


def test_rank_identity_f3():
    assert linalg.rank(F3, F3.eye(3)) == 3


def test_rank_rational():
    # hand row-reduction: second row is twice the first
    m = QQ.asmatrix([[1, 2], [2, 4]])
    assert linalg.rank(QQ, m) == 1


def test_kernel_of_identity():
    assert linalg.kernel_basis(F2, F2.eye(2)).shape == (2, 0)


def test_kernel_of_zero():
    k = linalg.kernel_basis(F3, F3.zeros(2, 2))
    assert F3.equal(k, F3.eye(2))


def test_kernel_f2_line():
    # x + y = 0 over F_2 has the single solution line through (1, 1)
    k = linalg.kernel_basis(F2, F2.asmatrix([[1, 1]]))
    assert F2.equal(k, F2.asmatrix([[1], [1]]))


def test_solve_identity():
    b = F3.asmatrix([[2], [1]])
    assert F3.equal(linalg.solve(F3, F3.eye(2), b), b)


def test_solve_canonical_pivot_choice():
    x = linalg.solve(F2, F2.asmatrix([[1, 1]]), F2.asmatrix([[0]]))
    assert F2.equal(x, F2.zeros(2, 1))


def test_solve_inconsistent():
    assert linalg.solve(F2, F2.zeros(1, 1), F2.asmatrix([[1]])) is None


def test_quotient_by_full_space():
    proj, sect = linalg.quotient(F3, 2, F3.eye(2))
    assert proj.shape == (0, 2)
    assert sect.shape == (2, 0)


def test_quotient_by_zero():
    proj, sect = linalg.quotient(F3, 2, F3.zeros(2, 0))
    assert F3.equal(proj, F3.eye(2))
    assert F3.equal(sect, F3.eye(2))


def test_quotient_line_in_plane():
    sub = F3.asmatrix([[1], [1]])
    proj, sect = linalg.quotient(F3, 2, sub)
    assert proj.shape == (1, 2)
    assert F3.is_zero(F3.matmul(proj, sub))
    assert F3.equal(F3.matmul(proj, sect), F3.eye(1))


def _matrices(field, max_dim=5):
    return st.integers(0, max_dim).flatmap(
        lambda r: st.integers(0, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, 100), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(lambda rows: field.asmatrix(rows) if r else field.zeros(0, c))
        )
    )


@settings(max_examples=60, deadline=None)
@given(_matrices(F3))
def test_rank_nullity_f3(m):
    assert linalg.rank(F3, m) + linalg.kernel_basis(F3, m).shape[1] == m.shape[1]


@settings(max_examples=40, deadline=None)
@given(_matrices(QQ, max_dim=4))
def test_rank_nullity_rational(m):
    assert linalg.rank(QQ, m) + linalg.kernel_basis(QQ, m).shape[1] == m.shape[1]


@settings(max_examples=60, deadline=None)
@given(_matrices(F3))
def test_kernel_is_annihilated(m):
    k = linalg.kernel_basis(F3, m)
    assert F3.is_zero(F3.matmul(m, k))


@settings(max_examples=60, deadline=None)
@given(_matrices(F3, max_dim=4))
def test_quotient_laws(m):
    ambient = m.shape[0]
    proj, sect = linalg.quotient(F3, ambient, m)
    assert proj.shape[0] == ambient - linalg.rank(F3, m)
    assert F3.is_zero(F3.matmul(proj, m))
    assert F3.equal(F3.matmul(proj, sect), F3.eye(proj.shape[0]))


@settings(max_examples=30, deadline=None)
@given(_matrices(F3))
def test_determinism(m):
    r1, p1 = linalg.rref(F3, m)
    r2, p2 = linalg.rref(F3, np.array(m, copy=True))
    assert p1 == p2 and F3.equal(r1, r2)


@settings(max_examples=40, deadline=None)
@given(_matrices(F3, max_dim=4), _matrices(F3, max_dim=4))
def test_solve_solves(m, b):
    if b.shape[0] != m.shape[0]:
        b = F3.zeros(m.shape[0], 1)
    x = linalg.solve(F3, m, b)
    if x is not None:
        assert F3.equal(F3.matmul(m, x), F3.normalize(b))


def test_solve_rational_fractions():
    m = QQ.asmatrix([["1/2", 1], [0, "1/3"]])
    b = QQ.asmatrix([[1], [1]])
    x = linalg.solve(QQ, m, b)
    assert x is not None
    assert F3.equal if False else QQ.equal(QQ.matmul(m, x), b)
    inv = linalg.invert(QQ, m)
    assert QQ.equal(QQ.matmul(inv, m), QQ.eye(2))


def test_largest_admitted_prime_is_int64():
    big = FieldSpec("prime", (1 << 31) - 1)
    m = big.asmatrix([[1, 2], [3, 4]])
    assert m.dtype == np.int64
    assert linalg.rank(big, m) == 2
    assert big.equal(big.matmul(m, linalg.invert(big, m)), big.eye(2))


# -- differential tests against sympy -------------------------------------

# the first prime above 2^25; int64, as every prime
BIG = FieldSpec("prime", 33554467)


def _sympy_rref(field, m):
    """(R, pivots) of m computed by sympy's DomainMatrix, entries mapped back
    into field."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return field.zeros(0, cols), []
    if field.kind == "prime":
        dom = sympy.GF(field.p)
        back = lambda v: int(v) % field.p
        conv = lambda v: dom(int(v))
    else:
        dom = sympy.QQ
        back = lambda v: Fraction(int(v.numerator), int(v.denominator))
        conv = lambda v: dom(v.numerator, v.denominator)
    dm = DomainMatrix([[conv(v) for v in row] for row in m], (rows, cols), dom)
    r, pivots = dm.rref()
    r = field.asmatrix([[back(v) for v in row] for row in r.to_list()[: len(pivots)]])
    return (r if pivots else field.zeros(0, cols)), list(pivots)


def _entries(field):
    if field.kind == "prime":
        return st.integers(0, field.p - 1)
    return st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _field_matrices(field, max_dim=5):
    entry = _entries(field)
    return st.integers(0, max_dim).flatmap(
        lambda r: st.integers(0, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r,
            ).map(lambda rows: field.asmatrix(rows) if r else field.zeros(0, c))
        )
    )


def _check_quotient_against_sympy(field, m):
    ambient = m.shape[0]
    proj, sect = linalg.quotient(field, ambient, m)
    r, pivots = _sympy_rref(field, m.T)
    free = [j for j in range(ambient) if j not in pivots]
    # the quotient basis is the non-pivot coordinates of sympy's RREF
    assert sect.shape == (ambient, len(free))
    assert [int(np.nonzero(sect[:, k] != field.zero)[0][0]) for k in range(len(free))] == free
    want = field.zeros(len(free), ambient)
    for k, j in enumerate(free):
        want[k, j] = field.one
        for i, p in enumerate(pivots):
            want[k, p] = field.scalar(-r[i, j])
    assert proj.dtype == want.dtype and field.equal(proj, want)
    assert field.equal(linalg.kernel_basis(field, m.T), want.T)
    assert field.is_zero(field.matmul(proj, m))
    assert field.equal(field.matmul(proj, sect), field.eye(len(free)))


@settings(max_examples=60, deadline=None)
@given(_field_matrices(F3))
def test_quotient_matches_sympy_gf3(m):
    _check_quotient_against_sympy(F3, m)


@settings(max_examples=40, deadline=None)
@given(_field_matrices(BIG, max_dim=4))
def test_quotient_matches_sympy_large_prime(m):
    assert m.dtype == np.int64
    _check_quotient_against_sympy(BIG, m)


@settings(max_examples=40, deadline=None)
@given(_field_matrices(QQ, max_dim=4))
def test_quotient_matches_sympy_rational(m):
    _check_quotient_against_sympy(QQ, m)


@pytest.mark.parametrize("field", [F3, BIG, QQ], ids=["F3", "bigprime", "QQ"])
def test_solve_matrix_system_zero_and_empty_blocks(field):
    from morita_lab.algebras import solve_matrix_system

    n = 4
    row = field.asmatrix([[1, 2, 0, 1]])
    row2 = field.asmatrix([[0, 0, 1, 1]])
    cases = [
        ([], field.eye(n)),
        ([field.zeros(0, n)], field.eye(n)),
        ([field.zeros(3, n), field.zeros(0, n)], field.eye(n)),
        ([field.zeros(2, n), row, field.zeros(0, n), field.zeros(1, n)],
         linalg.kernel_basis(field, row)),
        ([row, field.zeros(2, n), linalg.vstack(field, [field.zeros(1, n), row2])],
         linalg.kernel_basis(field, linalg.vstack(field, [row, row2]))),
    ]
    for blocks, want in cases:
        got = solve_matrix_system(field, blocks, n, list(range(n)))
        assert got.dtype == want.dtype and field.equal(got, want)
    # rows on a support scatter the kernel back into full coordinates
    got = solve_matrix_system(field, [field.zeros(2, 2), row[:, [1, 3]]], n, support=[1, 3])
    want = field.zeros(n, 1)
    # restricted row (2, 1): the free coordinate is x_3, and x_1 = -1/2
    want[1, 0], want[3, 0] = field.scalar(-field.inv(field.scalar(2))), field.one
    assert field.equal(got, want)
    assert solve_matrix_system(field, [field.zeros(2, 0)], 0, []).shape == (0, 0)


FIELDS = [F2, F3, BIG, QQ]
FIELD_IDS = ["F2", "F3", "bigprime", "QQ"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rref_and_rank_match_sympy(field, data):
    m = data.draw(_field_matrices(field))
    r, pivots = linalg.rref(field, m)
    want, want_pivots = _sympy_rref(field, m)
    assert pivots == want_pivots
    assert r.dtype == want.dtype and field.equal(r, want)
    assert linalg.rank(field, m) == len(want_pivots)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_solve_matches_sympy(field, data):
    m = data.draw(_field_matrices(field, max_dim=4))
    k = data.draw(st.integers(1, 2))
    rows = data.draw(st.lists(st.lists(_entries(field), min_size=k, max_size=k),
                              min_size=m.shape[0], max_size=m.shape[0]))
    b = field.asmatrix(rows) if rows else field.zeros(0, k)
    x = linalg.solve(field, m, b)
    ncols = m.shape[1]
    r, pivots = _sympy_rref(field, linalg.hstack(field, [m, b]))
    if any(p >= ncols for p in pivots):
        assert x is None
        return
    # the solution with every free variable 0, read off sympy's RREF
    want = field.zeros(ncols, b.shape[1])
    for i, p in enumerate(pivots):
        want[p, :] = r[i, ncols:]
    assert x is not None and x.dtype == want.dtype and field.equal(x, want)


def _stacks(p, max_dim=6):
    return st.integers(0, max_dim).flatmap(
        lambda d: st.integers(1, 12).flatmap(
            lambda n: st.lists(st.integers(0, p - 1), min_size=n * d * d,
                               max_size=n * d * d).map(
                lambda flat: np.array(flat, dtype=np.int64).reshape(n, d, d))))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 99991])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_invertible_mask_matches_rank(p, data):
    field = FieldSpec("prime", p)
    mats = data.draw(_stacks(p))
    if mats.shape[1] > 1 and data.draw(st.booleans()):
        mats[::2, -1] = mats[::2, 0]  # repeated rows: rank drops
    want = [linalg.rank(field, m) == m.shape[0] for m in mats]
    assert linalg.invertible_mask(field, mats).tolist() == want


@pytest.mark.parametrize("field", [F3, BIG, QQ], ids=["F3", "bigprime", "QQ"])
def test_kron_matches_numpy_kron(field):
    rng = np.random.default_rng(7)
    for shape in [(2, 3, 1, 2), (3, 1, 2, 2), (0, 2, 2, 2), (2, 2, 3, 0), (1, 1, 1, 1)]:
        ar, ac, br, bc = shape
        a = field.asmatrix(rng.integers(-9, 9, size=(ar, ac)).tolist()) if ar else field.zeros(0, ac)
        b = field.asmatrix(rng.integers(-9, 9, size=(br, bc)).tolist()) if br else field.zeros(0, bc)
        got = linalg.kron(field, a, b)
        assert got.dtype == a.dtype and got.shape == (ar * br, ac * bc)
        if a.size and b.size:
            assert field.equal(got, field.normalize(np.kron(a, b)))


@pytest.mark.parametrize("field", [FieldSpec("prime", 33554393), BIG, QQ,
                                   FieldSpec("prime", (1 << 31) - 1)],
                         ids=["int64prime", "bigprime", "QQ", "topprime"])
def test_matmul_of_stacks_multiplies_each_pair(field):
    """Stacks [n, r, k] and [n, k, c] give the product of each pair of
    matrices, in the dtype and with the entries of the exact product, also
    when the sums run in more than one chunk (k = 2049 at 2^31 - 1)."""
    rng = np.random.default_rng(3)
    for n, r, k, c in [(3, 2, 4, 2), (2, 1, 2049, 1), (2, 2, 0, 3), (0, 2, 2, 2)]:
        a = rng.integers(0, 1 << 24, size=(n, r, k)).astype(object).astype(field._dtype)
        b = rng.integers(0, 1 << 24, size=(n, k, c)).astype(object).astype(field._dtype)
        a, b = field.normalize(a), field.normalize(b)
        got = field.matmul(a, b)
        assert got.shape == (n, r, c) and got.dtype == field._dtype
        exact = np.matmul(a.astype(object), b.astype(object)) if k else np.zeros((n, r, c), int)
        if field.kind == "prime":
            exact = exact % field.p
        assert np.array_equal(got.astype(object), exact.astype(object))
    with pytest.raises(ValueError):
        field.matmul(field.zeros(2, 1, 2), field.zeros(3, 2, 1))


# -- the integer kernel of FieldSpec.matmul over Q, against Fraction products --

def _qq(values, shape):
    """An object array of the given entries (Fractions or Python ints)."""
    out = np.empty(shape, dtype=object)
    out.ravel()[:] = list(values)
    return out


def _as_fractions(a):
    """a as Fraction objects with Python-int parts, so that the reference
    product is exact also for numpy-integer entries."""
    return _qq([v if isinstance(v, Fraction) else Fraction(int(v)) for v in a.flat], a.shape)


def _canonical(a):
    return all(map(canonical_value, a.flat))


def _check_against_fraction_matmul(a, b):
    got = QQ.matmul(a, b)
    want = (np.matmul(_as_fractions(a), _as_fractions(b)) if a.shape[-1]
            else np.zeros(got.shape, dtype=object))
    assert got.dtype == object and got.shape == want.shape
    assert _canonical(got)
    assert got.tolist() == want.tolist()
    return got


KERNEL_ENTRIES = {
    "thirds and sevenths": [Fraction(1, 3), Fraction(-2, 7), 0, 1, Fraction(5, 2), -1],
    "mixed int and Fraction": [Fraction(1, 3), 2, -3, Fraction(0), Fraction(-2, 7), 1],
    "near 2^31": [(1 << 31) - 1, -(1 << 31) + 3, (1 << 31) - 5, 7],
    "numpy integers near 2^31": list(np.array([(1 << 31) - 1, -(1 << 31) + 3, 7])),
    "outside the table": [100, -250, Fraction(999), 65, -65, 3],
    "past the table's edge": [9, -8, 7, 1, 0],
}


@pytest.mark.parametrize("entries", sorted(KERNEL_ENTRIES))
def test_rational_matmul_matches_fraction_products(entries):
    rng = np.random.default_rng(11)
    values = KERNEL_ENTRIES[entries]
    for r, k, c in [(3, 4, 2), (1, 1, 1), (4, 5, 3), (2, 7, 2)]:
        a = _qq([values[i] for i in rng.integers(len(values), size=r * k)], (r, k))
        b = _qq([values[i] for i in rng.integers(len(values), size=k * c)], (k, c))
        got = _check_against_fraction_matmul(a, b)
        if "table" in entries and k > 1:
            assert max(abs(v) for v in got.flat) > 64
    if "near 2^31" in entries:
        # a sum past int64: exact, since the numerators are Python ints
        top = _qq([values[0]] * 4, (1, 4))
        assert _check_against_fraction_matmul(top, top.T.copy())[0, 0] > (1 << 63)


def test_rational_matmul_empty_shapes_and_stacks():
    rng = np.random.default_rng(5)
    values = KERNEL_ENTRIES["thirds and sevenths"]
    for ashape, bshape in [((3, 0), (0, 2)), ((0, 4), (4, 2)), ((3, 4), (4, 0)),
                           ((0, 2, 3), (0, 3, 2)), ((2, 3, 4), (2, 4, 2)),
                           ((3, 1, 1), (3, 1, 5)), ((2, 2, 0), (2, 0, 3))]:
        a = _qq(rng.choice(values, int(np.prod(ashape))), ashape)
        b = _qq(rng.choice(values, int(np.prod(bshape))), bshape)
        got = _check_against_fraction_matmul(a, b)
        assert got.shape == ashape[:-1] + bshape[-1:]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rational_matmul_matches_fraction_products_random(data):
    n, r, k, c = (data.draw(st.integers(0, 3)) for _ in range(4))
    entry = st.one_of(st.fractions(max_denominator=30), st.integers(-(1 << 40), 1 << 40))
    a = _qq(data.draw(st.lists(entry, min_size=n * r * k, max_size=n * r * k)), (n, r, k))
    b = _qq(data.draw(st.lists(entry, min_size=n * k * c, max_size=n * k * c)), (n, k, c))
    _check_against_fraction_matmul(a, b)


def test_small_integral_products_are_python_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert QQ.zero == 0 and QQ.one == 1
    prod = QQ.matmul(QQ.eye(2), QQ.eye(2))
    assert prod.tolist() == [[1, 0], [0, 1]] and _canonical(prod)
    for n in (-65, -64, 0, 63, 64, 65, 130):
        got = QQ.matmul(QQ.asmatrix([[n, 1]]), QQ.asmatrix([[1], [0]]))
        assert got.tolist() == [[n]] and type(got[0, 0]) is int
    # halves whose sums are integral read back as ints too
    half = QQ.asmatrix([["1/2", "-3/2"]])
    got = QQ.matmul(half, QQ.asmatrix([[1], [1]]))
    assert got.tolist() == [[-1]] and type(got[0, 0]) is int


def _add_at_combine(field, coeffs, stack):
    """linalg.combine as it was: the nonzero terms summed with np.add.at."""
    coeffs = np.asarray(coeffs)
    rows, ks = np.nonzero(coeffs != field.zero)
    out = field.zeros(coeffs.shape[0], *stack.shape[1:])
    terms = coeffs[rows, ks].reshape((-1,) + (1,) * (stack.ndim - 1)) * stack[ks]
    np.add.at(out, rows, terms.astype(out.dtype, copy=False))
    return field.normalize(out)


@pytest.mark.parametrize("field", [F3, FieldSpec("prime", 33554393), BIG, QQ],
                         ids=["F3", "int64prime", "bigprime", "QQ"])
def test_combine_matches_the_add_at_formula(field):
    rng = np.random.default_rng(13)
    for r, k, shape in [(4, 3, (2, 2)), (3, 5, (3,)), (2, 4, (1, 3, 2)), (0, 3, (2, 2)),
                        (3, 0, (2, 2)), (2, 3, (0, 4))]:
        size = int(np.prod(shape))
        if field.kind == "prime":
            coeffs = rng.integers(-field.p, field.p, size=(r, k)).astype(field._dtype)
            stack = field.normalize(rng.integers(0, field.p, size=(k, *shape)).astype(field._dtype))
        else:
            pool = KERNEL_ENTRIES["thirds and sevenths"]
            coeffs = _qq(rng.choice(pool, r * k), (r, k))
            stack = _qq(rng.choice(pool, k * size), (k, *shape))
        if r > 1:
            coeffs[1] = field.zero  # a zero row of coefficients
        want = _add_at_combine(field, coeffs, stack)
        for given_as in (coeffs, coeffs.tolist() if r else coeffs):
            got = linalg.combine(field, given_as, stack)
            assert got.dtype == want.dtype and got.shape == want.shape == (r, *shape)
            assert got.astype(object).tolist() == want.astype(object).tolist()
            if field.kind == "rational":
                assert _canonical(got)


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "QQ"])
def test_scalar_rejects_malformed_entries_with_value_error(field):
    for value in ("1/0", {}, None, [1]):
        with pytest.raises(ValueError):
            field.scalar(value)
    assert field.scalar("2") == field.scalar(2)


# -- rref against a numpy elimination kept as the reference ----------------

def _numpy_rref(field, m):
    """rref as a numpy elimination, kept as the reference: per pivot, one
    vectorized scaling of the pivot row and one vectorized update of every
    other row with a nonzero entry in the pivot column."""
    a = field.normalize(np.array(m, copy=True))
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(a[r:, c] != field.zero)[0]
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = field.inv(a[r, c])
        if inv != field.one:
            a[r] = field.normalize(a[r] * inv)
        rows = np.nonzero(a[:, c] != field.zero)[0]
        rows = rows[rows != r]
        if len(rows):
            factors = a[rows, c].reshape(-1, 1)
            a[rows] = field.normalize(a[rows] - factors * a[r].reshape(1, -1))
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


def _assert_same_bytes(got, want):
    """Same dtype, shape and values; over Q every entry is also a Python int
    or a non-integral Fraction, whatever the reference's entry types."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.dtype != object or _canonical(got)
    assert got.tolist() == want.tolist()


REFERENCE_FIELDS = [F2, F3, FieldSpec("prime", 33554393), BIG, QQ]
REFERENCE_IDS = ["F2", "F3", "int64prime", "bigprime", "QQ"]


def _raw_entries(field):
    """Entries as callers may pass them: over F_p also negative or >= p,
    over Q also ints and integral Fractions."""
    if field.kind == "rational":
        return st.one_of(st.just(Fraction(0)), st.integers(-5, 5),
                         st.fractions(min_value=-5, max_value=5, max_denominator=7))
    p = field.p
    return st.one_of(st.sampled_from([0, 0, 1, -1, 2, p - 1, p, p + 1, -p, 2 * p - 1]),
                     st.integers(-2 * p, 2 * p))


def _raw_matrix(data, field, rows, cols):
    values = data.draw(st.lists(_raw_entries(field), min_size=rows * cols,
                                max_size=rows * cols))
    if field._dtype is object:
        out = np.empty((rows, cols), dtype=object)
        out.ravel()[:] = values
        return out
    return np.array(values, dtype=np.int64).reshape(rows, cols)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=REFERENCE_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_matches_the_numpy_elimination(field, data):
    """rref, kernel_basis, quotient and solve give the bytes the numpy
    elimination gave (pivots, dtype, shape, entry types and values), on
    unnormalized and read-only inputs with zero rows, zero columns and empty
    shapes, and leave their input unchanged."""
    rows, cols = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    m = _raw_matrix(data, field, rows, cols)
    if rows and data.draw(st.booleans()):
        m[data.draw(st.integers(0, rows - 1))] = field.zero
    if cols and data.draw(st.booleans()):
        m[:, data.draw(st.integers(0, cols - 1))] = field.zero
    if rows > 1 and data.draw(st.booleans()):
        m[-1] = m[0]  # a repeated row: the rank drops
    k = data.draw(st.integers(1, 2))
    b = _raw_matrix(data, field, rows, k)
    if data.draw(st.booleans()):
        m.flags.writeable = b.flags.writeable = False
    before = [(x.dtype, x.tolist()) for x in (m, b)]

    got, pivots = linalg.rref(field, m)
    want, want_pivots = _numpy_rref(field, m)
    assert pivots == want_pivots
    _assert_same_bytes(got, want)
    assert linalg.rank(field, m) == len(want_pivots)
    with mock.patch.object(linalg, "rref", _numpy_rref):
        want_kernel = linalg.kernel_basis(field, m)
        want_quotient = linalg.quotient(field, rows, m)
        want_solution = linalg.solve(field, m, b)
    _assert_same_bytes(linalg.kernel_basis(field, m), want_kernel)
    for got_part, want_part in zip(linalg.quotient(field, rows, m), want_quotient):
        _assert_same_bytes(got_part, want_part)
    solution = linalg.solve(field, m, b)
    assert (solution is None) == (want_solution is None)
    if solution is not None:
        _assert_same_bytes(solution, want_solution)
    assert [(x.dtype, x.tolist()) for x in (m, b)] == before


def test_rational_rref_of_an_int64_array_keeps_its_fractions():
    """rref over Q used to build R in its input's dtype, which truncated the
    Fraction 1/3 of [[3, 1], [0, 0]] to 0 in int64."""
    r, pivots = linalg.rref(QQ, np.array([[3, 1], [0, 0]]))
    assert pivots == [0] and r.dtype == object
    assert r.tolist() == [[1, Fraction(1, 3)]] and [type(v) for v in r.flat] == [int, Fraction]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rational_elimination_reads_ints_as_their_fractions(data):
    """rref, rank, kernel_basis and solve over Q give the same values, in
    object arrays of Python ints and non-integral Fractions, whether the
    integer entries come as int lists, int64 arrays or Fraction arrays."""
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 2))
    values = data.draw(st.lists(st.integers(-6, 6), min_size=rows * (cols + k),
                                max_size=rows * (cols + k)))
    as_list = [values[i * (cols + k):(i + 1) * (cols + k)] for i in range(rows)]
    m_list, b_list = [row[:cols] for row in as_list], [row[cols:] for row in as_list]
    as_fractions = lambda x: _qq([Fraction(v) for row in x for v in row], (len(x), len(x[0])))
    forms = {"list": (m_list, b_list),
             "int64": (np.array(m_list, dtype=np.int64), np.array(b_list, dtype=np.int64)),
             "Fraction": (as_fractions(m_list), as_fractions(b_list))}
    got = {}
    for name, (m, b) in forms.items():
        r, pivots = linalg.rref(QQ, m)
        out = [r, pivots, linalg.rank(QQ, m)]
        if name != "list":
            out += [linalg.kernel_basis(QQ, m), linalg.solve(QQ, m, b)]
        for a in out:
            if isinstance(a, np.ndarray):
                assert a.dtype == object and _canonical(a)
        got[name] = [a.tolist() if isinstance(a, np.ndarray) else a for a in out]
    assert got["list"] == got["int64"][:3] == got["Fraction"][:3]
    assert got["int64"] == got["Fraction"]


# -- echelon-only rank ------------------------------------------------------

F_TOP = FieldSpec("prime", (1 << 31) - 1)
COUNT_FIELDS = [F3, QQ, F_TOP]
COUNT_IDS = ["F3", "QQ", "F2147483647"]


@pytest.mark.parametrize("field", COUNT_FIELDS, ids=COUNT_IDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_echelon_rank_counts_the_rref_pivots(field, data):
    """rank eliminates forward only; it counts the pivots that rref finds on
    raw entries, on 0 x n and n x 0 shapes, with all-zero and repeated rows
    and on products of low inner dimension, and leaves its input as it
    was."""
    rows, cols = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    if rows and cols and data.draw(st.booleans()):
        inner = data.draw(st.integers(0, min(rows, cols) - 1))
        u = field.normalize(_raw_matrix(data, field, rows, inner))
        v = field.normalize(_raw_matrix(data, field, inner, cols))
        m = field.matmul(u, v) if inner else field.zeros(rows, cols)
    else:
        m = _raw_matrix(data, field, rows, cols)
    for i in data.draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=3)) if rows else ():
        m[i] = field.zero
    if rows > 1 and data.draw(st.booleans()):
        m[-1] = m[0]
    before = (m.dtype, m.tolist())
    assert linalg.rank(field, m) == len(linalg.rref(field, m)[1])
    assert (m.dtype, m.tolist()) == before


@pytest.mark.parametrize("field", COUNT_FIELDS, ids=COUNT_IDS)
def test_echelon_rank_of_empty_and_zero_shapes(field):
    for shape in [(0, 0), (0, 4), (4, 0), (3, 5)]:
        assert linalg.rank(field, field.zeros(*shape)) == 0
    m = field.asmatrix([[0, 0, 0], [0, 2, 1], [0, 0, 0], [0, 4, 2], [1, 0, 0]])
    assert linalg.rank(field, m) == len(linalg.rref(field, m)[1]) == 2


@pytest.mark.parametrize("field", COUNT_FIELDS, ids=COUNT_IDS)
def test_invert_refuses_exactly_the_singular_matrices(field):
    """One elimination of [m | I] decides invertibility: a singular m is a
    ValueError, an invertible one gives its inverse."""
    m = field.asmatrix([[1, 2, 0], [0, 1, 1], [1, 3, 1]])
    with pytest.raises(ValueError, match="matrix is singular"):
        linalg.invert(field, m)
    with pytest.raises(ValueError, match="matrix is singular"):
        linalg.invert(field, field.zeros(2, 2))
    with pytest.raises(ValueError, match="only square"):
        linalg.invert(field, field.zeros(2, 3))
    m[2, 2] = field.scalar(2)
    inv = linalg.invert(field, m)
    assert field.equal(field.matmul(m, inv), field.eye(3))
    assert linalg.invert(field, field.zeros(0, 0)).shape == (0, 0)
