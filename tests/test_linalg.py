from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morita_lab.fields import F2, F3, QQ, FieldSpec, field_from_token
from morita_lab import linalg


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


def test_large_prime_object_dtype():
    big = FieldSpec("prime", (1 << 31) - 1)
    m = big.asmatrix([[1, 2], [3, 4]])
    assert m.dtype == object
    assert linalg.rank(big, m) == 2
    assert big.equal(big.matmul(m, linalg.invert(big, m)), big.eye(2))


# -- differential tests against sympy -------------------------------------

BIG = FieldSpec("prime", 33554467)  # the first prime above 2^25: object dtype


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
            want[k, p] = field.neg(r[i, j])
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
    assert m.dtype == object
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
    want[1, 0], want[3, 0] = field.neg(field.inv(field.scalar(2))), field.one
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
