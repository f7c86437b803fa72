"""The integer paths of FieldSpec: zero tests by truth value, equality of
integer numerators over Q, value keys of integers, each checked against
elementwise Fraction comparison, and the callers that moved onto them
against the elementwise code they replace."""

import random
from fractions import Fraction

import numpy as np
import pytest

from morita_lab import algebras as alg
from morita_lab import fields
from morita_lab import lab
from morita_lab import linalg
from morita_lab.fields import F3, QQ, FieldSpec

BIG = FieldSpec("prime", 33554467)  # first prime above 2^25; int64, as every prime
FIELDS = {"F3": F3, "bigprime": BIG, "QQ": QQ}
INT64_EDGE = [(1 << 63) - 1, 1 << 63, -(1 << 63), -(1 << 63) - 1, 1 << 70]


def _rational(rng):
    """A rational entry of a random kind, zero often: an int, an integral
    Fraction, thirds, sevenths, or a value beyond int64."""
    style = rng.randrange(6)
    if style == 0:
        return rng.randint(-3, 3)  # a plain Python int
    if style == 1:
        return Fraction(rng.randint(-3, 3))
    if style == 2:
        return Fraction(rng.randint(-9, 9), 3)
    if style == 3:
        return Fraction(rng.randint(-20, 20), 7)
    if style == 4:
        return Fraction(rng.choice(INT64_EDGE), rng.choice([1, 3, 7 ** 25]))
    return 0


def _array(values, shape):
    a = np.empty(len(values), dtype=object)
    a[:] = values
    return a.reshape(shape)


def _other_form(v):
    """The same rational value, as an int where it is integral and as a
    Fraction otherwise."""
    v = Fraction(v)
    return int(v) if v.denominator == 1 else v


def _rational_pairs(rng, count=300):
    """(a, b) of equal shape: b is a rewritten copy of a, with one entry
    changed in about half the pairs."""
    for _ in range(count):
        shape = (rng.randint(0, 4), rng.randint(0, 4))
        n = shape[0] * shape[1]
        values = [_rational(rng) for _ in range(n)]
        other = [_other_form(v) if rng.random() < 0.5 else v for v in values]
        if n and rng.random() < 0.5:
            i = rng.randrange(n)
            other[i] = other[i] + rng.choice([1, Fraction(1, 3), Fraction(-1, 7), 1 << 64])
        yield _array(values, shape), _array(other, shape)


def _elementwise_equal(a, b):
    return a.shape == b.shape and all(x == y for x, y in zip(a.flat, b.flat))


def _holds_a_fraction(key):
    if isinstance(key, tuple):
        return any(_holds_a_fraction(k) for k in key)
    return isinstance(key, Fraction)


# pairs whose numerators over their own common denominators agree
SAME_NUMERATORS = [([[Fraction(1, 2)]], [[Fraction(1, 3)]]),
                   ([[Fraction(2, 3), Fraction(1, 3)]], [[Fraction(2, 7), Fraction(1, 7)]]),
                   ([[Fraction(1 << 64, 7), 0]], [[1 << 64, 0]])]


def _fixed_pairs():
    for a, b in SAME_NUMERATORS:
        yield QQ.asmatrix(a), QQ.asmatrix(b)


def test_rational_equal_matches_elementwise_comparison():
    rng = random.Random(7)
    outcomes = set()
    for a, b in [*_fixed_pairs(), *_rational_pairs(rng)]:
        want = _elementwise_equal(a, b)
        outcomes.add(want)
        assert QQ.equal(a, b) is want
        assert QQ.equal(b, a) is want
        assert QQ.equal(a, a)
    assert outcomes == {True, False}
    assert not QQ.equal(QQ.zeros(2, 3), QQ.zeros(3, 2))


def test_rational_is_zero_matches_elementwise_comparison():
    rng = random.Random(11)
    for _ in range(300):
        shape = (rng.randint(0, 4), rng.randint(0, 4))
        n = shape[0] * shape[1]
        values = [rng.choice([0, Fraction(0)]) for _ in range(n)]
        if n and rng.random() < 0.5:
            values[rng.randrange(n)] = _rational(rng)
        a = _array(values, shape)
        assert QQ.is_zero(a) is all(v == 0 for v in values)


def test_value_keys_match_elementwise_comparison():
    rng = random.Random(13)
    for a, b in [*_fixed_pairs(), *_rational_pairs(rng)]:
        ka, kb = QQ.value_key(a), QQ.value_key(b)
        hash(ka)
        assert not _holds_a_fraction(ka) and not _holds_a_fraction(kb)
        assert (ka == kb) is _elementwise_equal(a, b)
    assert QQ.value_key(QQ.zeros(2, 3)) != QQ.value_key(QQ.zeros(3, 2))
    for field in (F3, BIG):
        for _ in range(200):
            shape = (rng.randint(0, 3), rng.randint(0, 3))
            a = field.freeze(field.asmatrix(
                [[rng.randrange(field.p) for _ in range(shape[1])] for _ in range(shape[0])])
                if shape[0] else field.zeros(*shape))
            b = a.copy()
            if b.size and rng.random() < 0.5:
                b.flat[rng.randrange(b.size)] = rng.randrange(field.p)
            b = field.freeze(b)
            want = bool(np.all(a == b))
            assert field.equal(a, b) is want
            assert (field.value_key(a) == field.value_key(b)) is want
            assert not _holds_a_fraction(field.value_key(a))


def test_prime_zero_tests_normalize_first():
    assert F3.is_zero(np.array([[3, -6], [0, 9]]))
    assert not F3.is_zero(np.array([[3, 1]]))
    assert BIG.is_zero(_array([BIG.p, 0, -2 * BIG.p], (1, 3)))
    assert F3.equal(np.array([[4, -1]]), np.array([[1, 2]]))
    assert F3.is_zero(F3.zeros(0, 3)) and QQ.is_zero(QQ.zeros(2, 0))


def _random_entries(rng, field, nrows, ncols):
    if field is QQ:
        return _array([_rational(rng) if rng.random() < 0.3 else Fraction(0)
                       for _ in range(nrows * ncols)], (nrows, ncols))
    m = field.zeros(nrows, ncols)
    for idx in np.ndindex(nrows, ncols):
        if rng.random() < 0.3:
            m[idx] = rng.randrange(-field.p, 2 * field.p)
    return m


def _old_nonzero_rows(field, rows_blocks, ncols):
    stacked = field.normalize(linalg.vstack(field, [field.zeros(0, ncols), *rows_blocks]))
    return stacked[np.any(stacked != field.zero, axis=1)]


def _same_bytes(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and [repr(v) for v in a.flat] == [repr(v) for v in b.flat])


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_nonzero_rows_match_the_elementwise_reference(name):
    field, rng = FIELDS[name], random.Random(17)
    for _ in range(60):
        ncols = rng.randint(0, 5)
        # constraint rows are normalized where they are built
        blocks = [field.normalize(_random_entries(rng, field, rng.randint(0, 4), ncols))
                  for _ in range(rng.randint(0, 3))]
        got = alg._nonzero_rows(field, blocks, ncols)
        assert _same_bytes(got, _old_nonzero_rows(field, blocks, ncols))


def _old_basis_pivots(field, basis):
    flat = np.reshape(basis, (len(basis), -1))
    alone = np.count_nonzero(flat != field.zero, axis=0) == 1
    marks = (flat == field.one) & alone
    return marks.argmax(axis=1).tolist()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_basis_pivots_match_the_elementwise_reference(name):
    field, rng = FIELDS[name], random.Random(19)
    seen = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = _random_entries(rng, field, rng.randint(0, rows * cols), rows * cols)
        k = linalg.kernel_basis(field, m)
        basis = [field.freeze(k[:, i].reshape(rows, cols)) for i in range(k.shape[1])]
        seen += len(basis)
        assert alg.basis_pivots(field, basis) == (
            _old_basis_pivots(field, basis) if basis else [])
    assert seen


def _old_module_error(x):
    """Module.validate's message, located by elementwise comparison."""
    f = x.field
    n, d = x.algebra.dim, x.dim
    if not np.all(x.act_vec(x.algebra.unit) == f.eye(d)):
        return "unit does not act as the identity"
    products = alg._pairwise(f, x.action, x.action)
    expected = linalg.combine(f, x.algebra.structure_constants().reshape(n * n, n),
                              x.action).reshape(n, n, d, d)
    bad = np.flatnonzero(np.any((products != expected).reshape(n * n, -1), axis=1))
    return "structure constants violated at (%d,%d)" % divmod(bad[0], n) if len(bad) else None


def _old_morphism_error(phi):
    f = phi.field
    gens = phi.source.algebra.generator_indices()
    left = alg._left_times(f, phi.matrix, phi.source.action[gens])
    right = alg._times(f, phi.target.action[gens], phi.matrix)
    bad = np.flatnonzero(np.any((left != right).reshape(len(gens), -1), axis=1))
    return f"not an intertwiner at basis element {gens[bad[0]]}" if len(bad) else None


def _error(check):
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


def _perturbed(field, rng, a):
    a = np.array(a)
    idx = tuple(rng.randrange(s) for s in a.shape)
    a[idx] = field.normalize(np.array([a[idx] + rng.choice([1, 2]) * field.one]))[0]
    return a


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "QQ"])
def test_broken_modules_and_morphisms_keep_their_messages(field):
    """validate decides by FieldSpec.equal and locates the first bad index
    only on failure: the message is the one the elementwise code gave."""
    data = lab.catalog("examctp4", field, n=3, h=2, i=1, j=3).data
    a = data.A
    sampler, rng = lab.Sampler(5, 6, 3), random.Random(23)
    mods = [sampler.plain(a) for _ in range(6)]
    mods = [x for x in mods if x.dim]
    messages = set()
    for x in mods:
        assert x.validate() and _old_module_error(x) is None
        for _ in range(4):
            broken = alg.Module(a, x.dim, _perturbed(field, rng, x.action))
            want = _old_module_error(broken)
            assert _error(broken.validate) == want
            messages.add(want)
    for x, y in zip(mods, mods[1:]):
        for phi in alg.hom_space(x, y):
            morphism = alg.ModuleMorphism(x, y, phi)
            assert morphism.validate() and _old_morphism_error(morphism) is None
            broken = alg.ModuleMorphism(x, y, _perturbed(field, rng, phi))
            want = _old_morphism_error(broken)
            assert _error(broken.validate) == want
            messages.add(want)
    assert len(messages - {None}) >= 3, messages


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_miller_rabin_matches_trial_division():
    """Miller-Rabin to the bases 2, 3, 5 and 7 agrees with trial division on
    0..10^5, and refuses the strong pseudoprimes to the first bases."""
    sieve = np.ones(10 ** 5 + 1, dtype=bool)
    sieve[:2] = False
    for d in range(2, 317):
        sieve[d * d::d] = False
    assert [n for n in range(10 ** 5 + 1) if fields._is_prime(n)] == np.flatnonzero(sieve).tolist()
    assert all(fields._is_prime(n) == _trial_division(n) for n in range(2000))
    for n in (2047, 1373653, 25326001):  # base 2; bases 2, 3; bases 2, 3, 5
        assert not _trial_division(n) and not fields._is_prime(n)
    for p in (33554467, (1 << 31) - 1):
        assert fields._is_prime(p)
    assert not fields._is_prime(1 << 31) and not fields._is_prime(46337 * 46349)


def test_primes_above_two_to_the_31_never_reach_the_primality_test(monkeypatch):
    """3 215 031 751 is the least strong pseudoprime to 2, 3, 5 and 7, so
    Miller-Rabin calls it prime; FieldSpec refuses it by the bound first."""
    assert fields._is_prime(3215031751) and not _trial_division(3215031751)
    asked = []
    monkeypatch.setattr(fields, "_is_prime", lambda n: asked.append(n) or True)
    with pytest.raises(ValueError, match="not a prime"):
        FieldSpec("prime", 3215031751)
    assert asked == []
    FieldSpec("prime", 7)
    assert asked == [7]


OWNERSHIP_FIELDS = {"F3": F3, "QQ": QQ, "largest": FieldSpec("prime", (1 << 31) - 1)}


@pytest.mark.parametrize("name", sorted(OWNERSHIP_FIELDS))
def test_frozen_shares_read_only_arrays_and_copies_the_rest(name):
    """One ownership rule: FieldSpec.frozen returns a read-only array in the
    field's dtype itself, and freezes a copy of a writeable one, which the
    caller can still write."""
    field = OWNERSHIP_FIELDS[name]
    a = field.asmatrix([[1, 2], [0, 1]])
    mine = field.frozen(a)
    assert mine is not a and a.flags.writeable and not mine.flags.writeable
    a[0, 0] = field.zero
    assert mine[0, 0] == field.one
    assert field.frozen(mine) is mine
    assert field.frozen(mine.T).base is mine  # a read-only view is shared too
    listed = field.frozen([[field.one, field.zero]])
    assert not listed.flags.writeable and listed.dtype == field.zeros(0, 0).dtype


@pytest.mark.parametrize("name", sorted(OWNERSHIP_FIELDS))
def test_freeze_never_leaves_a_writeable_base_behind(name):
    """freeze makes an array read-only in place, and copies a view of a base
    that is still writeable, so writing the base leaves the frozen view as it
    was; a view of a read-only base is frozen as it is."""
    field = OWNERSHIP_FIELDS[name]
    owner = field.asmatrix([[1, 0], [2, 1]])
    assert field.freeze(owner) is owner and not owner.flags.writeable
    base = field.asmatrix([[1, 0, 2], [0, 1, 1]])
    view = field.freeze(base[:, 1:])
    base[...] = field.zero
    assert base.flags.writeable and not view.flags.writeable
    assert field.equal(view, field.asmatrix([[0, 2], [1, 1]]))
    shared = owner[:, :1]
    assert field.freeze(shared).base is owner


def test_dtype_is_set_once_and_stays_out_of_equality():
    import dataclasses

    big = FieldSpec("prime", (1 << 31) - 1)
    assert [f.name for f in dataclasses.fields(FieldSpec)] == ["kind", "p"]
    assert (F3._dtype, QQ._dtype, big._dtype) == (np.int64, object, np.int64)
    assert "_dtype" in vars(F3) and not isinstance(getattr(FieldSpec, "_dtype", None), property)
    twin = FieldSpec("prime", 3)
    assert twin == F3 and hash(twin) == hash(F3) and {twin: 1}[F3] == 1
    assert FieldSpec("rational") == QQ and F3 != big
    assert repr(F3) == "FieldSpec(kind='prime', p=3)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        F3.p = 5
