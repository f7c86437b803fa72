"""Exact scalar fields: prime fields F_p and the rationals.

Matrices are numpy 2-D arrays.  Over F_p, for every admitted prime
p <= 2^31, the dtype is int64 with entries normalized to 0..p-1: one
product (p-1)^2 is below 2^62, and FieldSpec.matmul reduces its sums mod p
after at most (2^63 - 1 - p) // (p-1)^2 products, a chunk derived from p
alone (delayed reduction, as in Dumas, Giorgi & Pernet, ACM TOMS 2008).
Over Q the dtype is object, and a normalized entry is an exact Python int
when it is integral, else a Fraction in lowest terms: never a numpy
integer and never a Fraction with denominator 1.  That is what
FieldSpec.normalize makes over Q, as it makes 0..p-1 over F_p; on an array
of ints alone it costs one type scan.  Products do not run on Fractions:
FieldSpec.matmul clears each operand's denominators, multiplies the
integer numerators as object arrays of Python ints, which cannot overflow,
and reads the result back once, as ints when the common denominator is 1.
An integral operand, an object array of Python ints, is multiplied as it
is; only an operand that holds a Fraction, or is int64, is rebuilt.
FieldSpec.matmul is the one home of array products; linalg.combine is a
matmul too.  All operations route through a FieldSpec so callers never
touch dtype details.

Zero tests, equality and memo keys run on integers too, not on Fraction
comparison or hashing.  A zero test reads truth values (a.astype(bool),
`if v:`), which every field's entries answer from an integer.  An int and
a Fraction both carry a numerator and a denominator in lowest terms, so two
rational arrays are equal exactly when their integer numerators over the
common denominator are (FieldSpec.equal), and FieldSpec.value_key keys an
array by those integers, never by Fractions.

One ownership rule: an array is normalized where it is produced, and a
read-only array in the field's dtype is normalized.  So nothing reduces a
value twice: FieldSpec.freeze makes an array read-only in place, without
normalizing it, and copies only a view of a base that is still writeable,
so that no frozen array changes underneath its holder; FieldSpec.frozen
shares a read-only array as it is and freezes a copy of anything else.
The public entry points that take arbitrary integers (linalg.rref,
FieldSpec.equal and FieldSpec.is_zero) still normalize their inputs.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_INT64_MAX = (1 << 63) - 1

_DENOMINATOR = operator.attrgetter("denominator")


def _canonical(q):
    """A rational value as a Python int when it is integral, else as it is
    (a Fraction in lowest terms)."""
    return int(q.numerator) if q.denominator == 1 else q


def _numerators(a: np.ndarray):
    """The entries of a rational (or integer) array as Python-int numerators
    over one common denominator: (flat list, denominator)."""
    flat = a.ravel().tolist()
    if set(map(type, flat)) <= {int}:
        return flat, 1
    den = math.lcm(*set(map(_DENOMINATOR, flat)))
    return [int(x.numerator) * (den // int(x.denominator)) for x in flat], den


def _integral(a: np.ndarray):
    """(n, d) with a = n / d and n an object array of Python ints: a itself,
    with d = 1, when it is one already."""
    if a.dtype == object and set(map(type, a.ravel().tolist())) <= {int}:
        return a, 1
    nums, den = _numerators(a)
    return np.array(nums, dtype=object).reshape(a.shape), den


def _rational_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over Q, computed on Python-int numerators and read back into
    normalized entries once."""
    (an, ad), (bn, bd) = _integral(a), _integral(b)
    prod = np.matmul(an, bn)
    den = ad * bd
    if den == 1:
        return prod
    out = np.empty(prod.shape, dtype=object)
    out.ravel()[:] = [_canonical(Fraction(n, den)) for n in prod.ravel().tolist()]
    return out


@functools.cache
def _products_per_reduction(p: int) -> int:
    """How many products of entries in -(p-1)..p-1 an int64 sum may take
    before it is reduced mod p: chunk * (p-1)^2 plus a reduced partial sum
    below p stays at most 2^63 - 1.  It is 2 at p = 2^31 - 1."""
    return (_INT64_MAX - p) // (p - 1) ** 2


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, which is exact below
    3 215 031 751 (Jaeschke, Math. Comp. 61, 1993), so for every n that
    FieldSpec admits: it refuses p > 2^31 before asking."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p (kind="prime") or the rationals (kind="rational")."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == "prime":
            if self.p is None or self.p > (1 << 31) or not _is_prime(self.p):
                raise ValueError(f"not a prime <= 2^31: {self.p}")
        elif self.kind == "rational":
            if self.p is not None:
                raise ValueError("rational field takes no modulus")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")
        # the array dtype, set once; not a dataclass field, so == and hash
        # still depend on (kind, p) only
        object.__setattr__(self, "_dtype", np.int64 if self.kind == "prime" else object)

    # -- scalars ------------------------------------------------------------

    zero, one = 0, 1

    def scalar(self, value):
        """Coerce an int, Fraction, or "num/den" string into this field; any
        other value, or a zero denominator, is a ValueError."""
        try:
            if self.kind == "rational":
                return _canonical(Fraction(value))
            if isinstance(value, str):
                value = int(value)
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise ValueError(f"{value} is not an element of F_{self.p}")
                value = value.numerator
            return int(value) % self.p
        except ZeroDivisionError as exc:
            raise ValueError(f"{value!r} has a zero denominator") from exc
        except TypeError as exc:
            raise ValueError(f"{value!r} is not a scalar: {exc}") from exc

    def inv(self, a):
        if self.kind == "prime":
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(int(a), self.p - 2, self.p)
        return _canonical(Fraction(a.denominator, a.numerator))

    # -- arrays -------------------------------------------------------------

    def zeros(self, *shape: int) -> np.ndarray:
        return np.zeros(shape, dtype=self._dtype)

    def eye(self, n: int) -> np.ndarray:
        a = np.zeros((n, n), dtype=self._dtype)
        a.flat[:: n + 1] = 1
        return a

    def asmatrix(self, rows) -> np.ndarray:
        """Build a matrix from nested sequences, coercing every entry."""
        rows = [list(row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged matrix")
        return self.matrix_of([[self.scalar(v) for v in row] for row in rows], ncols)

    def matrix_of(self, rows, ncols: int) -> np.ndarray:
        """The matrix whose rows are the given lists of ncols field elements
        (already coerced, as scalar returns them)."""
        a = np.empty((len(rows), ncols), dtype=self._dtype)
        if a.size:
            a[...] = rows
        return a

    def normalize(self, a: np.ndarray) -> np.ndarray:
        if self.kind == "prime":
            return a % self.p
        flat = a.ravel().tolist()
        if set(map(type, flat)) <= {int}:
            return a if a.dtype == object else a.astype(object)
        return np.array(list(map(_canonical, flat)), dtype=object).reshape(a.shape)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b; for stacks [..., r, k] and [..., k, c] with the same
        leading dimensions, the product of each pair of matrices.  Over F_p
        the entries lie in -(p-1)..p-1, and the int64 sums are reduced
        after every _products_per_reduction(p) terms."""
        if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
            raise ValueError(f"matmul shape mismatch {a.shape} x {b.shape}")
        k = a.shape[-1]
        if k == 0 or not a.size or not b.size:
            return self.zeros(*a.shape[:-1], b.shape[-1])
        if self.kind == "rational":
            return _rational_matmul(a, b)
        step = _products_per_reduction(self.p)
        if k <= step:
            return (a @ b) % self.p
        acc = np.zeros((*a.shape[:-1], b.shape[-1]), dtype=np.int64)
        for s in range(0, k, step):
            chunk = slice(s, s + step)
            acc = (acc + a[..., chunk] @ b[..., chunk, :]) % self.p
        return acc

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Entrywise equality; over Q, of the integer numerators over the
        common denominator, which lowest terms make unique."""
        if a.shape != b.shape:
            return False
        if self.kind == "rational":
            return _numerators(a) == _numerators(b)
        return bool(np.all(self.normalize(a) == self.normalize(b)))

    def is_zero(self, a: np.ndarray) -> bool:
        return not self.normalize(a).astype(bool).any()

    def value_key(self, a: np.ndarray):
        """A hashable key of a normalized array, equal exactly for arrays of
        the same shape and entries; it holds integers or bytes, never a
        Fraction: over Q the numerators and their common denominator, over
        F_p the raw int64 bytes."""
        if self.kind == "rational":
            nums, den = _numerators(a)
            return a.shape, den, tuple(nums)
        return a.shape, a.dtype.str, a.tobytes()

    def freeze(self, a: np.ndarray) -> np.ndarray:
        """a made read-only in place, and returned.  It is not normalized
        here: by the ownership rule of this module, whoever produced it did
        that.  A view of a base that is still writeable is copied first, so
        that nothing can change a frozen array."""
        base = a.base
        while base is not None:
            if not isinstance(base, np.ndarray) or base.flags.writeable:
                a = a.copy()
                break
            base = base.base
        a.flags.writeable = False
        return a

    def frozen(self, a) -> np.ndarray:
        """a itself when it is a read-only array in this field's dtype, and
        so already normalized; otherwise a frozen copy, which leaves the
        caller's array writeable."""
        if isinstance(a, np.ndarray) and not a.flags.writeable and a.dtype == self._dtype:
            return a
        return self.freeze(np.array(a, dtype=self._dtype))


F2 = FieldSpec("prime", 2)
F3 = FieldSpec("prime", 3)
QQ = FieldSpec("rational")


def field_from_token(token: str) -> FieldSpec:
    """Parse a field given as "Q" (or "q") or a prime in decimal digits;
    any other token, padded, signed or with underscores, is a ValueError."""
    if token in ("Q", "q"):
        return QQ
    if not re.fullmatch(r"[0-9]+", token):
        raise ValueError(f"field {token!r} is not Q or a prime in decimal digits")
    return FieldSpec("prime", int(token))
