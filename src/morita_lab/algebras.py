"""Finite-dimensional algebras presented by basis and structure constants,
usually built from quivers with monomial relations, together with their
modules, bimodules and morphisms.

Path composition is written right to left: a path p from vertex i to vertex j
satisfies e_j * p * e_i = p, and p * q means "q first, then p".  Stored words
list arrow names in that composition order (leftmost applied last);
quiver_module is the one place that turns words into products of arrow
matrices.

A module stores the action of the whole algebra basis as one frozen array of
shape (algebra.dim, dim, dim), and a bimodule stores each side the same way;
module constructions work on these stacks with array operations.  The plain
tensor M (x) X behind a TensorModule has the pure tensors as its basis, and
only TensorModule knows their order.  Coordinates in a canonical hom basis
are read by coordinates(), at the pivots found by basis_pivots().
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

from .fields import FieldSpec
from . import linalg

MAX_PATHS = 100_000
MAX_PATH_LENGTH = 512

_MISSING = object()


def memo(store, key, build):
    """store[key], calling build() to fill it only on a miss; a cached None
    counts as a hit.  The one home of every cache of derived structure."""
    value = store.get(key, _MISSING)
    if value is _MISSING:
        # threads racing on one key may both build; all keep the first entry
        value = store.setdefault(key, build())
    return value


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple  # of (name, source, target)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex names must be unique")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("arrow names must be unique")
        for name, src, tgt in self.arrows:
            if src not in self.vertices or tgt not in self.vertices:
                raise ValueError(f"arrow {name} has an endpoint outside the vertex set")


def linear_quiver(n: int) -> Quiver:
    """1 -> 2 -> ... -> n."""
    vs = tuple(str(i) for i in range(1, n + 1))
    ars = tuple((f"a{i}", str(i), str(i + 1)) for i in range(1, n))
    return Quiver(vs, ars)


def cyclic_quiver(n: int) -> Quiver:
    vs = tuple(str(i) for i in range(1, n + 1))
    ars = tuple((f"a{i}", str(i), str(i % n + 1)) for i in range(1, n + 1))
    return Quiver(vs, ars)


class PresentedAlgebra:
    """Associative unital algebra given by a basis and structure constants.

    mult[i][j] is the coordinate vector of basis_i * basis_j.  When the
    algebra comes from a quiver, the presentation metadata (vertex
    idempotents, arrows, path words) is kept so that simples, projectives and
    the vertex classes of the hom solver are available.
    """

    def __init__(self, field, basis_labels, mult, unit, quiver=None,
                 vertex_idempotents=None, arrow_indices=None, path_words=None,
                 relations=None, name=""):
        self.field = field
        self.basis_labels = tuple(basis_labels)
        self.dim = len(self.basis_labels)
        self.mult = mult  # dict (i, j) -> 1-D coordinate array, missing = 0
        self.unit = field.freeze(unit)
        self.quiver = quiver
        self.vertex_idempotents = vertex_idempotents  # dict vertex -> basis index
        self.arrow_indices = arrow_indices  # dict arrow name -> basis index
        self.path_words = path_words  # tuple of (word, source, target) per basis elt
        self.relations = tuple(tuple(w) for w in relations) if relations else ()
        self.name = name
        self._cache = {}

    # -- structure ----------------------------------------------------------

    @property
    def is_quiver_presented(self):
        return self.quiver is not None

    def structure_constants(self):
        """Frozen (dim, dim, dim) array: [i, j] is the coordinate vector of
        basis_i * basis_j."""
        def build():
            c = self.field.zeros(self.dim, self.dim, self.dim)
            for (i, j), v in self.mult.items():
                c[i, j] = v
            return self.field.freeze(c)
        return memo(self._cache, "structure", build)

    def left_mult(self):
        """Read-only stack of the left multiplications by the basis elements."""
        return self.structure_constants().transpose(0, 2, 1)

    def right_mult(self):
        """Read-only stack of the right multiplications by the basis elements."""
        return self.structure_constants().transpose(1, 2, 0)

    def generator_indices(self):
        """Basis indices generating the algebra multiplicatively: those given
        to set_generator_indices, else the vertices and arrows of the quiver,
        else the whole basis."""
        def build():
            if not self.is_quiver_presented:
                return tuple(range(self.dim))
            return tuple([self.vertex_idempotents[v] for v in self.quiver.vertices]
                         + [self.arrow_indices[a[0]] for a in self.quiver.arrows])
        return list(memo(self._cache, "generators", build))

    def set_generator_indices(self, indices):
        self._cache["generators"] = tuple(indices)

    def idempotent_system(self):
        """Coordinate vectors of a complete orthogonal idempotent system,
        or None when no distinguished system is known."""
        def build():
            if not self.is_quiver_presented:
                return None
            eye = self.field.eye(self.dim)
            return tuple(eye[self.vertex_idempotents[v]] for v in self.quiver.vertices)
        return memo(self._cache, "idem", build)

    def set_idempotent_system(self, vectors):
        self._cache["idem"] = tuple(vectors)
        self._cache.pop("idempotent basis", None)

    def opposite(self):
        """Same basis, structure constants transposed in the lower indices.
        Involutive: the opposite of the opposite is this very object."""
        return memo(self._cache, "op", self._build_opposite)

    def _build_opposite(self):
        mult_op = {(j, i): v for (i, j), v in self.mult.items()}
        quiver_op = None
        idem = arrows = words = None
        if self.is_quiver_presented:
            quiver_op = Quiver(self.quiver.vertices,
                               tuple((n, t, s) for (n, s, t) in self.quiver.arrows))
            idem = dict(self.vertex_idempotents)
            arrows = dict(self.arrow_indices)
            words = tuple((tuple(reversed(w)), t, s) for (w, s, t) in self.path_words)
        op = PresentedAlgebra(self.field, self.basis_labels, mult_op, self.unit,
                              quiver=quiver_op, vertex_idempotents=idem,
                              arrow_indices=arrows, path_words=words,
                              relations=tuple(tuple(reversed(w)) for w in self.relations),
                              name=self.name + "^op")
        op._cache["op"] = self
        for key in ("idem", "generators"):
            if self._cache.get(key) is not None:
                op._cache[key] = self._cache[key]
        return op

    def validate(self):
        """Check the unit laws and associativity on the structure constants;
        raises on failure.  The first failing basis element b_j is named
        (the left law before the right one), then the first (i,j,k) in
        lexicographic order with (b_i b_j) b_k != b_i (b_j b_k)."""
        f, n = self.field, self.dim
        c = self.structure_constants()
        unit = self.unit.reshape(1, n)
        eye = f.eye(n)
        # row j: unit * b_j and b_j * unit
        left = linalg.combine(f, unit, c)[0]
        right = linalg.combine(f, unit, c.transpose(1, 0, 2))[0]
        if not (f.equal(left, eye) and f.equal(right, eye)):
            bad_left = np.any(left != eye, axis=1)
            j = np.flatnonzero(bad_left | np.any(right != eye, axis=1))[0]
            raise ValueError("unit law fails on the %s" % ("left" if bad_left[j] else "right"))
        flat = c.reshape(n * n, n)
        # [i, j, k] is (b_i b_j) b_k, and b_i (b_j b_k), as coordinate vectors
        left_assoc = f.matmul(flat, c.reshape(n, n * n)).reshape(n, n, n, n)
        right_assoc = f.matmul(flat, c.transpose(1, 0, 2).reshape(n, n * n))
        right_assoc = right_assoc.reshape(n, n, n, n).transpose(2, 0, 1, 3)
        if not f.equal(left_assoc, right_assoc):
            bad = np.flatnonzero(np.any((left_assoc != right_assoc).reshape(n ** 3, -1), axis=1))
            raise ValueError("associativity fails at (%d,%d,%d)"
                             % np.unravel_index(bad[0], (n, n, n)))
        return True

    def __repr__(self):
        return f"PresentedAlgebra({self.name or '?'}, dim={self.dim})"


def ground_field_algebra(field, name="k"):
    mult = {(0, 0): field.freeze(field.asmatrix([[1]])[0])}
    unit = field.asmatrix([[1]])[0]
    q = Quiver(("*",), ())
    return PresentedAlgebra(field, ("1",), mult, unit, quiver=q,
                            vertex_idempotents={"*": 0}, arrow_indices={},
                            path_words=(((), "*", "*"),), name=name)


def path_algebra(quiver: Quiver, forbidden, field: FieldSpec, name="") -> PresentedAlgebra:
    """kQ modulo the monomial relations given by forbidden arrow-name words.

    A word lists arrow names in composition order (leftmost applied last);
    each must be a composable path.  Fails if the surviving path set is
    infinite (detected by the MAX_PATHS cap).
    """
    arrow_by_name = {a[0]: a for a in quiver.arrows}
    forbidden = [tuple(w) for w in forbidden]
    for w in forbidden:
        if not w:
            raise ValueError("empty relation word")
        for k, name_ in enumerate(w):
            if name_ not in arrow_by_name:
                raise ValueError(f"unknown arrow {name_!r} in relation")
            if k + 1 < len(w):
                # w = (..., later, earlier, ...): target of w[k+1] = source of w[k]
                if arrow_by_name[w[k + 1]][2] != arrow_by_name[w[k]][1]:
                    raise ValueError(f"relation word {w} is not a composable path")
    forbidden_set = set(forbidden)

    def is_admissible(word):
        for f in forbidden_set:
            n = len(f)
            if n <= len(word):
                for s in range(len(word) - n + 1):
                    if word[s : s + n] == f:
                        return False
        return True

    # breadth-first by length, vertices then arrows in declaration order
    paths = [((), v, v) for v in quiver.vertices]
    frontier = list(paths)
    length = 0
    while frontier:
        new = []
        for word, src, tgt in frontier:
            for aname, asrc, atgt in quiver.arrows:
                if asrc != tgt:
                    continue
                w2 = (aname,) + word
                if is_admissible(w2):
                    new.append((w2, src, atgt))
        paths.extend(new)
        length += 1
        if len(paths) > MAX_PATHS or length > MAX_PATH_LENGTH:
            raise ValueError("path algebra is infinite dimensional (no relation kills a cycle)")
        frontier = new

    index = {(p[0], p[1]): i for i, p in enumerate(paths)}
    labels = []
    for word, src, tgt in paths:
        labels.append(f"e_{src}" if not word else "*".join(word))
    mult = {}
    one = field.zeros(1, len(paths))[0]
    for i, (wi, si, ti) in enumerate(paths):
        for j, (wj, sj, tj) in enumerate(paths):
            if si != tj:
                continue  # not composable
            w = wi + wj
            k = index.get((w, sj))
            if k is not None and is_admissible(w):
                vec = field.zeros(1, len(paths))[0]
                vec[k] = field.one
                mult[(i, j)] = field.freeze(vec)
    vertex_idem = {}
    for v in quiver.vertices:
        vi = [i for i, p in enumerate(paths) if p[0] == () and p[1] == v][0]
        vertex_idem[v] = vi
        one[vi] = field.one
    arrow_idx = {a[0]: index[((a[0],), a[1])] for a in quiver.arrows
                 if ((a[0],), a[1]) in index}
    return PresentedAlgebra(field, labels, mult, one, quiver=quiver,
                            vertex_idempotents=vertex_idem, arrow_indices=arrow_idx,
                            path_words=tuple(paths), relations=forbidden,
                            name=name or f"k[{len(quiver.vertices)}v]")


def nakayama_relations(quiver: Quiver, h: int):
    """All composable words of length h in a quiver (the relations of kQ/J^h)."""
    words = [((a[0],), a[1], a[2]) for a in quiver.arrows]
    for _ in range(h - 1):
        words = [((b[0],) + w, s, b[2])
                 for (w, s, t) in words for b in quiver.arrows if b[1] == t]
    return [w for (w, s, t) in words]


def _frozen_stack(field, mats, count, dim):
    """The matrices as one frozen (count, dim, dim) array in the field's
    dtype; a stack of that shape and dtype goes through FieldSpec.frozen, so
    a frozen one is shared as it is."""
    if (isinstance(mats, np.ndarray) and mats.dtype == field._dtype
            and mats.shape == (count, dim, dim)):
        return field.frozen(mats)
    if len(mats) != count:
        raise ValueError("need one action matrix per basis element")
    if any(np.shape(a) != (dim, dim) for a in mats):
        raise ValueError("action matrices must be dim x dim")
    return field.freeze(_stack(field, mats, (dim, dim)))


def _stack(field, mats, shape):
    """A list of matrices of the given shape as one array in the field's
    dtype, also when the list is empty."""
    out = field.zeros(len(mats), *shape)
    if len(mats):
        out[...] = mats
    return out


def _times(field, stack, right):
    """stack[i] @ right for every i, as one stack."""
    n, r, c = stack.shape
    return field.matmul(stack.reshape(n * r, c), right).reshape(n, r, right.shape[1])


def _left_times(field, left, stack):
    """left @ stack[i] for every i, as one stack."""
    n, r, c = stack.shape
    out = field.matmul(left, stack.transpose(1, 0, 2).reshape(r, n * c))
    return out.reshape(left.shape[0], n, c).transpose(1, 0, 2)


def _pairwise(field, a, b):
    """a[i] @ b[j] at [i, j], for stacks a and b."""
    nb, r, c = b.shape
    out = _times(field, a, b.transpose(1, 0, 2).reshape(r, nb * c))
    return out.reshape(a.shape[0], a.shape[1], nb, c).transpose(0, 2, 1, 3)


def _block_diagonal(field, count, stacks):
    """Stacks of count matrices each, placed block-diagonally into one
    stack."""
    out = field.zeros(count, sum(s.shape[1] for s in stacks), sum(s.shape[2] for s in stacks))
    r = c = 0
    for s in stacks:
        out[:, r:r + s.shape[1], c:c + s.shape[2]] = s
        r, c = r + s.shape[1], c + s.shape[2]
    return out


class Module:
    """Left module over a PresentedAlgebra: dim and the action of every basis
    element, kept as one frozen array action of shape (algebra.dim, dim,
    dim); action[i] and act(i) are read-only views.  Immutable after
    construction."""

    def __init__(self, algebra, dim, action):
        self.algebra = algebra
        self.field = algebra.field
        self.dim = dim
        self.action = _frozen_stack(self.field, action, algebra.dim, dim)
        self._cache = {}

    def act(self, i):
        return self.action[i]

    def content_key(self):
        """Hashable key, equal exactly for modules with the same dimension and
        action matrices: the dimension and FieldSpec.value_key of the
        action, which holds integers or bytes (over Q the numerators over
        their common denominator), never a Fraction."""
        return memo(self._cache, "content",
                    lambda: (self.dim, self.field.value_key(self.action)))

    def act_vec(self, vec):
        """Action of an algebra element given by its coordinate vector."""
        return linalg.combine(self.field, np.reshape(vec, (1, -1)), self.action)[0]

    def validate(self):
        f = self.field
        n, d = self.algebra.dim, self.dim
        if not f.equal(self.act_vec(self.algebra.unit), f.eye(d)):
            raise ValueError("unit does not act as the identity")
        # action[i] action[j] against the action of basis_i basis_j, all pairs
        products = _pairwise(f, self.action, self.action)
        expected = linalg.combine(f, self.algebra.structure_constants().reshape(n * n, n),
                                  self.action).reshape(n, n, d, d)
        if not f.equal(products, expected):
            bad = np.flatnonzero(np.any((products != expected).reshape(n * n, -1), axis=1))
            raise ValueError("structure constants violated at (%d,%d)" % divmod(bad[0], n))
        return True

    def vertex_classes(self):
        """Class index per coordinate when the distinguished idempotents act
        as 0/1 diagonal matrices summing to the identity, else None.  The
        classes cut the unknowns of the hom solver and the tensor (see
        class_support).  Memoized on the algebra by content, so modules with
        equal content share one entry."""
        return memo(self._cache, "classes", lambda: memo(
            self.algebra._cache, ("classes", self.content_key()), self._build_vertex_classes))

    def _build_vertex_classes(self):
        system = self.algebra.idempotent_system()
        if system is None:
            return None
        f = self.field
        units = [i for i, _ in enumerate_idempotent_basis(self.algebra)]
        if len(units) == len(system):  # every idempotent is a basis element
            images = self.action[units]
        else:
            images = linalg.combine(f, np.stack(system), self.action)
        diag = np.arange(self.dim)
        ones = images[:, diag, diag] == f.one
        # one 1 on the diagonal per coordinate, and no other nonzero entry
        if np.all(ones.sum(axis=0) == 1) and np.count_nonzero(images.astype(bool)) == self.dim:
            return tuple(ones.argmax(axis=0).tolist())
        return None

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra.name or '?'})"


def zero_module(algebra):
    return Module(algebra, 0, algebra.field.zeros(algebra.dim, 0, 0))


def free_module(algebra, n=1):
    """A^n with basis (copy, algebra-basis) ordered copy-major."""
    return Module(algebra, algebra.dim * n,
                  _block_diagonal(algebra.field, algebra.dim, [algebra.left_mult()] * n))


def quiver_module(algebra, dim, vertex_action, arrow_action):
    """The module over a quiver-presented algebra on which e_v acts as
    vertex_action[v] and the arrow named a as arrow_action[a]: a path acts as
    the product of the matrices of its word, in composition order."""
    f = algebra.field
    return Module(algebra, dim, [
        functools.reduce(f.matmul, [arrow_action[a] for a in word]) if word
        else vertex_action[src]
        for word, src, _ in algebra.path_words])


def simples(algebra):
    """One 1-dimensional module per vertex (quiver-presented algebras only),
    built once per algebra; each call returns a fresh list."""
    if not algebra.is_quiver_presented:
        raise ValueError("simples are only defined for quiver-presented algebras")
    f = algebra.field
    return list(memo(algebra._cache, "simples", lambda: tuple(
        Module(algebra, 1, [f.asmatrix([[1 if not word and src == v else 0]])
                            for word, src, tgt in algebra.path_words])
        for v in algebra.quiver.vertices)))


def _vertex_paths(algebra, end):
    """For each vertex v, the basis indices of the paths whose source (end
    0) or target (end 1) is v."""
    return [[i for i, path in enumerate(algebra.path_words) if path[1 + end] == v]
            for v in algebra.quiver.vertices]


def indecomposable_projectives(algebra):
    """Ae_v for each vertex v: paths with source v, left multiplication.
    Built once per algebra; each call returns a fresh list."""
    if not algebra.is_quiver_presented:
        raise ValueError("projectives by shape need a quiver presentation")
    left = algebra.left_mult()
    return list(memo(algebra._cache, "projectives", lambda: tuple(
        Module(algebra, len(idx), left[:, idx][:, :, idx])
        for idx in _vertex_paths(algebra, 0))))


def indecomposable_injectives(algebra):
    """D(e_v A): dual of the right projective at v.  Built once per algebra;
    each call returns a fresh list."""
    if not algebra.is_quiver_presented:
        raise ValueError("injectives by shape need a quiver presentation")
    right = algebra.right_mult()
    return list(memo(algebra._cache, "injectives", lambda: tuple(
        Module(algebra, len(idx), right[:, idx][:, :, idx].transpose(0, 2, 1))
        for idx in _vertex_paths(algebra, 1))))


def dual_module(x: Module) -> Module:
    """D(X) over the opposite algebra: transposed action, same dimension."""
    return Module(x.algebra.opposite(), x.dim, x.action.transpose(0, 2, 1))


class Bimodule:
    """B-A-bimodule: left action of B, right action of A, each one frozen
    stack like Module.action.  The right action is stored as matrices R(a)
    with v . a = R(a) v, so R(a1 a2) = R(a2) R(a1)."""

    def __init__(self, left_algebra, right_algebra, dim, left_action, right_action):
        if left_algebra.field != right_algebra.field:
            raise ValueError("bimodule algebras must share the field")
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.field = left_algebra.field
        self.dim = dim
        self.left_action = _frozen_stack(self.field, left_action, left_algebra.dim, dim)
        self.right_action = _frozen_stack(self.field, right_action, right_algebra.dim, dim)
        self._cache = {}
        self._tensors = {}  # Module.content_key() -> TensorModule, see tensor_over

    def as_left_module(self):
        """The left B-structure, built once per bimodule."""
        return memo(self._cache, "left",
                    lambda: Module(self.left_algebra, self.dim, self.left_action))

    def right_as_left_module(self):
        """The right A-structure as a left module over A^op, built once per
        bimodule."""
        return memo(self._cache, "right", lambda: Module(self.right_algebra.opposite(),
                                                        self.dim, self.right_action))

    def validate(self):
        self.as_left_module().validate()
        self.right_as_left_module().validate()
        f = self.field
        lr = _pairwise(f, self.left_action, self.right_action)
        rl = _pairwise(f, self.right_action, self.left_action)
        if not f.equal(lr, rl.transpose(1, 0, 2, 3)):
            raise ValueError("left and right actions do not commute")
        return True

    def __repr__(self):
        return (f"Bimodule(dim={self.dim}, {self.left_algebra.name or '?'}-"
                f"{self.right_algebra.name or '?'})")


def zero_bimodule(left_algebra, right_algebra):
    f = left_algebra.field
    return Bimodule(left_algebra, right_algebra, 0,
                    f.zeros(left_algebra.dim, 0, 0), f.zeros(right_algebra.dim, 0, 0))


def regular_bimodule(algebra):
    """A as an A-A-bimodule."""
    return Bimodule(algebra, algebra, algebra.dim, algebra.left_mult(), algebra.right_mult())


def corner_bimodule(algebra, v, w):
    """Ae_v (x)_k e_w A as an A-A-bimodule; zero when e_w A e_v would matter.

    Basis: pairs (p, q) with source(p) = v, target(q) = w, ordered p-major.
    """
    f = algebra.field
    verts = algebra.quiver.vertices
    pidx = _vertex_paths(algebra, 0)[verts.index(v)]
    qidx = _vertex_paths(algebra, 1)[verts.index(w)]
    np_, nq = len(pidx), len(qidx)
    left = [linalg.kron(f, lm, f.eye(nq)) for lm in algebra.left_mult()[:, pidx][:, :, pidx]]
    right = [linalg.kron(f, f.eye(np_), rm) for rm in algebra.right_mult()[:, qidx][:, :, qidx]]
    return Bimodule(algebra, algebra, np_ * nq, left, right)


class ModuleMorphism:
    def __init__(self, source: Module, target: Module, matrix):
        self.source = source
        self.target = target
        self.field = source.field
        self.matrix = self.field.frozen(matrix)
        if self.matrix.shape != (target.dim, source.dim):
            raise ValueError("morphism matrix has the wrong shape")

    @property
    def components(self):
        """The blocks of the morphism, (matrix,); a LambdaMorphism has (a, b)."""
        return (self.matrix,)

    def validate(self):
        f = self.field
        if self.source.algebra is not self.target.algebra:
            raise ValueError("morphism between modules over different algebras")
        gens = self.source.algebra.generator_indices()
        left = _left_times(f, self.matrix, self.source.action[gens])
        right = _times(f, self.target.action[gens], self.matrix)
        if not f.equal(left, right):
            bad = np.flatnonzero(np.any((left != right).reshape(len(gens), -1), axis=1))
            raise ValueError(f"not an intertwiner at basis element {gens[bad[0]]}")
        return True

    def compose(self, other):
        """self after other."""
        return ModuleMorphism(other.source, self.target,
                              self.field.matmul(self.matrix, other.matrix))

    def __repr__(self):
        return f"ModuleMorphism({self.source.dim} -> {self.target.dim})"


def identity_morphism(x):
    return ModuleMorphism(x, x, x.field.eye(x.dim))


# -- the intertwiner system ----------------------------------------------

def class_support(algebra, src_classes, tgt_classes, dim_src, dim_tgt):
    """(support, gens): the one support rule of the hom solver and the tensor.

    support lists, ascending, the coordinates (r, c) of a row-major
    dim_tgt x dim_src unknown with tgt_classes[r] == src_classes[c]; gens are
    the generators of algebra whose conditions still need rows.  A side
    without vertex classes (None) counts as one class: then the support is
    every coordinate and every generator is kept.  Otherwise the idempotents
    of the system only restate the support, so they are dropped.
    """
    gens = algebra.generator_indices()
    if src_classes is None or tgt_classes is None:
        return np.arange(dim_src * dim_tgt), gens
    idem = {i for i, _ in enumerate_idempotent_basis(algebra)}
    return (np.flatnonzero(np.equal.outer(tgt_classes, src_classes)),
            [g for g in gens if g not in idem])


def intertwiner_system(x: Module, y: Module):
    """(support, pairs) for the intertwiners H: x -> y, H x(g) = y(g) H.

    Every intertwiner vanishes off the support that class_support gives for
    the coordinates (r, c) of vec_rm(H); pairs holds (x(g), y(g)) for each
    generator g it keeps.
    """
    support, gens = class_support(x.algebra, x.vertex_classes(), y.vertex_classes(),
                                  x.dim, y.dim)
    return support, [(x.act(g), y.act(g)) for g in gens]


def intertwiner_constraints(field, pairs, dim_src, dim_tgt, support):
    """Rows of H A_g = B_g H, one block per pair (A_g, B_g), over the
    coordinates support of vec_rm(H).  Row (i, j), column (r, c) holds
    [i = r] A_g[c, j] - B_g[i, r] [j = c]."""
    r, c = np.divmod(support, dim_src)
    k = np.arange(len(support))
    rows = []
    for a_g, b_g in pairs:
        blk = field.zeros(dim_tgt * dim_src, len(k)).reshape(dim_tgt, dim_src, len(k))
        blk[r, :, k] = a_g[c, :]
        blk[:, c, k] -= b_g[:, r]
        rows.append(field.normalize(blk.reshape(dim_tgt * dim_src, len(k))))
    return rows


def kernel_dim(field, rows_blocks, support):
    """dim of the kernel of the stacked constraint rows, whose columns are
    the coordinates support: len(support) - rank, with no basis built."""
    return len(support) - linalg.rank(field, _nonzero_rows(field, rows_blocks, len(support)))


def solve_matrix_system(field, rows_blocks, n_unknowns, support):
    """Kernel of the stacked constraint rows, whose columns are the
    coordinates support (ascending) of n_unknowns unknowns.  Returns the
    canonical kernel basis as columns in all n_unknowns coordinates."""
    k = linalg.kernel_basis(field, _nonzero_rows(field, rows_blocks, len(support)))
    full = field.zeros(n_unknowns, k.shape[1])
    full[support, :] = k
    return full


def _nonzero_rows(field, rows_blocks, ncols):
    """The constraint rows, normalized where they were built, stacked into
    one matrix, zero rows dropped."""
    stacked = linalg.vstack(field, [field.zeros(0, ncols), *rows_blocks])
    return stacked[stacked.astype(bool).any(axis=1)]


def hom_space(x: Module, y: Module):
    """Canonical basis of Hom_A(x, y) as a list of matrices (y.dim x x.dim).
    Memoized on the algebra by the contents of x and y, so each distinct
    pair is solved once; each call returns a fresh list of the shared
    read-only matrices."""
    if x.algebra is not y.algebra:
        raise ValueError("hom between modules over different algebras")
    return list(memo(x.algebra._cache, ("hom space", x.content_key(), y.content_key()),
                     lambda: _solve_hom_space(x, y)))


def _intertwiner_rows(x: Module, y: Module):
    """(support, rows) of Hom_A(x, y); no rows on an empty support."""
    support, pairs = intertwiner_system(x, y)
    if not len(support):
        return support, []
    return support, intertwiner_constraints(x.field, pairs, x.dim, y.dim, support)


def _solve_hom_space(x: Module, y: Module):
    f = x.field
    support, rows = _intertwiner_rows(x, y)
    if not len(support):
        return ()
    sols = solve_matrix_system(f, rows, x.dim * y.dim, support)
    return tuple(f.freeze(sols[:, i].reshape(y.dim, x.dim)) for i in range(sols.shape[1]))


def enumerate_idempotent_basis(algebra):
    """(basis index, vector) for idempotent-system vectors that are single
    basis elements; class_support drops these generators when both sides
    have vertex classes.  Memoized on the algebra until its idempotent
    system is set again; each call returns a fresh list."""
    def build():
        system = algebra.idempotent_system()
        if system is None:
            return ()
        f = algebra.field
        out = []
        for vec in system:
            nz = [i for i in range(algebra.dim) if vec[i]]
            if len(nz) == 1 and vec[nz[0]] == f.one:
                out.append((nz[0], vec))
        return tuple(out)
    return list(memo(algebra._cache, "idempotent basis", build))


def hom_dim(x: Module, y: Module) -> int:
    """dim Hom_A(x, y), counted as |support| - rank of the intertwiner rows
    that hom_space solves, without a basis.  Memoized on the algebra by the
    contents of x and y, apart from the hom_space entry."""
    if x.algebra is not y.algebra:
        raise ValueError("hom between modules over different algebras")

    def count():
        support, rows = _intertwiner_rows(x, y)
        return kernel_dim(x.field, rows, support)
    return memo(x.algebra._cache, ("hom dim", x.content_key(), y.content_key()), count)


# -- homs out of sums of indecomposable projectives ---------------------------

def projective_hom_dim(vertices, x: Module):
    """dim Hom_A(P, x) for P the sum of the P_v = Ae_v with v in vertices
    (indices into quiver.vertices), without a solve: Hom_A(Ae_v, x) = e_v x
    (Yoneda), so it is the sum of the dim e_v x.  dim e_v x is the size of
    v's vertex class when x has vertex classes and the idempotent system is
    the vertex idempotents in quiver order, else the rank of x(e_v)."""
    alg = x.algebra
    idem = [alg.vertex_idempotents[v] for v in alg.quiver.vertices]
    classes = x.vertex_classes()
    if (classes is not None and len(alg.idempotent_system()) == len(idem)
            and [i for i, _ in enumerate_idempotent_basis(alg)] == idem):
        dims = np.bincount(np.asarray(classes, dtype=int), minlength=len(idem)).tolist()
    else:
        dims = [linalg.rank(x.field, x.act(i)) for i in idem]
    return sum(dims[v] for v in vertices)


def projective_hom_space(algebra, src, tgt):
    """Canonical basis of Hom_A(P_src, P_tgt), where P_src and P_tgt are the
    direct sums of the indecomposable projectives P_v, v in src and in tgt
    (indices into quiver.vertices, in summand order): equal to hom_space of
    the two direct_sum modules, byte for byte.

    The intertwiner system between block-diagonal actions splits into one
    independent column group per block (i, j), and its RREF is unique, so
    each canonical basis element is a canonical basis element of
    Hom(P_src[j], P_tgt[i]) put in its block.  It is 1 at its free
    coordinate, its last nonzero entry in row-major order, and the basis
    lists the elements by free coordinate.  The blocks come from a table of
    hom_space(P_u, P_v) with one entry per (algebra, u, v)."""
    f = algebra.field
    projs = indecomposable_projectives(algebra)
    rows = np.cumsum([0, *(projs[v].dim for v in tgt)])
    cols = np.cumsum([0, *(projs[u].dim for u in src)])
    placed = []
    for i, v in enumerate(tgt):
        for j, u in enumerate(src):
            for b, (r, c) in _projective_homs(algebra, u, v):
                placed.append(((rows[i] + r) * cols[-1] + cols[j] + c, i, j, b))
    out = []
    for _, i, j, b in sorted(placed, key=lambda entry: entry[0]):
        m = f.zeros(rows[-1], cols[-1])
        m[rows[i]:rows[i + 1], cols[j]:cols[j + 1]] = b
        out.append(f.freeze(m))
    return out


def _projective_homs(algebra, u, v):
    """The table entry (u, v): hom_space(P_u, P_v), each basis element with
    the (row, column) of its free coordinate."""
    def build():
        projs = indecomposable_projectives(algebra)
        return tuple((b, divmod(int(np.flatnonzero(b.astype(bool))[-1]), b.shape[1]))
                     for b in hom_space(projs[u], projs[v]))
    return memo(algebra._cache, ("projective hom", u, v), build)


# -- tensor and hom functors ----------------------------------------------

class TensorModule:
    """M (x)_A X for a B-A-bimodule M and a left A-module X.

    module: the left B-module on the quotient of the plain vector-space
    tensor by the bilinearity relations; surjection/section present the
    quotient.  Both vanish off the vertex-class support (see
    _tensor_presentation): the section is the unit columns at the free
    coordinates there, and the surjection is zero at every pure tensor whose
    classes disagree.  The plain tensor has the pure tensors m_i (x) x_j as its
    basis, i < outer = dim M and j < inner = dim X, and only this class knows
    their order: pure_values reads a map out of the tensor on the pure
    tensors, descend builds one from such values, and pure_surjection and
    pure_section are the two presenting matrices indexed by (i, j).  kept
    lists the free pure tensors, ascending indices i * inner + j, one per
    quotient coordinate: the section is the unit columns there, and the
    surjection is the identity on them.  Instances are shared through the
    memo of tensor_over, so surjection, section and kept are read-only.
    """

    def __init__(self, module, surjection, section, outer, inner, kept):
        self.module = module
        self.surjection = surjection
        self.section = section
        self.outer = outer
        self.inner = inner
        self.kept = kept

    @property
    def dim(self):
        return self.module.dim

    @property
    def pure_surjection(self):
        """The class of m_i (x) x_j at [:, i, j]."""
        return self.surjection.reshape(self.dim, self.outer, self.inner)

    @property
    def pure_section(self):
        """The coefficient of m_i (x) x_j in the lift of basis vector s at
        [i, j, s]."""
        return self.section.reshape(self.outer, self.inner, self.dim)

    def pure_values(self, fmap):
        """fmap(m_i (x) x_j) at [:, i, j], for a map fmap out of the tensor
        given on its quotient coordinates."""
        f = self.module.field
        return f.matmul(fmap, self.surjection).reshape(fmap.shape[0], self.outer, self.inner)

    def descend(self, values):
        """The map out of the tensor, on its quotient coordinates, whose value
        at m_i (x) x_j is values[:, i, j]; the values must vanish on the
        bilinearity relations."""
        f = self.module.field
        rows = values.shape[0]
        return f.matmul(values.reshape(rows, self.outer * self.inner), self.section)


def tensor_over(m: Bimodule, x: Module) -> TensorModule:
    """M (x)_A X, memoized on m by the content of x: modules with equal
    dimension and action matrices share one TensorModule."""
    if m.right_algebra is not x.algebra:
        raise ValueError("tensor needs matching algebra on the inside")
    return memo(m._tensors, x.content_key(), lambda: _tensor_presentation(m, x))


def _tensor_presentation(m: Bimodule, x: Module) -> TensorModule:
    """M (x)_A X as the quotient of the plain tensor by the relations
    m a (x) x - m (x) a x, built on the vertex-class support.

    A pure tensor m_u (x) x_j whose classes differ, class_M(u) = c !=
    class_X(j), is itself the relation for a = e_c, so it is its own pivot
    row in the RREF of the relations, and every other pivot and every free
    coordinate lies on the support of class_support.  There the relation of
    generator g at (a, b) is row (a, b) of the intertwiner rows of
    (X(g), R_M(g)^T), column (u, j) holding [u = a] X(g)[j, b] -
    R_M(g)[u, a] [j = b] (the relation negated).  One RREF of these rows
    gives the projection on the support and the free coordinates, the same
    ones that the relations on all dim M * dim X coordinates give."""
    f = m.field
    dm, dx = m.dim, x.dim
    support, gens = class_support(x.algebra, x.vertex_classes(),
                                  m.right_as_left_module().vertex_classes(), dx, dm)
    rows = intertwiner_constraints(f, [(x.act(g), m.right_action[g].T) for g in gens],
                                   dx, dm, support)
    r, pivots = linalg.rref(f, _nonzero_rows(f, rows, len(support)))
    k, free = linalg.kernel_from_rref(f, r, pivots, len(support))
    kept = _indices(support[free])
    proj = f.zeros(len(free), dm * dx)
    proj[:, support] = k.T
    sect = f.zeros(dm * dx, len(free))
    sect[kept, np.arange(len(free))] = f.one
    # act(i) = proj (L_i (x) 1) sect: column s, the free pure tensor
    # m_u (x) x_j, goes to the class of (L_i m_u) (x) x_j
    u, j = np.divmod(kept, dx)
    acts = f.matmul(proj.reshape(len(free), dm, dx)[:, :, j].transpose(2, 0, 1),
                         m.left_action[:, :, u].transpose(2, 1, 0))
    return TensorModule(Module(m.left_algebra, len(free), acts.transpose(2, 1, 0)),
                        f.freeze(proj), f.freeze(sect), dm, dx, kept)


def tensor_of_sum(m: Bimodule, s: Module, parts):
    """(M (x)_A S, positions) for a direct sum S = X_1 (+) ... (+) X_n with
    the summands' tensors parts = [tensor_over(m, X_k)], assembled from
    them with no elimination and no product; memoized with tensor_over, so a
    later tensor_over(m, S) returns it.  positions[k] holds, in order, the
    indices of X_k's free pure tensors among the sum's (see _sum_positions).

    The relations of a sum split over the summands' column blocks, so the
    summands' RREFs, placed there and sorted by pivot, are the RREF of the
    sum's relations, and that RREF is unique.  Hence the sum's free pure
    tensors are the summands' own, moved to i * dim S + offset_k + j; its
    projection rows are theirs placed there, and each of its actions is
    theirs placed on the positions: byte for byte what _tensor_presentation
    would build."""
    if m.right_algebra is not s.algebra:
        raise ValueError("tensor needs matching algebra on the inside")
    kept, positions = _sum_positions(parts)
    return memo(m._tensors, s.content_key(),
                lambda: _placed_tensor(m, s, parts, kept, positions)), positions


def _sum_positions(parts):
    """(kept, positions): the free pure tensors of the tensor of a sum with
    the summand tensors parts, ascending, and for each summand the indices
    among them of its own free pure tensors m_i (x) x_j, moved to
    i * dim S + offset + j.  On Python ints: the index lists are short."""
    inner = sum(t.inner for t in parts)
    moved, offset = [], 0
    for t in parts:
        # an empty summand has no free pure tensors, so nothing divides by 0
        moved.append([u * inner + offset + j
                      for u, j in (divmod(c, t.inner) for c in t.kept.tolist())])
        offset += t.inner
    kept = sorted(c for part in moved for c in part)
    at = {c: i for i, c in enumerate(kept)}
    return _indices(kept), [_indices([at[c] for c in part]) for part in moved]


def _indices(values):
    """A read-only index array of the given ints."""
    out = np.array(values, dtype=np.intp)
    out.flags.writeable = False
    return out


def _placed_tensor(m, s, parts, kept, positions):
    f = m.field
    dm, dx, n = m.dim, s.dim, len(kept)
    proj = f.zeros(n, dm * dx)
    acts = f.zeros(m.left_algebra.dim, n, n)
    rows, offset = proj.reshape(n, dm, dx), 0
    for t, pos in zip(parts, positions):
        rows[pos, :, offset:offset + t.inner] = t.pure_surjection
        acts[:, pos[:, None], pos] = t.module.action
        offset += t.inner
    sect = f.zeros(dm * dx, n)
    sect[kept, np.arange(n)] = f.one
    return TensorModule(Module(m.left_algebra, n, f.freeze(acts)),
                        f.freeze(proj), f.freeze(sect), dm, dx, kept)


class HomModule:
    """Hom_A(N, X) for an A-B-bimodule N and a left A-module X, as a left
    B-module via the right action on N.  basis holds the intertwiner
    matrices as one read-only stack; pivots give coordinate extraction for
    arbitrary intertwiners (see coordinates).  Instances are shared through
    the memo of hom_module, so they carry no caller's module."""

    def __init__(self, module, basis, pivots):
        self.module = module
        self.basis = basis
        self.pivots = pivots

    @property
    def dim(self):
        return self.module.dim


def basis_pivots(field, basis):
    """For each matrix of a canonical solution basis, the first coordinate
    where it is 1 and all the others vanish; the coordinates of a matrix in
    the span are its entries there (see coordinates)."""
    if not len(basis):
        return []
    flat = np.reshape(basis, (len(basis), -1))
    alone = np.count_nonzero(flat.astype(bool), axis=0) == 1
    marks = (flat == field.one) & alone
    if not marks.any(axis=1).all():
        raise AssertionError("canonical basis lost its pivot structure")
    return marks.argmax(axis=1).tolist()


def coordinates(field, pivots, mats):
    """The coordinates of each of mats, one column per matrix, in the
    canonical basis with the given pivots, as a matrix in the field's
    dtype."""
    out = field.zeros(len(pivots), len(mats))
    if len(mats) and len(pivots):
        out[...] = np.reshape(mats, (len(mats), -1))[:, pivots].T
    return out


def hom_module(n: Bimodule, x: Module) -> HomModule:
    """Hom_A(N, X), memoized on n by the content of x like tensor_over."""
    if n.left_algebra is not x.algebra:
        raise ValueError("hom needs matching algebra on the outside")
    return memo(n._cache, ("hom", x.content_key()), lambda: _hom_presentation(n, x))


def _hom_presentation(n: Bimodule, x: Module) -> HomModule:
    f = n.field
    basis = f.freeze(_stack(f, hom_space(n.as_left_module(), x), (x.dim, n.dim)))
    pivots = tuple(basis_pivots(f, basis))
    h, nr = len(basis), n.right_algebra.dim
    # column j of act(i) holds the coordinates of basis[j] n(i)
    moved = _pairwise(f, basis, n.right_action).transpose(1, 0, 2, 3)
    coords = coordinates(f, pivots, moved.reshape(nr * h, x.dim, n.dim))
    acts = coords.reshape(h, nr, h).transpose(1, 0, 2)
    return HomModule(Module(n.right_algebra, h, acts), basis, pivots)


# -- kernels, cokernels, sums ----------------------------------------------

def kernel(phi: ModuleMorphism):
    """(kernel module, inclusion morphism)."""
    f = phi.field
    r, pivots = linalg.rref(f, phi.matrix)
    k, free = linalg.kernel_from_rref(f, r, pivots, phi.source.dim)
    kmod = Module(phi.source.algebra, k.shape[1], _times(f, phi.source.action, k)[:, free, :])
    return kmod, ModuleMorphism(kmod, phi.source, k)


def cokernel(phi: ModuleMorphism):
    """(cokernel module, projection morphism)."""
    f = phi.field
    proj, sect = linalg.quotient(f, phi.target.dim, phi.matrix)
    acts = _left_times(f, proj, _times(f, phi.target.action, sect))
    cmod = Module(phi.target.algebra, proj.shape[0], acts)
    return cmod, ModuleMorphism(phi.target, cmod, proj)


def projective_sum(algebra, vertices):
    """The direct sum of the P_v = Ae_v for v in vertices (indices into
    quiver.vertices, in summand order), memoized on the algebra by the
    vertex tuple; modules are immutable, so callers share it."""
    vertices = tuple(vertices)
    return memo(algebra._cache, ("projective sum", vertices), lambda: direct_sum(
        [indecomposable_projectives(algebra)[v] for v in vertices])[0])


def direct_sum(mods):
    """(sum module, injections, projections), all over one algebra object.

    The action is frozen once, and the injections and projections are views
    of one frozen identity, so the constructors share them.  When every
    summand's vertex classes are memoized, the sum carries them: their
    concatenation, or None if any is None, which is what
    _build_vertex_classes reads off the block-diagonal idempotent images."""
    mods = list(mods)
    if not mods:
        raise ValueError("empty direct sum needs an algebra; use zero_module")
    algebra = mods[0].algebra
    if any(m.algebra is not algebra for m in mods):
        raise ValueError("direct sum of modules over different algebras")
    f = algebra.field
    s = Module(algebra, sum(m.dim for m in mods),
               f.freeze(_block_diagonal(f, algebra.dim, [m.action for m in mods])))
    known = [m._cache.get("classes", _MISSING) for m in mods]
    if _MISSING not in known:
        memo(s._cache, "classes", lambda: None if None in known else tuple(
            c for classes in known for c in classes))
    eye = f.freeze(f.eye(s.dim))
    ofs = list(itertools.accumulate((m.dim for m in mods), initial=0))
    injs = [ModuleMorphism(m, s, eye[:, lo:hi]) for m, lo, hi in zip(mods, ofs, ofs[1:])]
    projs = [ModuleMorphism(s, m, eye[lo:hi, :]) for m, lo, hi in zip(mods, ofs, ofs[1:])]
    return s, injs, projs


# -- projective covers and projectivity -------------------------------------

def _arrow_actions(x: Module):
    """The stack of the arrow actions on x (quiver-presented)."""
    alg = x.algebra
    if not alg.is_quiver_presented:
        raise ValueError("radical needs a quiver presentation")
    return x.action[[alg.arrow_indices[a[0]] for a in alg.quiver.arrows
                     if a[0] in alg.arrow_indices]]


def radical_span(x: Module):
    """Columns spanning rad(x) = sum of arrow images (quiver-presented)."""
    arrows = _arrow_actions(x)
    return arrows.transpose(1, 0, 2).reshape(x.dim, len(arrows) * x.dim)


def projective_cover(x: Module):
    """(P, epi P -> x) with P minimal projective mapping onto x.  P and the
    epi matrix are memoized on the algebra by the content of x, so modules
    with equal content share P; the epi always targets x itself."""
    p, epi, _ = _cover_entry(x)
    return p, ModuleMorphism(p, x, epi)


def cover_vertices(x: Module):
    """The vertex index (into quiver.vertices) of each indecomposable
    summand P_v = Ae_v of projective_cover(x)'s P, in summand order; read
    from the same memo entry as the cover."""
    return _cover_entry(x)[2]


def _cover_entry(x: Module):
    return memo(x.algebra._cache, ("cover", x.content_key()), lambda: _cover(x))


def _cover(x: Module):
    """(P, frozen epi matrix, summand vertex indices) of the projective cover
    of x."""
    alg = x.algebra
    f = x.field
    if x.dim == 0:
        return zero_module(alg), f.freeze(f.zeros(0, 0)), ()
    proj_top, sect_top = linalg.quotient(f, x.dim, radical_span(x))
    vertices, blocks = [], []
    for i, (v, paths) in enumerate(zip(alg.quiver.vertices, _vertex_paths(alg, 0))):
        # e_v-part of the top, pulled back to distinguished generators of x
        e_v = x.act(alg.vertex_idempotents[v])
        basis = linalg.column_space_basis(f, f.matmul(proj_top, f.matmul(e_v, sect_top)))
        gens = f.matmul(e_v, f.matmul(sect_top, basis))
        # the copy of P_v for generator c sends its path k to path_k . gen_c
        images = _times(f, x.action[paths], gens)
        for c in range(gens.shape[1]):
            vertices.append(i)
            blocks.append(images[:, :, c].T)
    if not vertices:
        raise AssertionError("nonzero module with zero top")
    p = projective_sum(alg, vertices)
    epi = f.freeze(linalg.hstack(f, blocks))
    if linalg.rank(f, epi) != x.dim:
        raise AssertionError("projective cover failed to surject")
    return p, epi, tuple(vertices)


def is_projective_module(x: Module) -> bool:
    if x.dim == 0:
        return True
    p, _ = projective_cover(x)
    return p.dim == x.dim


def is_injective_module(x: Module) -> bool:
    return is_projective_module(dual_module(x))


def injective_envelope(x: Module):
    """(I, mono x -> I): dual of the projective cover of the dual."""
    dx = dual_module(x)
    p, epi = projective_cover(dx)
    i = dual_module(p)
    return i, ModuleMorphism(x, i, epi.matrix.T)


# -- isomorphism testing ----------------------------------------------------

ISO_EXHAUSTIVE_LIMIT = 100_000
ISO_RANDOM_TRIALS = 64


@dataclass
class IsoResult:
    status: str  # "isomorphic" | "not_isomorphic" | "undetermined"
    witness: object = None

    def __bool__(self):
        return self.status == "isomorphic"


def _monic_chunks(p, h):
    """Coefficient rows to try, in search order, a chunk at a time.

    The first chunk is the basis itself.  Then come the coefficient vectors
    whose highest nonzero digit is 1, in counter order (digit i is the
    coefficient of basis[i]); scaling by the inverse of the top digit maps
    every other nonzero vector to an earlier monic one with the same rank,
    so the first invertible combination in counter order is among these.
    Chunks grow from 64 rows to 4096, so an early hit stays cheap.
    """
    yield np.eye(h, dtype=np.int64)
    place = p ** np.arange(h, dtype=np.int64)
    size = 64
    for k in range(1, h):
        # top digit 1 at position k: counter values p^k + m for 0 < m < p^k
        for start in range(1, p ** k, size):
            m = np.arange(start, min(start + size, p ** k), dtype=np.int64)
            digits = m[:, None] // place[None, :] % p
            digits[:, k] = 1
            yield digits
            size = min(2 * size, 4096)


def _invertible_combination(field, basis):
    """The first invertible linear combination of hom basis matrices, and
    whether the search was complete.

    Over F_p with p^h <= ISO_EXHAUSTIVE_LIMIT the search is exhaustive: the
    basis itself, then every combination in counter order, tested a chunk
    at a time.  Otherwise the basis is followed by ISO_RANDOM_TRIALS random
    combinations drawn from random.Random(0), so every call draws the same.
    """
    h = len(basis)
    if h == 0:
        return None, True  # complete search, trivially
    if field.kind == "prime" and field.p ** h <= ISO_EXHAUSTIVE_LIMIT:
        p = field.p
        stack = np.stack(basis)
        for coeffs in _monic_chunks(p, h):
            cands = linalg.combine(field, coeffs, stack)
            hits = np.flatnonzero(linalg.invertible_mask(field, cands))
            if len(hits):
                return cands[hits[0]].copy(), True
        return None, True  # exhausted: definitely no iso
    for mat in basis:
        if linalg.is_invertible(field, mat):
            return mat, True
    rng = random.Random(0)
    stack = np.stack(basis)
    for _ in range(ISO_RANDOM_TRIALS):
        coeffs = [field.scalar(rng.randrange(field.p) if field.kind == "prime"
                               else rng.randrange(-5, 6)) for _ in basis]
        cand = linalg.combine(field, [coeffs], stack)[0]
        if linalg.is_invertible(field, cand):
            return cand, True
    return None, False  # inconclusive


def simple_multiplicities(x: Module):
    """(dim Hom(x, S_v), dim Hom(S_v, x)) for each vertex v, read off ranks:
    the multiplicity of S_v in the top of x is rank E_v - rank(E_v rad x),
    and in its socle dim x - rank [E_v - 1; arrow actions], with E_v the
    action of e_v (Assem, Simson & Skowronski, Elements I, ch. III).
    Memoized on the algebra by content, like vertex_classes."""
    return memo(x._cache, "simple_multiplicities", lambda: memo(
        x.algebra._cache, ("simple_multiplicities", x.content_key()),
        lambda: _simple_multiplicities(x)))


def _simple_multiplicities(x: Module):
    f = x.field
    rad = radical_span(x)
    arrows = _arrow_actions(x)
    arrows = arrows.reshape(len(arrows) * x.dim, x.dim)
    out = []
    for v in x.algebra.quiver.vertices:
        e_v = x.act(x.algebra.vertex_idempotents[v])
        top = linalg.rank(f, e_v) - linalg.rank(f, f.matmul(e_v, rad))
        fixed = linalg.vstack(f, [f.normalize(e_v - f.eye(x.dim)), arrows])
        out.append((top, x.dim - linalg.rank(f, fixed)))
    return tuple(out)


def module_isomorphism(x: Module, y: Module) -> IsoResult:
    """Never reports "isomorphic" falsely; "undetermined" when the random
    search gives up.  Modules with equal content keys have the same action
    matrices over the same algebra, so they are isomorphic by the identity,
    with no hom space solved and no search; the zero modules are among them."""
    if x.algebra is not y.algebra:
        raise ValueError("isomorphism test needs a common algebra")
    if x.dim != y.dim:
        return IsoResult("not_isomorphic")
    if x.content_key() == y.content_key():
        return IsoResult("isomorphic", ModuleMorphism(x, y, x.field.eye(x.dim)))
    if x.algebra.is_quiver_presented and simple_multiplicities(x) != simple_multiplicities(y):
        return IsoResult("not_isomorphic")
    basis = hom_space(x, y)
    mat, complete = _invertible_combination(x.field, basis)
    if mat is not None:
        return IsoResult("isomorphic", ModuleMorphism(x, y, mat))
    return IsoResult("not_isomorphic" if complete else "undetermined")
