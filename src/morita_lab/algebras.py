"""Finite-dimensional algebras presented by basis and structure constants,
usually built from quivers with monomial relations, together with their
modules, bimodules and morphisms.

Path composition is written right to left: a path p from vertex i to vertex j
satisfies e_j * p * e_i = p, and p * q means "q first, then p".  Stored words
list arrow names in that composition order (leftmost applied last).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldSpec
from . import linalg

MAX_PATHS = 100_000
MAX_PATH_LENGTH = 512


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple  # of (name, source, target)

    def __post_init__(self):
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("arrow names must be unique")
        for name, src, tgt in self.arrows:
            if src not in self.vertices or tgt not in self.vertices:
                raise ValueError(f"arrow {name} has an endpoint outside the vertex set")

    def arrow(self, name):
        for a in self.arrows:
            if a[0] == name:
                return a
        raise KeyError(name)


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

    def product(self, i, j):
        v = self.mult.get((i, j))
        if v is None:
            return self.field.zeros(1, self.dim)[0]
        return v

    def left_mult_matrix(self, i):
        key = ("lmult", i)
        if key not in self._cache:
            m = self.field.zeros(self.dim, self.dim)
            for j in range(self.dim):
                m[:, j] = self.product(i, j)
            self._cache[key] = self.field.freeze(m)
        return self._cache[key]

    def right_mult_matrix(self, i):
        key = ("rmult", i)
        if key not in self._cache:
            m = self.field.zeros(self.dim, self.dim)
            for j in range(self.dim):
                m[:, j] = self.product(j, i)
            self._cache[key] = self.field.freeze(m)
        return self._cache[key]

    def generator_indices(self):
        """Basis indices generating the algebra multiplicatively."""
        if self.is_quiver_presented:
            idem = [self.vertex_idempotents[v] for v in self.quiver.vertices]
            return idem + [self.arrow_indices[a[0]] for a in self.quiver.arrows]
        return list(range(self.dim))

    def idempotent_system(self):
        """Coordinate vectors of a complete orthogonal idempotent system,
        or None when no distinguished system is known."""
        if "idem" in self._cache:
            return self._cache["idem"]
        system = None
        if self.is_quiver_presented:
            system = []
            for v in self.quiver.vertices:
                vec = self.field.zeros(1, self.dim)[0]
                vec[self.vertex_idempotents[v]] = self.field.one
                system.append(vec)
            system = tuple(system)
        self._cache["idem"] = system
        return system

    def set_idempotent_system(self, vectors):
        self._cache["idem"] = tuple(vectors)

    def opposite(self):
        """Same basis, structure constants transposed in the lower indices.
        Involutive: the opposite of the opposite is this very object."""
        if "op" in self._cache:
            return self._cache["op"]
        mult_op = {(j, i): v for (i, j), v in self.mult.items()}
        quiver_op = None
        idem = arrows = words = None
        if self.is_quiver_presented:
            quiver_op = Quiver(self.quiver.vertices,
                               tuple((n, t, s) for (n, s, t) in self.quiver.arrows))
            idem = dict(self.vertex_idempotents)
            arrows = dict(self.arrow_indices)
            words = tuple((tuple(reversed(w)), t, s) for (w, s, t) in self.path_words)
        op = PresentedAlgebra(self.field, self.basis_labels, mult_op, np.array(self.unit),
                              quiver=quiver_op, vertex_idempotents=idem,
                              arrow_indices=arrows, path_words=words,
                              relations=tuple(tuple(reversed(w)) for w in self.relations),
                              name=self.name + "^op")
        op._cache["op"] = self
        if self._cache.get("idem") is not None:
            op._cache["idem"] = self._cache["idem"]
        if "lambda_generators" in self._cache:
            gens = list(self._cache["lambda_generators"])
            op._cache["lambda_generators"] = gens
            op.generator_indices = lambda: list(gens)  # type: ignore[method-assign]
        self._cache["op"] = op
        return op

    def validate(self):
        """Check associativity and the unit laws; raises on failure."""
        f = self.field
        one = self.unit
        for j in range(self.dim):
            ej = f.zeros(1, self.dim)[0]
            ej[j] = f.one
            if not f.equal(self._vec_mul_vec(one, ej), ej):
                raise ValueError("unit law fails on the left")
            if not f.equal(self._vec_mul_vec(ej, one), ej):
                raise ValueError("unit law fails on the right")
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.product(i, j)
                for k in range(self.dim):
                    left = self._vec_mul_basis(ij, k)
                    jk = self.product(j, k)
                    right = self._basis_mul_vec(i, jk)
                    if not f.equal(left, right):
                        raise ValueError(f"associativity fails at ({i},{j},{k})")
        return True

    def _vec_mul_vec(self, u, v):
        out = self.field.zeros(1, self.dim)[0]
        for i in range(self.dim):
            if u[i] != self.field.zero:
                for j in range(self.dim):
                    if v[j] != self.field.zero:
                        out = out + u[i] * v[j] * self.product(i, j)
        return self.field.normalize(out)

    def _vec_mul_basis(self, u, k):
        out = self.field.zeros(1, self.dim)[0]
        for i in range(self.dim):
            if u[i] != self.field.zero:
                out = out + u[i] * self.product(i, k)
        return self.field.normalize(out)

    def _basis_mul_vec(self, i, v):
        out = self.field.zeros(1, self.dim)[0]
        for j in range(self.dim):
            if v[j] != self.field.zero:
                out = out + v[j] * self.product(i, j)
        return self.field.normalize(out)

    def __repr__(self):
        return f"PresentedAlgebra({self.name or '?'}, dim={self.dim})"


def opposite_algebra(a: PresentedAlgebra) -> PresentedAlgebra:
    return a.opposite()


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


class Module:
    """Left module over a PresentedAlgebra: dim + one action matrix per basis
    element.  Immutable after construction."""

    def __init__(self, algebra, dim, action, check=False):
        self.algebra = algebra
        self.field = algebra.field
        self.dim = dim
        self.action = tuple(self.field.freeze(np.array(a)) for a in action)
        if len(self.action) != algebra.dim:
            raise ValueError("need one action matrix per basis element")
        for a in self.action:
            if a.shape != (dim, dim):
                raise ValueError("action matrices must be dim x dim")
        self._cache = {}
        if check:
            self.validate()

    def act(self, i):
        return self.action[i]

    def content_key(self):
        """Hashable key, equal exactly for modules with the same dimension and
        action matrices.  Object-dtype entries (Q, large primes) are keyed by
        value: their raw bytes would be object pointers."""
        if "content" not in self._cache:
            self._cache["content"] = (self.dim, tuple(
                tuple(a.flat) if a.dtype == object else (a.dtype.str, a.tobytes())
                for a in self.action))
        return self._cache["content"]

    def act_vec(self, vec):
        """Action of an algebra element given by its coordinate vector."""
        out = self.field.zeros(self.dim, self.dim)
        for i in range(self.algebra.dim):
            if vec[i] != self.field.zero:
                out = out + vec[i] * self.action[i]
        return self.field.normalize(out)

    def validate(self):
        f = self.field
        if not f.equal(self.act_vec(self.algebra.unit), f.eye(self.dim)):
            raise ValueError("unit does not act as the identity")
        for i in range(self.algebra.dim):
            for j in range(self.algebra.dim):
                prod = self.act_vec(self.algebra.product(i, j))
                if not f.equal(f.matmul(self.action[i], self.action[j]), prod):
                    raise ValueError(f"structure constants violated at ({i},{j})")
        return True

    def vertex_classes(self):
        """Class index per coordinate when the distinguished idempotents act
        as 0/1 diagonal matrices summing to the identity, else None.  The
        classes cut the unknowns of the hom solver (intertwiner_system)."""
        if "classes" in self._cache:
            return self._cache["classes"]
        res = None
        system = self.algebra.idempotent_system()
        if system is not None:
            f = self.field
            classes = [-1] * self.dim
            ok = True
            for ci, vec in enumerate(system):
                m = self.act_vec(vec)
                for i in range(self.dim):
                    for j in range(self.dim):
                        v = m[i, j]
                        if i == j:
                            if v == f.one:
                                if classes[i] != -1:
                                    ok = False
                                classes[i] = ci
                            elif v != f.zero:
                                ok = False
                        elif v != f.zero:
                            ok = False
                if not ok:
                    break
            if ok and all(c >= 0 for c in classes):
                res = classes
        self._cache["classes"] = res
        return res

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra.name or '?'})"


def zero_module(algebra):
    return Module(algebra, 0, [algebra.field.zeros(0, 0)] * algebra.dim)


def free_module(algebra, n=1):
    """A^n with basis (copy, algebra-basis) ordered copy-major."""
    f = algebra.field
    acts = []
    for i in range(algebra.dim):
        acts.append(linalg.block_diag(f, [algebra.left_mult_matrix(i)] * n))
    return Module(algebra, algebra.dim * n, acts)


def simples(algebra):
    """One 1-dimensional module per vertex (quiver-presented algebras only),
    built once per algebra; each call returns a fresh list."""
    if not algebra.is_quiver_presented:
        raise ValueError("simples are only defined for quiver-presented algebras")
    if "simples" not in algebra._cache:
        f = algebra.field
        algebra._cache["simples"] = tuple(
            Module(algebra, 1, [f.asmatrix([[1 if not word and src == v else 0]])
                                for word, src, tgt in algebra.path_words])
            for v in algebra.quiver.vertices)
    return list(algebra._cache["simples"])


def indecomposable_projectives(algebra):
    """Ae_v for each vertex v: paths with source v, left multiplication."""
    if not algebra.is_quiver_presented:
        raise ValueError("projectives by shape need a quiver presentation")
    f = algebra.field
    out = []
    for v in algebra.quiver.vertices:
        idx = [i for i, (w, s, t) in enumerate(algebra.path_words) if s == v]
        acts = [algebra.left_mult_matrix(i)[np.ix_(idx, idx)] for i in range(algebra.dim)]
        out.append(Module(algebra, len(idx), acts))
    return out


def indecomposable_injectives(algebra):
    """D(e_v A): dual of the right projective at v."""
    if not algebra.is_quiver_presented:
        raise ValueError("injectives by shape need a quiver presentation")
    out = []
    for v in algebra.quiver.vertices:
        idx = [i for i, (w, s, t) in enumerate(algebra.path_words) if t == v]
        acts = [algebra.right_mult_matrix(i)[np.ix_(idx, idx)].T for i in range(algebra.dim)]
        out.append(Module(algebra, len(idx), acts))
    return out


def dual_module(x: Module) -> Module:
    """D(X) over the opposite algebra: transposed action, same dimension."""
    return Module(x.algebra.opposite(), x.dim, [a.T for a in x.action])


class Bimodule:
    """B-A-bimodule: left action of B, right action of A.  The right action
    is stored as matrices R(a) with v . a = R(a) v, so R(a1 a2) = R(a2) R(a1)."""

    def __init__(self, left_algebra, right_algebra, dim, left_action, right_action, check=False):
        if left_algebra.field != right_algebra.field:
            raise ValueError("bimodule algebras must share the field")
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.field = left_algebra.field
        self.dim = dim
        self.left_action = tuple(self.field.freeze(np.array(a)) for a in left_action)
        self.right_action = tuple(self.field.freeze(np.array(a)) for a in right_action)
        self._tensors = {}  # Module.content_key() -> TensorModule, see tensor_over
        if check:
            self.validate()

    def as_left_module(self):
        return Module(self.left_algebra, self.dim, self.left_action)

    def right_as_left_module(self):
        """The right A-structure as a left module over A^op."""
        return Module(self.right_algebra.opposite(), self.dim, self.right_action)

    def validate(self):
        self.as_left_module().validate()
        self.right_as_left_module().validate()
        f = self.field
        for l in self.left_action:
            for r in self.right_action:
                if not f.equal(f.matmul(l, r), f.matmul(r, l)):
                    raise ValueError("left and right actions do not commute")
        return True

    def __repr__(self):
        return (f"Bimodule(dim={self.dim}, {self.left_algebra.name or '?'}-"
                f"{self.right_algebra.name or '?'})")


def zero_bimodule(left_algebra, right_algebra):
    z = left_algebra.field.zeros(0, 0)
    return Bimodule(left_algebra, right_algebra, 0,
                    [z] * left_algebra.dim, [z] * right_algebra.dim)


def regular_bimodule(algebra):
    """A as an A-A-bimodule."""
    return Bimodule(algebra, algebra, algebra.dim,
                    [algebra.left_mult_matrix(i) for i in range(algebra.dim)],
                    [algebra.right_mult_matrix(i) for i in range(algebra.dim)])


def corner_bimodule(algebra, v, w):
    """Ae_v (x)_k e_w A as an A-A-bimodule; zero when e_w A e_v would matter.

    Basis: pairs (p, q) with source(p) = v, target(q) = w, ordered p-major.
    """
    f = algebra.field
    pidx = [i for i, (wd, s, t) in enumerate(algebra.path_words) if s == v]
    qidx = [i for i, (wd, s, t) in enumerate(algebra.path_words) if t == w]
    np_, nq = len(pidx), len(qidx)
    left, right = [], []
    for i in range(algebra.dim):
        lm = algebra.left_mult_matrix(i)[np.ix_(pidx, pidx)]
        left.append(linalg.kron(f, lm, f.eye(nq)))
        rm = algebra.right_mult_matrix(i)[np.ix_(qidx, qidx)]
        right.append(linalg.kron(f, f.eye(np_), rm))
    return Bimodule(algebra, algebra, np_ * nq, left, right)


class ModuleMorphism:
    def __init__(self, source: Module, target: Module, matrix, check=False):
        self.source = source
        self.target = target
        self.field = source.field
        self.matrix = self.field.freeze(np.array(matrix))
        if self.matrix.shape != (target.dim, source.dim):
            raise ValueError("morphism matrix has the wrong shape")
        if check:
            self.validate()

    @property
    def components(self):
        """The blocks of the morphism, (matrix,); a LambdaMorphism has (a, b)."""
        return (self.matrix,)

    def validate(self):
        f = self.field
        if self.source.algebra is not self.target.algebra:
            raise ValueError("morphism between modules over different algebras")
        for i in self.source.algebra.generator_indices():
            if not f.equal(f.matmul(self.matrix, self.source.act(i)),
                           f.matmul(self.target.act(i), self.matrix)):
                raise ValueError(f"not an intertwiner at basis element {i}")
        return True

    def compose(self, other):
        """self after other."""
        return ModuleMorphism(other.source, self.target,
                              self.field.matmul(self.matrix, other.matrix))

    def __repr__(self):
        return f"ModuleMorphism({self.source.dim} -> {self.target.dim})"


def identity_morphism(x):
    return ModuleMorphism(x, x, x.field.eye(x.dim))


def zero_morphism(x, y):
    return ModuleMorphism(x, y, x.field.zeros(y.dim, x.dim))


# -- the intertwiner system ----------------------------------------------

def intertwiner_system(x: Module, y: Module):
    """(support, pairs) for the intertwiners H: x -> y, H x(g) = y(g) H.

    support lists, ascending, the coordinates (r, c) of vec_rm(H) with
    class_y(r) == class_x(c); every intertwiner vanishes off it.  A module
    without vertex classes counts as one class, so then the support is every
    coordinate.  pairs holds (x(g), y(g)) per generator g; the idempotents of
    the system only restate the support, so they are dropped when both sides
    have classes.
    """
    xc, yc = x.vertex_classes(), y.vertex_classes()
    gens = x.algebra.generator_indices()
    if xc is None or yc is None:
        support = np.arange(x.dim * y.dim)
    else:
        support = np.flatnonzero(np.equal.outer(yc, xc))
        idem = {i for i, _ in enumerate_idempotent_basis(x.algebra)}
        gens = [g for g in gens if g not in idem]
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


def solve_matrix_system(field, rows_blocks, n_unknowns, support):
    """Kernel of the stacked constraint rows, whose columns are the
    coordinates support (ascending) of n_unknowns unknowns.  Returns the
    canonical kernel basis as columns in all n_unknowns coordinates."""
    stacked = field.normalize(linalg.vstack(field, [field.zeros(0, len(support)), *rows_blocks]))
    k = linalg.kernel_basis(field, stacked[np.any(stacked != field.zero, axis=1)])
    full = field.zeros(n_unknowns, k.shape[1])
    full[support, :] = k
    return full


def solve_affine_system(field, rows_blocks, n_unknowns, support, extra):
    """The solution (free variables 0) of the homogeneous constraint rows on
    support plus the affine conditions extra, a list of (coefficient matrix
    over all n_unknowns coordinates, rhs), as a column in all coordinates;
    None when there is none."""
    lhs = linalg.vstack(field, [field.zeros(0, len(support)), *rows_blocks, *(
        field.normalize(np.array(m)[:, support]) for m, _ in extra)])
    rhs = linalg.vstack(field, [field.zeros(sum(r.shape[0] for r in rows_blocks), 1), *(
        field.normalize(np.array(v).reshape(-1, 1)) for _, v in extra)])
    sol = linalg.solve(field, lhs, rhs)
    if sol is None:
        return None
    full = field.zeros(n_unknowns, 1)
    full[support, :] = sol
    return full


def hom_space(x: Module, y: Module):
    """Canonical basis of Hom_A(x, y) as a list of matrices (y.dim x x.dim)."""
    if x.algebra is not y.algebra:
        raise ValueError("hom between modules over different algebras")
    f = x.field
    support, pairs = intertwiner_system(x, y)
    if not len(support):
        return []
    rows = intertwiner_constraints(f, pairs, x.dim, y.dim, support)
    sols = solve_matrix_system(f, rows, x.dim * y.dim, support)
    return [f.freeze(sols[:, i].reshape(y.dim, x.dim)) for i in range(sols.shape[1])]


def enumerate_idempotent_basis(algebra):
    """(basis index, vector) for idempotent-system vectors that are single
    basis elements; intertwiner_system drops these generators when both
    modules have vertex classes."""
    system = algebra.idempotent_system()
    out = []
    if system is None:
        return out
    f = algebra.field
    for vec in system:
        nz = [i for i in range(algebra.dim) if vec[i] != f.zero]
        if len(nz) == 1 and vec[nz[0]] == f.one:
            out.append((nz[0], vec))
    return out


def hom_dim(x, y):
    return len(hom_space(x, y))


def solve_hom_equation(x: Module, y: Module, extra):
    """A module morphism h: x -> y subject to affine conditions, or None.

    extra is a list of (coefficient matrix on vec_rm(h), rhs column); the
    intertwining conditions are imposed on top.  Used for lifting along
    epimorphisms and finding retractions/sections.
    """
    f = x.field
    support, pairs = intertwiner_system(x, y)
    rows = intertwiner_constraints(f, pairs, x.dim, y.dim, support)
    sol = solve_affine_system(f, rows, x.dim * y.dim, support, extra)
    if sol is None:
        return None
    return ModuleMorphism(x, y, sol.reshape(y.dim, x.dim))


# -- tensor and hom functors ----------------------------------------------

class TensorModule:
    """M (x)_A X for a B-A-bimodule M and a left A-module X.

    module: the left B-module on the quotient of the plain vector-space
    tensor (pure tensors ordered m-major) by the bilinearity relations;
    surjection/section present the quotient.  Instances are shared through
    the memo of tensor_over, so surjection and section are read-only.
    """

    def __init__(self, module, surjection, section):
        self.module = module
        self.surjection = surjection
        self.section = section

    @property
    def dim(self):
        return self.module.dim


def tensor_over(m: Bimodule, x: Module) -> TensorModule:
    """M (x)_A X, memoized on m by the content of x: modules with equal
    dimension and action matrices share one TensorModule."""
    if m.right_algebra is not x.algebra:
        raise ValueError("tensor needs matching algebra on the inside")
    key = x.content_key()
    t = m._tensors.get(key)
    if t is None:
        # threads racing on one key may both compute; all keep the first entry
        t = m._tensors.setdefault(key, _tensor_presentation(m, x))
    return t


def _tensor_presentation(m: Bimodule, x: Module) -> TensorModule:
    f = m.field
    dm, dx = m.dim, x.dim
    full = dm * dx
    gens = x.algebra.generator_indices()
    rel_blocks = []
    for g in gens:
        r = linalg.kron(f, m.right_action[g], f.eye(dx)) - linalg.kron(f, f.eye(dm), x.act(g))
        rel_blocks.append(f.normalize(r))
    relations = linalg.hstack(f, rel_blocks) if rel_blocks else f.zeros(full, 0)
    proj, sect = linalg.quotient(f, full, relations)
    acts = []
    for i in range(m.left_algebra.dim):
        big = linalg.kron(f, m.left_action[i], f.eye(dx))
        acts.append(f.matmul(proj, f.matmul(big, sect)))
    return TensorModule(Module(m.left_algebra, proj.shape[0], acts),
                        f.freeze(proj), f.freeze(sect))


class HomModule:
    """Hom_A(N, X) for an A-B-bimodule N and a left A-module X, as a left
    B-module via the right action on N.  basis holds the intertwiner
    matrices; pivots give coordinate extraction for arbitrary intertwiners."""

    def __init__(self, module, basis, pivots, n, x):
        self.module = module
        self.basis = basis
        self.pivots = pivots
        self.n = n
        self.x = x

    @property
    def dim(self):
        return self.module.dim

    def coordinates(self, phi):
        """Coordinates of an intertwiner phi: N -> X in the canonical basis."""
        return pivot_coordinates(self.pivots, phi)


def basis_pivots(field, basis):
    """For each matrix in a canonical solution basis, a coordinate where it
    is 1 and all the others vanish; gives coefficient extraction."""
    pivots = []
    taken = set()
    for mat in basis:
        vec = mat.reshape(-1)
        for p in range(vec.shape[0]):
            if vec[p] == field.one and p not in taken and all(
                other.reshape(-1)[p] == field.zero for other in basis if other is not mat
            ):
                pivots.append(p)
                taken.add(p)
                break
        else:
            raise AssertionError("canonical basis lost its pivot structure")
    return pivots


def pivot_coordinates(pivots, mat):
    """Coefficients of mat in a canonical basis, read off at the basis
    pivots (see basis_pivots)."""
    vec = mat.reshape(-1)
    return np.array([vec[p] for p in pivots], dtype=object)


def hom_module(n: Bimodule, x: Module) -> HomModule:
    if n.left_algebra is not x.algebra:
        raise ValueError("hom needs matching algebra on the outside")
    f = n.field
    basis = hom_space(n.as_left_module(), x)
    h = len(basis)
    pivots = basis_pivots(f, basis)
    acts = []
    for i in range(n.right_algebra.dim):
        cols = []
        for mat in basis:
            moved = f.matmul(mat, n.right_action[i])
            cols.append(pivot_coordinates(pivots, moved))
        act = f.zeros(h, h)
        for j, col in enumerate(cols):
            for r in range(h):
                act[r, j] = col[r]
        acts.append(act)
    return HomModule(Module(n.right_algebra, h, acts), basis, pivots, n, x)


# -- kernels, cokernels, sums ----------------------------------------------

def kernel(phi: ModuleMorphism):
    """(kernel module, inclusion morphism)."""
    f = phi.field
    r, pivots = linalg.rref(f, phi.matrix)
    k, free = linalg.kernel_from_rref(f, r, pivots, phi.source.dim)
    acts = []
    for i in range(phi.source.algebra.dim):
        moved = f.matmul(phi.source.act(i), k)
        acts.append(moved[free, :] if free else f.zeros(0, 0))
    kmod = Module(phi.source.algebra, k.shape[1], acts)
    return kmod, ModuleMorphism(kmod, phi.source, k)


def cokernel(phi: ModuleMorphism):
    """(cokernel module, projection morphism)."""
    f = phi.field
    proj, sect = linalg.quotient(f, phi.target.dim, phi.matrix)
    acts = [f.matmul(proj, f.matmul(phi.target.act(i), sect))
            for i in range(phi.target.algebra.dim)]
    cmod = Module(phi.target.algebra, proj.shape[0], acts)
    return cmod, ModuleMorphism(phi.target, cmod, proj)


def direct_sum(mods):
    """(sum module, injections, projections)."""
    mods = list(mods)
    if not mods:
        raise ValueError("empty direct sum needs an algebra; use zero_module")
    alg = mods[0].algebra
    f = alg.field
    dims = [m.dim for m in mods]
    total = sum(dims)
    acts = [linalg.block_diag(f, [m.act(i) for m in mods]) for i in range(alg.dim)]
    s = Module(alg, total, acts)
    injs, projs = [], []
    ofs = 0
    for m in mods:
        inj = f.zeros(total, m.dim)
        pr = f.zeros(m.dim, total)
        for j in range(m.dim):
            inj[ofs + j, j] = f.one
            pr[j, ofs + j] = f.one
        injs.append(ModuleMorphism(m, s, inj))
        projs.append(ModuleMorphism(s, m, pr))
        ofs += m.dim
    return s, injs, projs


# -- projective covers and projectivity -------------------------------------

def radical_span(x: Module):
    """Columns spanning rad(x) = sum of arrow images (quiver-presented)."""
    alg = x.algebra
    if not alg.is_quiver_presented:
        raise ValueError("radical needs a quiver presentation")
    cols = [x.act(alg.arrow_indices[a[0]]) for a in alg.quiver.arrows
            if a[0] in alg.arrow_indices]
    if not cols:
        return x.field.zeros(x.dim, 0)
    return linalg.hstack(x.field, cols)


def projective_cover(x: Module):
    """(P, epi P -> x) with P minimal projective mapping onto x."""
    alg = x.algebra
    f = x.field
    if x.dim == 0:
        z = zero_module(alg)
        return z, ModuleMorphism(z, x, f.zeros(0, 0))
    rad = radical_span(x)
    proj_top, sect_top = linalg.quotient(f, x.dim, rad)
    projectives = indecomposable_projectives(alg)
    idem = [alg.vertex_idempotents[v] for v in alg.quiver.vertices]
    summands, generators = [], []
    for vi, v in enumerate(alg.quiver.vertices):
        # e_v-part of the top, pulled back to distinguished generators of x
        ev_top = f.matmul(f.matmul(proj_top, f.matmul(x.act(idem[vi]), sect_top)),
                          f.eye(proj_top.shape[0]))
        basis = linalg.column_space_basis(f, ev_top)
        for bcol in range(basis.shape[1]):
            gen = f.matmul(x.act(idem[vi]), f.matmul(sect_top, basis[:, bcol : bcol + 1]))
            summands.append(projectives[vi])
            generators.append((vi, gen))
    if not summands:
        raise AssertionError("nonzero module with zero top")
    p, injs, projs = direct_sum(summands)
    cols = []
    for (vi, gen), summand in zip(generators, summands):
        v = alg.quiver.vertices[vi]
        pidx = [i for i, (w, s, t) in enumerate(alg.path_words) if s == v]
        block = f.zeros(x.dim, summand.dim)
        for local, i in enumerate(pidx):
            block[:, local : local + 1] = f.matmul(x.act(i), gen)
        cols.append(block)
    epi = linalg.hstack(f, cols)
    if linalg.rank(f, epi) != x.dim:
        raise AssertionError("projective cover failed to surject")
    return p, ModuleMorphism(p, x, epi)


def is_projective_module(x: Module) -> bool:
    if x.dim == 0:
        return True
    p, _ = projective_cover(x)
    return p.dim == x.dim


def is_injective_module(x: Module) -> bool:
    return is_projective_module(dual_module(x))


def injective_envelope(x: Module):
    """(I, mono x -> I): dual of the projective cover of the dual."""
    f = x.field
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


def _invertible_combination(field, basis, dim, rng):
    """The first invertible linear combination of hom basis matrices, and
    whether the search was complete.

    Over F_p with p^h <= ISO_EXHAUSTIVE_LIMIT the search is exhaustive: the
    basis itself, then every combination in counter order, tested a chunk
    at a time.  Otherwise the basis is followed by ISO_RANDOM_TRIALS random
    combinations drawn from rng.
    """
    h = len(basis)
    if h == 0:
        return None, True  # complete search, trivially
    if field.kind == "prime" and field.p ** h <= ISO_EXHAUSTIVE_LIMIT:
        p = field.p
        stack = np.stack(basis) % p
        for coeffs in _monic_chunks(p, h):
            cands = np.tensordot(coeffs, stack, axes=1) % p
            hits = np.flatnonzero(linalg.invertible_mask(field, cands))
            if len(hits):
                return cands[hits[0]].copy(), True
        return None, True  # exhausted: definitely no iso
    for mat in basis:
        if linalg.is_invertible(field, mat):
            return mat, True
    for _ in range(ISO_RANDOM_TRIALS):
        cand = field.zeros(dim, dim)
        for mat in basis:
            c = rng.randrange(field.p) if field.kind == "prime" else rng.randrange(-5, 6)
            if c:
                cand = cand + field.scalar(c) * mat
        cand = field.normalize(cand)
        if linalg.is_invertible(field, cand):
            return cand, True
    return None, False  # inconclusive


def module_isomorphism(x: Module, y: Module, rng=None) -> IsoResult:
    """Never reports "isomorphic" falsely; "undetermined" when the random
    search gives up."""
    import random

    if rng is None:
        rng = random.Random(0)
    if x.algebra is not y.algebra:
        raise ValueError("isomorphism test needs a common algebra")
    if x.dim != y.dim:
        return IsoResult("not_isomorphic")
    if x.dim == 0:
        return IsoResult("isomorphic", x.field.zeros(0, 0))
    if x.algebra.is_quiver_presented:
        for s in simples(x.algebra):
            if hom_dim(x, s) != hom_dim(y, s) or hom_dim(s, x) != hom_dim(s, y):
                return IsoResult("not_isomorphic")
    basis = hom_space(x, y)
    mat, complete = _invertible_combination(x.field, basis, x.dim, rng)
    if mat is not None:
        return IsoResult("isomorphic", ModuleMorphism(x, y, mat))
    return IsoResult("not_isomorphic" if complete else "undetermined")
