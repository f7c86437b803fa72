"""Morita rings Lambda = (A N; M B) with zero bimodule pairings, their
modules as quadruples (X, Y, f, g), the twelve functors, and the passage
between the quadruple picture and plain modules over the materialized
algebra.

Conventions: M is a B-A-bimodule, N an A-B-bimodule.  A quadruple carries
f in Hom_B(M (x)_A X, Y) and g in Hom_A(N (x)_B Y, X) with the zero-pairing
compatibility f(1(x)g) = 0 = g(1(x)f).  The adjoint transposes live in
f~ : X -> Hom_B(M, Y) and g~ : Y -> Hom_A(N, X); the pair (f~, g~) is the
"second expression" of the module.

Structure maps are read and built on the pure tensors only through
TensorModule.pure_values and TensorModule.descend, as arrays indexed
[row, i, j] for m_i (x) x_j, so no code here knows the order of the pure
tensors.  Hom coordinates are read with algebras.coordinates.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebras import (
    Bimodule, IsoResult, Module, ModuleMorphism, PresentedAlgebra, TensorModule,
    _invertible_combination, _left_times, _times, cokernel, coordinates, direct_sum,
    dual_module, hom_module, intertwiner_constraints, intertwiner_system, kernel,
    kernel_dim, memo, simples, solve_matrix_system, tensor_of_sum, tensor_over, zero_module,
)


class MoritaData:
    """The tuple (A, B, M, N) with pairings fixed to zero.  Tensor-vanishing
    flags are recomputed from scratch, never trusted from input."""

    def __init__(self, a: PresentedAlgebra, b: PresentedAlgebra,
                 m: Bimodule, n: Bimodule, name=""):
        if a.field != b.field:
            raise ValueError("A and B must share the field")
        if m.left_algebra is not b or m.right_algebra is not a:
            raise ValueError("M must be a B-A-bimodule")
        if n.left_algebra is not a or n.right_algebra is not b:
            raise ValueError("N must be an A-B-bimodule")
        self.A = a
        self.B = b
        self.M = m
        self.N = n
        self.field = a.field
        self.name = name
        self._cache = {}

    def tensor_MN(self):
        """M (x)_A N as a left B-module (only its dimension matters)."""
        return tensor_over(self.M, self.N.as_left_module())

    def tensor_NM(self):
        return tensor_over(self.N, self.M.as_left_module())

    @property
    def tensor_vanishing(self):
        return self.tensor_MN().dim == 0 and self.tensor_NM().dim == 0

    def validate(self):
        """Structured validity report: bimodule axioms, zero pairings, and
        each tensor-vanishing condition separately."""
        report = {"pairings_zero": True}  # fixed to zero by construction
        try:
            self.M.validate()
            self.N.validate()
            report["bimodule_axioms"] = True
        except ValueError as exc:
            report["bimodule_axioms"] = False
            report["bimodule_error"] = str(exc)
        report["mn_vanishes"] = self.tensor_MN().dim == 0
        report["nm_vanishes"] = self.tensor_NM().dim == 0
        report["valid"] = report["bimodule_axioms"]
        return report

    def __repr__(self):
        return f"MoritaData({self.name or '?'})"


def _tensor_map(field, tsrc: TensorModule, ttgt: TensorModule, a):
    """The induced map 1 (x) a between tensor quotients, for a: X -> X'.  It
    sends m_i (x) x_j to the class of m_i (x) a x_j, so it descends the
    classes of the target's pure tensors with a applied to the inner index."""
    return tsrc.descend(_times(field, ttgt.pure_surjection, a))


class LambdaModule:
    def __init__(self, data: MoritaData, x: Module, y: Module, f, g, tx=None, ty=None):
        self.data = data
        self.field = data.field
        self.X = x
        self.Y = y
        self.tX = tx if tx is not None else tensor_over(data.M, x)  # M (x) X
        self.tY = ty if ty is not None else tensor_over(data.N, y)  # N (x) Y
        f = self.field.frozen(f)
        g = self.field.frozen(g)
        if f.shape != (y.dim, self.tX.dim):
            raise ValueError(f"f must be {(y.dim, self.tX.dim)}, got {f.shape}")
        if g.shape != (x.dim, self.tY.dim):
            raise ValueError(f"g must be {(x.dim, self.tY.dim)}, got {g.shape}")
        self.f = f
        self.g = g
        self._cache = {}

    @property
    def dims(self):
        return (self.X.dim, self.Y.dim)

    @property
    def total_dim(self):
        return self.X.dim + self.Y.dim

    def content_key(self):
        """Hashable key, equal exactly for quadruples over one Morita data
        with the same components and structure maps: the content keys of X
        and Y and FieldSpec.value_key of f and g.  Over one data the tensor
        presentations are functions of X and Y (tensor_over), so the key
        fixes the quadruple."""
        return memo(self._cache, "content", lambda: (
            self.X.content_key(), self.Y.content_key(),
            self.field.value_key(self.f), self.field.value_key(self.g)))

    def pure_f(self):
        """f on the pure tensors, tX.pure_values(f): f(m_i (x) x_j) at
        [:, i, j]; read-only, computed once per quadruple."""
        return memo(self._cache, "pure f",
                    lambda: self.field.freeze(self.tX.pure_values(self.f)))

    def pure_g(self):
        """g on the pure tensors, tY.pure_values(g): g(n_i (x) y_j) at
        [:, i, j]; read-only, computed once per quadruple."""
        return memo(self._cache, "pure g",
                    lambda: self.field.freeze(self.tY.pure_values(self.g)))

    # -- second expression ---------------------------------------------------

    def hom_MY(self):
        return hom_module(self.data.M, self.Y)

    def hom_NX(self):
        return hom_module(self.data.N, self.X)

    @property
    def f_tilde(self):
        """Matrix of f~ : X -> Hom_B(M, Y) in the canonical hom basis."""
        return memo(self._cache, "f_tilde", lambda: transpose_structure_map(
            self.X, self.tX, self.f, self.hom_MY()))

    @property
    def g_tilde(self):
        return memo(self._cache, "g_tilde", lambda: transpose_structure_map(
            self.Y, self.tY, self.g, self.hom_NX()))

    # -- validation ------------------------------------------------------

    def f_morphism(self):
        return ModuleMorphism(self.tX.module, self.Y, self.f)

    def g_morphism(self):
        return ModuleMorphism(self.tY.module, self.X, self.g)

    def validate(self):
        self.f_morphism().validate()
        self.g_morphism().validate()
        fld = self.field
        dx, dy = self.X.dim, self.Y.dim
        # g o (1_N (x) f) = 0 on N (x) (M (x) X), which the pure tensors
        # n_i (x) t_s span: g(n_i (x) f(t_s)) = sum_r g(n_i (x) y_r) f[r, s]
        g_pure = self.pure_g().reshape(dx * self.tY.outer, dy)
        if not fld.is_zero(fld.matmul(g_pure, self.f)):
            raise ValueError("compatibility g(1(x)f) = 0 fails")
        f_pure = self.pure_f().reshape(dy * self.tX.outer, dx)
        if not fld.is_zero(fld.matmul(f_pure, self.g)):
            raise ValueError("compatibility f(1(x)g) = 0 fails")
        return True

    def __repr__(self):
        return f"LambdaModule(dims={self.dims} over {self.data.name or '?'})"


def transpose_structure_map(x, tx, f, hom_by):
    """eta(f): the adjoint transpose of f: bim (x) x -> y, for tx = bim (x) x
    and hom_by = Hom(bim, y), as a matrix in the canonical hom basis; column
    j holds the coordinates of m -> f(m (x) x_j)."""
    fld = x.field
    return fld.freeze(coordinates(fld, hom_by.pivots, tx.pure_values(f).transpose(2, 0, 1)))


def untranspose_structure_map(x, tx, f_tilde, hom_by):
    """eta^{-1}: rebuild f: bim (x) x -> y from its adjoint transpose."""
    fld = x.field
    phis = linalg.combine(fld, f_tilde.T, hom_by.basis)  # phi_j = f~(x_j)
    return tx.descend(phis.transpose(1, 2, 0))


def lambda_module_from_second_expression(data, x, y, f_tilde, g_tilde):
    hom_my = hom_module(data.M, y)
    hom_nx = hom_module(data.N, x)
    tx = tensor_over(data.M, x)
    ty = tensor_over(data.N, y)
    f = untranspose_structure_map(x, tx, np.array(f_tilde), hom_my)
    g = untranspose_structure_map(y, ty, np.array(g_tilde), hom_nx)
    return LambdaModule(data, x, y, f, g, tx=tx, ty=ty)


class LambdaMorphism:
    def __init__(self, source: LambdaModule, target: LambdaModule, a, b):
        self.source = source
        self.target = target
        self.field = source.field
        self.a = self.field.frozen(a)
        self.b = self.field.frozen(b)
        if self.a.shape != (target.X.dim, source.X.dim):
            raise ValueError("component a has the wrong shape")
        if self.b.shape != (target.Y.dim, source.Y.dim):
            raise ValueError("component b has the wrong shape")

    @property
    def components(self):
        """The blocks (a, b), in the order of the constructor arguments."""
        return (self.a, self.b)

    def a_morphism(self):
        return ModuleMorphism(self.source.X, self.target.X, self.a)

    def b_morphism(self):
        return ModuleMorphism(self.source.Y, self.target.Y, self.b)

    def validate(self):
        """a and b are module maps, and both squares commute.  A square is
        compared on the pure tensors, which span the tensor: b f_src and
        f_tgt (1 (x) a) agree at m_i (x) x_j exactly when b f_src(m_i (x) x_j)
        = f_tgt(m_i (x) a x_j), and likewise for g."""
        self.a_morphism().validate()
        self.b_morphism().validate()
        fld = self.field
        src, tgt = self.source, self.target
        for h_out, h_in, vals_src, vals_tgt, side in (
                (self.b, self.a, src.pure_f(), tgt.pure_f(), "f"),
                (self.a, self.b, src.pure_g(), tgt.pure_g(), "g")):
            rows, outer, inner = vals_src.shape
            left = fld.matmul(h_out, vals_src.reshape(rows, outer * inner))
            right = _times(fld, vals_tgt, h_in).reshape(h_out.shape[0], outer * inner)
            if not fld.equal(left, right):
                raise ValueError(f"square over {side} does not commute")
        return True

    def compose(self, other):
        return LambdaMorphism(other.source, self.target,
                              self.field.matmul(self.a, other.a),
                              self.field.matmul(self.b, other.b))

    def __repr__(self):
        return f"LambdaMorphism({self.source.dims} -> {self.target.dims})"


def lambda_identity(l):
    return LambdaMorphism(l, l, l.field.eye(l.X.dim), l.field.eye(l.Y.dim))


# -- the twelve functors -----------------------------------------------------


def functor_T(data: MoritaData, side: str, x: Module) -> LambdaModule:
    """T_A X = (X; M(x)X)_{1,0} and T_B Y = (N(x)Y; Y)_{0,1}."""
    fld = data.field
    if side == "A":
        tx = tensor_over(data.M, x)
        y = tx.module
        ty = tensor_over(data.N, y)
        return LambdaModule(data, x, y, fld.eye(y.dim), fld.zeros(x.dim, ty.dim),
                            tx=tx, ty=ty)
    if side == "B":
        ty = tensor_over(data.N, x)
        xa = ty.module
        tx = tensor_over(data.M, xa)
        return LambdaModule(data, xa, x, fld.zeros(x.dim, tx.dim), fld.eye(xa.dim),
                            tx=tx, ty=ty)
    raise ValueError("side must be 'A' or 'B'")


def functor_H(data: MoritaData, side: str, x: Module) -> LambdaModule:
    """H_A X = (X; Hom_A(N,X)) with second expression (0, 1), and dually."""
    fld = data.field
    if side == "A":
        hom_nx = hom_module(data.N, x)
        y = hom_nx.module
        tx = tensor_over(data.M, x)
        ty = tensor_over(data.N, y)
        # g = evaluation: N (x) Hom_A(N, X) -> X
        g = _evaluation_map(hom_nx, ty)
        return LambdaModule(data, x, y, fld.zeros(y.dim, tx.dim), g, tx=tx, ty=ty)
    if side == "B":
        hom_my = hom_module(data.M, x)
        xa = hom_my.module
        tx = tensor_over(data.M, xa)
        ty = tensor_over(data.N, x)
        f = _evaluation_map(hom_my, tx)
        return LambdaModule(data, xa, x, f, fld.zeros(xa.dim, ty.dim), tx=tx, ty=ty)
    raise ValueError("side must be 'A' or 'B'")


def _evaluation_map(hom_bx, tensor_with_hom):
    """bim (x) Hom(bim, x) -> x, (n, phi) -> phi(n), on the tensor quotient:
    n_i (x) phi_j goes to column i of phi_j."""
    return tensor_with_hom.descend(hom_bx.basis.transpose(1, 2, 0))


def functor_Z(data: MoritaData, side: str, x: Module) -> LambdaModule:
    fld = data.field
    if side == "A":
        y = zero_module(data.B)
        return LambdaModule(data, x, y, fld.zeros(0, tensor_over(data.M, x).dim),
                            fld.zeros(x.dim, 0))
    if side == "B":
        xa = zero_module(data.A)
        return LambdaModule(data, xa, x, fld.zeros(x.dim, 0),
                            fld.zeros(0, tensor_over(data.N, x).dim))
    raise ValueError("side must be 'A' or 'B'")


def functor_U(side: str, l: LambdaModule) -> Module:
    return l.X if side == "A" else l.Y


def functor_C(side: str, l: LambdaModule):
    """C_A = Coker g (with witness epi), C_B = Coker f."""
    if side == "A":
        return cokernel(l.g_morphism())
    return cokernel(l.f_morphism())


def functor_K(side: str, l: LambdaModule):
    """K_A = Ker f~ (with witness mono), K_B = Ker g~."""
    if side == "A":
        return kernel(ModuleMorphism(l.X, l.hom_MY().module, l.f_tilde))
    return kernel(ModuleMorphism(l.Y, l.hom_NX().module, l.g_tilde))


# -- materialization ---------------------------------------------------------


def materialize(data: MoritaData) -> PresentedAlgebra:
    """Lambda as a plain algebra; basis ordered (A, N, M, B), built once per
    Morita data."""
    return memo(data._cache, "materialized", lambda: _materialize(data))


def _materialize(data: MoritaData) -> PresentedAlgebra:
    fld = data.field
    da, db, dm, dn = data.A.dim, data.B.dim, data.M.dim, data.N.dim
    oa, on, om, ob = 0, da, da + dn, da + dn + dm
    total = da + dn + dm + db
    labels = (tuple(f"A:{s}" for s in data.A.basis_labels)
              + tuple(f"N:{i}" for i in range(dn))
              + tuple(f"M:{i}" for i in range(dm))
              + tuple(f"B:{s}" for s in data.B.basis_labels))
    # structure constants block by block: [i, j] holds basis_i basis_j
    c = fld.zeros(total, total, total)
    c[oa:on, oa:on, oa:on] = data.A.structure_constants()
    c[oa:on, on:om, on:om] = data.N.left_action.transpose(0, 2, 1)    # a . n
    c[on:om, ob:, on:om] = data.N.right_action.transpose(2, 0, 1)     # n . b
    c[om:ob, oa:on, om:ob] = data.M.right_action.transpose(2, 0, 1)   # m . a
    c[ob:, om:ob, om:ob] = data.M.left_action.transpose(0, 2, 1)      # b . m
    c[ob:, ob:, ob:] = data.B.structure_constants()
    mult = {(int(i), int(j)): fld.freeze(c[i, j])
            for i, j in zip(*np.nonzero(c.astype(bool).any(axis=2)))}
    unit = fld.zeros(total)
    unit[oa:on] = data.A.unit
    unit[ob:] = data.B.unit
    alg = PresentedAlgebra(fld, labels, mult, unit,
                           name=f"Lambda({data.name or '?'})")
    # distinguished idempotents: vertex systems of A and B when available
    system = []
    for corner, lo, hi in ((data.A, oa, on), (data.B, ob, total)):
        for vec in corner.idempotent_system() or (corner.unit,):
            v = fld.zeros(total)
            v[lo:hi] = vec
            system.append(fld.freeze(v))
    alg.set_idempotent_system(system)
    # generators: generators of A and B plus all of M and N
    gens = ([oa + i for i in data.A.generator_indices()]
            + [on + i for i in range(dn)]
            + [om + i for i in range(dm)]
            + [ob + i for i in data.B.generator_indices()])
    alg.set_generator_indices(gens)
    alg._cache["offsets"] = (oa, on, om, ob)
    return alg


def flatten(l: LambdaModule) -> Module:
    """The plain module over materialize(data): X-coordinates then Y.  The
    element n_i acts by y -> g(n_i (x) y), and m_i by x -> f(m_i (x) x)."""
    alg = materialize(l.data)
    oa, on, om, ob = alg._cache["offsets"]
    dx, dy = l.X.dim, l.Y.dim
    acts = l.field.zeros(alg.dim, dx + dy, dx + dy)
    acts[oa:on, :dx, :dx] = l.X.action
    acts[on:om, :dx, dx:] = l.pure_g().transpose(1, 0, 2)
    acts[om:ob, dx:, :dx] = l.pure_f().transpose(1, 0, 2)
    acts[ob:, dx:, dx:] = l.Y.action
    return Module(alg, dx + dy, acts)


def flatten_morphism(phi: LambdaMorphism) -> ModuleMorphism:
    fld = phi.field
    src, tgt = flatten(phi.source), flatten(phi.target)
    m = fld.zeros(tgt.dim, src.dim)
    dxs, dxt = phi.source.X.dim, phi.target.X.dim
    m[:dxt, :dxs] = phi.a
    m[dxt:, dxs:] = phi.b
    return ModuleMorphism(src, tgt, m)


def unflatten(data: MoritaData, z: Module) -> LambdaModule:
    """Inverse of flatten, for any module over the materialized algebra."""
    alg = materialize(data)
    if z.algebra is not alg:
        raise ValueError("module is not over the materialized algebra")
    fld = data.field
    oa, on, om, ob = alg._cache["offsets"]
    pa = fld.zeros(alg.dim)
    pa[oa:on] = data.A.unit
    pb = fld.zeros(alg.dim)
    pb[ob:] = data.B.unit
    basis_a = linalg.column_space_basis(fld, z.act_vec(pa))
    basis_b = linalg.column_space_basis(fld, z.act_vec(pb))
    dx, dy = basis_a.shape[1], basis_b.shape[1]
    if dx + dy != z.dim:
        raise ValueError("unit idempotents do not decompose the module")
    t = linalg.hstack(fld, [basis_a, basis_b])
    # the action in the basis t, whose blocks are read as flatten writes them
    acts = _left_times(fld, linalg.invert(fld, t), _times(fld, z.action, t))
    x = Module(data.A, dx, acts[oa:on, :dx, :dx])
    y = Module(data.B, dy, acts[ob:, dx:, dx:])
    tx = tensor_over(data.M, x)
    ty = tensor_over(data.N, y)
    f = tx.descend(acts[om:ob, dx:, :dx].transpose(1, 0, 2))
    g = ty.descend(acts[on:om, :dx, dx:].transpose(1, 0, 2))
    return LambdaModule(data, x, y, f, g, tx=tx, ty=ty)


# -- hom spaces of quadruples -------------------------------------------------


def _square_rows(fld, src, tgt, sup_a, sup_b):
    """Constraint rows tying (a, b) to the structure maps, over the joint
    support [sup_a | sup_b] of the unknowns [vec_rm(a) | vec_rm(b)]:
    b f_1 = f_2 (1_M (x) a) and a g_1 = g_2 (1_N (x) b)."""
    rows = []
    for k, (map1, vals, t1, sup_in, sup_out) in enumerate((
            (src.f, tgt.pure_f(), src.tX, sup_a, sup_b),
            (src.g, tgt.pure_g(), src.tY, sup_b, sup_a))):
        # h_out map1 = map2 (1 (x) h_in), rows indexed by (r, s) for the
        # rows r of map2 and the quotient basis s of t1; vals holds map2 on
        # the pure tensors
        d_out = vals.shape[0]
        # h_out map1 at (r, s) is sum_c h_out[r, c] map1[c, s]
        r, c = np.divmod(sup_out, map1.shape[0])
        out_rows = fld.zeros(d_out, t1.dim, len(sup_out))
        out_rows[r, :, np.arange(len(sup_out))] = map1[c, :]
        # map2 (1 (x) h_in) at (r, s) is sum_i,c,d vals[r, i, c] h_in[c, d] sec[i, d, s]
        sec = t1.pure_section
        c, d = np.divmod(sup_in, sec.shape[1])
        phi = fld.matmul(vals[:, :, c].transpose(2, 0, 1), sec[:, d, :].transpose(1, 0, 2))
        in_rows = fld.normalize(-phi).transpose(1, 2, 0)
        blocks = [in_rows, out_rows] if k == 0 else [out_rows, in_rows]
        rows.append(np.concatenate(blocks, axis=2).reshape(d_out * t1.dim,
                                                             len(sup_a) + len(sup_b)))
    return rows


def _hom_rows(fld, src, tgt):
    """(support, rows) of Hom_Lambda(src, tgt) over the unknowns
    [vec_rm(a) | vec_rm(b)]: the intertwiner rows of a and of b, each on its
    own support and zero-padded to both, then the square rows on the joint
    support."""
    sup_a, pairs_a = intertwiner_system(src.X, tgt.X)
    sup_b, pairs_b = intertwiner_system(src.Y, tgt.Y)
    support = np.concatenate([sup_a, src.X.dim * tgt.X.dim + sup_b])
    rows = []
    for s, t, sup, pairs, cols in (
            (src.X, tgt.X, sup_a, pairs_a, slice(None, len(sup_a))),
            (src.Y, tgt.Y, sup_b, pairs_b, slice(len(sup_a), None))):
        for r in intertwiner_constraints(fld, pairs, s.dim, t.dim, sup):
            padded = fld.zeros(r.shape[0], len(support))
            padded[:, cols] = r
            rows.append(padded)
    rows.extend(_square_rows(fld, src, tgt, sup_a, sup_b))
    return support, rows


def lambda_hom_space(src: LambdaModule, tgt: LambdaModule):
    """Canonical basis of Hom_Lambda(src, tgt) as LambdaMorphisms from src to
    tgt.  The solution stack is memoized on the Morita data by the contents
    of src and tgt, so each distinct pair is solved once."""
    if src.data is not tgt.data:
        raise ValueError("hom between quadruples over different Morita data")
    dx1, dy1 = src.X.dim, src.Y.dim
    dx2, dy2 = tgt.X.dim, tgt.Y.dim
    na = dx1 * dx2
    sols = memo(src.data._cache, ("lambda hom space", src.content_key(), tgt.content_key()),
                lambda: _solve_lambda_hom_space(src, tgt))
    return [LambdaMorphism(src, tgt, sols[:na, i].reshape(dx2, dx1),
                           sols[na:, i].reshape(dy2, dy1)) for i in range(sols.shape[1])]


def _solve_lambda_hom_space(src, tgt):
    """The canonical kernel basis of the hom rows, as frozen columns in the
    unknowns [vec_rm(a) | vec_rm(b)]."""
    fld = src.field
    n = src.X.dim * tgt.X.dim + src.Y.dim * tgt.Y.dim
    if n == 0:
        return fld.freeze(fld.zeros(0, 0))
    support, rows = _hom_rows(fld, src, tgt)
    return fld.freeze(solve_matrix_system(fld, rows, n, support))


def lambda_hom_dim(src: LambdaModule, tgt: LambdaModule) -> int:
    """dim Hom_Lambda(src, tgt), counted as |support| - rank of the hom rows
    that lambda_hom_space solves, without a basis.  Memoized on the Morita
    data by the contents of src and tgt, apart from the lambda_hom_space
    entry."""
    if src.data is not tgt.data:
        raise ValueError("hom between quadruples over different Morita data")
    return memo(src.data._cache, ("lambda hom dim", src.content_key(), tgt.content_key()),
                lambda: _count_lambda_hom(src, tgt))


def _count_lambda_hom(src, tgt):
    fld = src.field
    if src.X.dim * tgt.X.dim + src.Y.dim * tgt.Y.dim == 0:
        return 0
    support, rows = _hom_rows(fld, src, tgt)
    return kernel_dim(fld, rows, support)


# -- kernels, cokernels, sums, exactness -------------------------------------


def lambda_kernel(phi: LambdaMorphism):
    """(kernel quadruple, inclusion)."""
    data = phi.source.data
    fld = phi.field
    kx, incl_x = kernel(phi.a_morphism())
    ky, incl_y = kernel(phi.b_morphism())
    tkx = tensor_over(data.M, kx)
    tky = tensor_over(data.N, ky)
    # induced f: M (x) KX -> KY corestricts f_src along incl_y
    one_ix = _tensor_map(fld, tkx, phi.source.tX, incl_x.matrix)
    f_to_y = fld.matmul(phi.source.f, one_ix)
    f_k = linalg.solve(fld, incl_y.matrix, f_to_y)
    if f_k is None:
        raise AssertionError("kernel structure map failed to corestrict")
    one_iy = _tensor_map(fld, tky, phi.source.tY, incl_y.matrix)
    g_to_x = fld.matmul(phi.source.g, one_iy)
    g_k = linalg.solve(fld, incl_x.matrix, g_to_x)
    if g_k is None:
        raise AssertionError("kernel structure map failed to corestrict")
    k = LambdaModule(data, kx, ky, f_k, g_k, tx=tkx, ty=tky)
    return k, LambdaMorphism(k, phi.source, incl_x.matrix, incl_y.matrix)


def lambda_cokernel(phi: LambdaMorphism):
    """(cokernel quadruple, projection)."""
    data = phi.target.data
    fld = phi.field
    cx, proj_x = cokernel(phi.a_morphism())
    cy, proj_y = cokernel(phi.b_morphism())
    tcx = tensor_over(data.M, cx)
    tcy = tensor_over(data.N, cy)
    # induced f: M (x) CX -> CY descends through the epi 1 (x) proj_x
    one_px = _tensor_map(fld, phi.target.tX, tcx, proj_x.matrix)
    rhs = fld.matmul(proj_y.matrix, phi.target.f)
    f_c_t = linalg.solve(fld, one_px.T, rhs.T)
    if f_c_t is None:
        raise AssertionError("cokernel structure map failed to descend")
    one_py = _tensor_map(fld, phi.target.tY, tcy, proj_y.matrix)
    rhs2 = fld.matmul(proj_x.matrix, phi.target.g)
    g_c_t = linalg.solve(fld, one_py.T, rhs2.T)
    if g_c_t is None:
        raise AssertionError("cokernel structure map failed to descend")
    c = LambdaModule(data, cx, cy, f_c_t.T, g_c_t.T, tx=tcx, ty=tcy)
    return c, LambdaMorphism(phi.target, c, proj_x.matrix, proj_y.matrix)


def lambda_direct_sum(mods):
    """(sum quadruple, injections, projections), all over one MoritaData
    object.

    The sum's tensors are assembled from the summands' (tensor_of_sum), and
    its structure maps are placed: f is each f_k at the rows of Y_k and at
    the columns where X_k's free pure tensors sit among the sum's, and g
    likewise.  The sum's f takes m_i (x) x_j, for x_j in X_k, to f_k's value
    there, and at a free pure tensor that value is a column of f_k, since
    the surjection is the identity on the free pure tensors.  No byte can
    move: the RREF of the sum's relations is unique, so its free pure
    tensors are the summands' own, placed."""
    mods = list(mods)
    if not mods:
        raise ValueError("empty lambda direct sum")
    data = mods[0].data
    if any(l.data is not data for l in mods):
        raise ValueError("lambda direct sum of modules over different Morita data")
    fld = data.field
    xs, x_injs, x_projs = direct_sum([l.X for l in mods])
    ys, y_injs, y_projs = direct_sum([l.Y for l in mods])
    txs, x_at = tensor_of_sum(data.M, xs, [l.tX for l in mods])
    tys, y_at = tensor_of_sum(data.N, ys, [l.tY for l in mods])
    f = _placed_map(fld, txs.dim, [l.Y.dim for l in mods], x_at, [l.f for l in mods])
    g = _placed_map(fld, tys.dim, [l.X.dim for l in mods], y_at, [l.g for l in mods])
    s = LambdaModule(data, xs, ys, f, g, tx=txs, ty=tys)
    injs = [LambdaMorphism(l, s, xi.matrix, yi.matrix)
            for l, xi, yi in zip(mods, x_injs, y_injs)]
    projs = [LambdaMorphism(s, l, xp.matrix, yp.matrix)
             for l, xp, yp in zip(mods, x_projs, y_projs)]
    return s, injs, projs


def _placed_map(fld, ncols, row_dims, columns, blocks):
    """The frozen matrix holding blocks[k] at the k-th block of rows and at
    the columns columns[k]."""
    out, lo = fld.zeros(sum(row_dims), ncols), 0
    for dim, cols, block in zip(row_dims, columns, blocks):
        out[lo:lo + dim, cols] = block
        lo += dim
    return fld.freeze(out)


def is_exact_pair(first: LambdaMorphism, second: LambdaMorphism) -> bool:
    """Exactness at the middle of src -> mid -> tgt, componentwise."""
    fld = first.field
    for f1, f2, mid_dim in ((first.a, second.a, first.target.X.dim),
                            (first.b, second.b, first.target.Y.dim)):
        if not fld.is_zero(fld.matmul(f2, f1)):
            return False
        if linalg.rank(fld, f1) != mid_dim - linalg.rank(fld, f2):
            return False
    return True


def lambda_modules_equal(l1: LambdaModule, l2: LambdaModule) -> bool:
    """Literal equality of quadruples (same components and structure maps)."""
    return l1.content_key() == l2.content_key()


def lambda_isomorphism(l1: LambdaModule, l2: LambdaModule):
    """Isomorphism test for quadruples: module_isomorphism's search, run on
    the block-diagonal matrices diag(phi.a, phi.b) of the hom basis.  Such a
    matrix is invertible exactly when both components are."""
    fld = l1.field
    if l1.dims != l2.dims:
        return IsoResult("not_isomorphic")
    if l1.total_dim == 0:
        return IsoResult("isomorphic", lambda_identity(l1))
    basis = [linalg.block_diag(fld, [phi.a, phi.b]) for phi in lambda_hom_space(l1, l2)]
    mat, complete = _invertible_combination(fld, basis)
    if mat is not None:
        dx = l1.X.dim
        return IsoResult("isomorphic", LambdaMorphism(l1, l2, mat[:dx, :dx], mat[dx:, dx:]))
    return IsoResult("not_isomorphic" if complete else "undetermined")


def opposite_morita(data: MoritaData) -> MoritaData:
    """The opposite ring as a Morita ring: corners become opposites and the
    two bimodule slots trade places, each carrying its actions through the
    relevant opposite algebras.  Involutive up to object identity."""
    return memo(data._cache, "opposite", lambda: _opposite_morita(data))


def _opposite_morita(data: MoritaData) -> MoritaData:
    a_op = data.A.opposite()
    b_op = data.B.opposite()
    m_slot = Bimodule(b_op, a_op, data.N.dim, data.N.right_action, data.N.left_action)
    n_slot = Bimodule(a_op, b_op, data.M.dim, data.M.right_action, data.M.left_action)
    dop = MoritaData(a_op, b_op, m_slot, n_slot,
                     name=(data.name or "?") + "^op")
    dop._cache["opposite"] = data
    return dop


def dual_lambda(l: LambdaModule) -> LambdaModule:
    """D(L) as a quadruple over the opposite Morita data: components are the
    dual modules and the structure maps are the transposed blocks of the
    regular action (f of the dual comes from g, and conversely)."""
    data = l.data
    dop = opposite_morita(data)
    x_star = dual_module(l.X)
    y_star = dual_module(l.Y)
    tx_star = tensor_over(dop.M, x_star)   # N-space (x) X*
    ty_star = tensor_over(dop.N, y_star)   # M-space (x) Y*
    # the value of f_d at n_i (x) x*_j is row j of g(n_i (x) -), transposed
    f_d = tx_star.descend(l.pure_g().transpose(2, 1, 0))
    g_d = ty_star.descend(l.pure_f().transpose(2, 1, 0))
    return LambdaModule(dop, x_star, y_star, f_d, g_d, tx=tx_star, ty=ty_star)


def lambda_simples(data: MoritaData):
    """Z_A(simples of A) followed by Z_B(simples of B)."""
    return ([functor_Z(data, "A", s) for s in simples(data.A)]
            + [functor_Z(data, "B", s) for s in simples(data.B)])

