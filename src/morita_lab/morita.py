"""Morita rings Lambda = (A N; M B) with zero bimodule pairings, their
modules as quadruples (X, Y, f, g), the twelve functors, and the passage
between the quadruple picture and plain modules over the materialized
algebra.

Conventions: M is a B-A-bimodule, N an A-B-bimodule.  A quadruple carries
f in Hom_B(M (x)_A X, Y) and g in Hom_A(N (x)_B Y, X) with the zero-pairing
compatibility f(1(x)g) = 0 = g(1(x)f).  The adjoint transposes live in
f~ : X -> Hom_B(M, Y) and g~ : Y -> Hom_A(N, X); the pair (f~, g~) is the
"second expression" of the module.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebras import (
    Bimodule, IsoResult, Module, ModuleMorphism, PresentedAlgebra, TensorModule,
    _invertible_combination, cokernel, direct_sum, dual_module, free_module,
    hom_module, intertwiner_constraints, intertwiner_system, kernel, simples,
    solve_affine_system, solve_matrix_system, tensor_over, zero_module,
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
        """M (x)_A N as a left B-module (stores only the dimension matters)."""
        if "MN" not in self._cache:
            self._cache["MN"] = tensor_over(self.M, self.N.as_left_module())
        return self._cache["MN"]

    def tensor_NM(self):
        if "NM" not in self._cache:
            self._cache["NM"] = tensor_over(self.N, self.M.as_left_module())
        return self._cache["NM"]

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


def _tensor_map(field, tsrc: TensorModule, ttgt: TensorModule, outer_dim, a):
    """The induced map 1 (x) a between tensor quotients, for a: X -> X'."""
    big = linalg.kron(field, field.eye(outer_dim), a)
    return field.matmul(ttgt.surjection, field.matmul(big, tsrc.section))


class LambdaModule:
    def __init__(self, data: MoritaData, x: Module, y: Module, f, g,
                 tx=None, ty=None, check=False):
        self.data = data
        self.field = data.field
        self.X = x
        self.Y = y
        self.tX = tx if tx is not None else tensor_over(data.M, x)  # M (x) X
        self.tY = ty if ty is not None else tensor_over(data.N, y)  # N (x) Y
        f = self.field.freeze(np.array(f))
        g = self.field.freeze(np.array(g))
        if f.shape != (y.dim, self.tX.dim):
            raise ValueError(f"f must be {(y.dim, self.tX.dim)}, got {f.shape}")
        if g.shape != (x.dim, self.tY.dim):
            raise ValueError(f"g must be {(x.dim, self.tY.dim)}, got {g.shape}")
        self.f = f
        self.g = g
        self._cache = {}
        if check:
            self.validate()

    @property
    def dims(self):
        return (self.X.dim, self.Y.dim)

    @property
    def total_dim(self):
        return self.X.dim + self.Y.dim

    # -- second expression ---------------------------------------------------

    def hom_MY(self):
        if "hom_MY" not in self._cache:
            self._cache["hom_MY"] = hom_module(self.data.M, self.Y)
        return self._cache["hom_MY"]

    def hom_NX(self):
        if "hom_NX" not in self._cache:
            self._cache["hom_NX"] = hom_module(self.data.N, self.X)
        return self._cache["hom_NX"]

    @property
    def f_tilde(self):
        """Matrix of f~ : X -> Hom_B(M, Y) in the canonical hom basis."""
        if "f_tilde" not in self._cache:
            self._cache["f_tilde"] = transpose_structure_map(
                self.data.M, self.X, self.Y, self.tX, self.f, self.hom_MY())
        return self._cache["f_tilde"]

    @property
    def g_tilde(self):
        if "g_tilde" not in self._cache:
            self._cache["g_tilde"] = transpose_structure_map(
                self.data.N, self.Y, self.X, self.tY, self.g, self.hom_NX())
        return self._cache["g_tilde"]

    # -- validation ------------------------------------------------------

    def f_morphism(self):
        return ModuleMorphism(self.tX.module, self.Y, self.f)

    def g_morphism(self):
        return ModuleMorphism(self.tY.module, self.X, self.g)

    def validate(self):
        self.f_morphism().validate()
        self.g_morphism().validate()
        fld = self.field
        # g o (1_N (x) f) = 0 on N (x) (M (x) X), and symmetrically
        t_n_mx = tensor_over(self.data.N, self.tX.module)
        one_f = _tensor_map(fld, t_n_mx, self.tY, self.data.N.dim, self.f)
        if not fld.is_zero(fld.matmul(self.g, one_f)):
            raise ValueError("compatibility g(1(x)f) = 0 fails")
        t_m_ny = tensor_over(self.data.M, self.tY.module)
        one_g = _tensor_map(fld, t_m_ny, self.tX, self.data.M.dim, self.g)
        if not fld.is_zero(fld.matmul(self.f, one_g)):
            raise ValueError("compatibility f(1(x)g) = 0 fails")
        return True

    def __repr__(self):
        return f"LambdaModule(dims={self.dims} over {self.data.name or '?'})"


def transpose_structure_map(bim, x, y, tx, f, hom_by):
    """eta(f): the adjoint transpose of f: bim (x) x -> y, as a matrix
    Hom(bim, y) <- x in the canonical hom basis."""
    fld = x.field
    dm, dx = bim.dim, x.dim
    full = fld.matmul(f, tx.surjection)  # y.dim x (dm*dx), pure-tensor values
    cols = []
    for j in range(dx):
        phi = fld.zeros(y.dim, dm)
        for i in range(dm):
            phi[:, i] = full[:, i * dx + j]
        cols.append(hom_by.coordinates(phi))
    out = fld.zeros(hom_by.dim, dx)
    for j, c in enumerate(cols):
        for r in range(hom_by.dim):
            out[r, j] = c[r]
    return fld.freeze(out)


def untranspose_structure_map(bim, x, y, tx, f_tilde, hom_by):
    """eta^{-1}: rebuild f: bim (x) x -> y from its adjoint transpose."""
    fld = x.field
    dm, dx = bim.dim, x.dim
    full = fld.zeros(y.dim, dm * dx)
    for j in range(dx):
        phi = fld.zeros(y.dim, dm)
        for k in range(hom_by.dim):
            if f_tilde[k, j] != fld.zero:
                phi = phi + f_tilde[k, j] * hom_by.basis[k]
        phi = fld.normalize(phi)
        for i in range(dm):
            full[:, i * dx + j] = phi[:, i]
    return fld.matmul(full, tx.section)


def adjoint_transpose_f(data: MoritaData, x: Module, y: Module, f):
    """eta: Hom_B(M (x) X, Y) -> Hom_A(X, Hom_B(M, Y)) on raw matrices."""
    tx = tensor_over(data.M, x)
    hom_my = hom_module(data.M, y)
    return transpose_structure_map(data.M, x, y, tx, np.array(f), hom_my)


def adjoint_untranspose_f(data: MoritaData, x: Module, y: Module, f_tilde):
    tx = tensor_over(data.M, x)
    hom_my = hom_module(data.M, y)
    return untranspose_structure_map(data.M, x, y, tx, np.array(f_tilde), hom_my)


def adjoint_transpose_g(data: MoritaData, x: Module, y: Module, g):
    """eta': Hom_A(N (x) Y, X) -> Hom_B(Y, Hom_A(N, X)) on raw matrices."""
    ty = tensor_over(data.N, y)
    hom_nx = hom_module(data.N, x)
    return transpose_structure_map(data.N, y, x, ty, np.array(g), hom_nx)


def adjoint_untranspose_g(data: MoritaData, x: Module, y: Module, g_tilde):
    ty = tensor_over(data.N, y)
    hom_nx = hom_module(data.N, x)
    return untranspose_structure_map(data.N, y, x, ty, np.array(g_tilde), hom_nx)


def lambda_module_from_second_expression(data, x, y, f_tilde, g_tilde, check=False):
    hom_my = hom_module(data.M, y)
    hom_nx = hom_module(data.N, x)
    tx = tensor_over(data.M, x)
    ty = tensor_over(data.N, y)
    f = untranspose_structure_map(data.M, x, y, tx, np.array(f_tilde), hom_my)
    g = untranspose_structure_map(data.N, y, x, ty, np.array(g_tilde), hom_nx)
    return LambdaModule(data, x, y, f, g, tx=tx, ty=ty, check=check)


class LambdaMorphism:
    def __init__(self, source: LambdaModule, target: LambdaModule, a, b, check=False):
        self.source = source
        self.target = target
        self.field = source.field
        self.a = self.field.freeze(np.array(a))
        self.b = self.field.freeze(np.array(b))
        if self.a.shape != (target.X.dim, source.X.dim):
            raise ValueError("component a has the wrong shape")
        if self.b.shape != (target.Y.dim, source.Y.dim):
            raise ValueError("component b has the wrong shape")
        if check:
            self.validate()

    @property
    def components(self):
        """The blocks (a, b), in the order of the constructor arguments."""
        return (self.a, self.b)

    def a_morphism(self):
        return ModuleMorphism(self.source.X, self.target.X, self.a)

    def b_morphism(self):
        return ModuleMorphism(self.source.Y, self.target.Y, self.b)

    def validate(self):
        self.a_morphism().validate()
        self.b_morphism().validate()
        fld = self.field
        src, tgt = self.source, self.target
        one_a = _tensor_map(fld, src.tX, tgt.tX, src.data.M.dim, self.a)
        if not fld.equal(fld.matmul(self.b, src.f), fld.matmul(tgt.f, one_a)):
            raise ValueError("square over f does not commute")
        one_b = _tensor_map(fld, src.tY, tgt.tY, src.data.N.dim, self.b)
        if not fld.equal(fld.matmul(self.a, src.g), fld.matmul(tgt.g, one_b)):
            raise ValueError("square over g does not commute")
        return True

    def compose(self, other):
        return LambdaMorphism(other.source, self.target,
                              self.field.matmul(self.a, other.a),
                              self.field.matmul(self.b, other.b))

    def is_mono(self):
        fld = self.field
        return (linalg.rank(fld, self.a) == self.source.X.dim
                and linalg.rank(fld, self.b) == self.source.Y.dim)

    def is_epi(self):
        fld = self.field
        return (linalg.rank(fld, self.a) == self.target.X.dim
                and linalg.rank(fld, self.b) == self.target.Y.dim)

    def __repr__(self):
        return f"LambdaMorphism({self.source.dims} -> {self.target.dims})"


def lambda_identity(l):
    return LambdaMorphism(l, l, l.field.eye(l.X.dim), l.field.eye(l.Y.dim))


def lambda_zero_morphism(src, tgt):
    f = src.field
    return LambdaMorphism(src, tgt, f.zeros(tgt.X.dim, src.X.dim),
                          f.zeros(tgt.Y.dim, src.Y.dim))


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
        g = _evaluation_map(data.N, x, hom_nx, ty)
        return LambdaModule(data, x, y, fld.zeros(y.dim, tx.dim), g, tx=tx, ty=ty)
    if side == "B":
        hom_my = hom_module(data.M, x)
        xa = hom_my.module
        tx = tensor_over(data.M, xa)
        ty = tensor_over(data.N, x)
        f = _evaluation_map(data.M, x, hom_my, tx)
        return LambdaModule(data, xa, x, f, fld.zeros(xa.dim, ty.dim), tx=tx, ty=ty)
    raise ValueError("side must be 'A' or 'B'")


def _evaluation_map(bim, x, hom_bx, tensor_with_hom):
    """bim (x) Hom(bim, x) -> x, (n, phi) -> phi(n), on the tensor quotient."""
    fld = x.field
    dn, h = bim.dim, hom_bx.dim
    full = fld.zeros(x.dim, dn * h)
    for i in range(dn):
        for j in range(h):
            full[:, i * h + j] = hom_bx.basis[j][:, i]
    return fld.matmul(full, tensor_with_hom.section)


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
    """Lambda as a plain algebra; basis ordered (A, N, M, B)."""
    if "materialized" in data._cache:
        return data._cache["materialized"]
    fld = data.field
    da, db, dm, dn = data.A.dim, data.B.dim, data.M.dim, data.N.dim
    oa, on, om, ob = 0, da, da + dn, da + dn + dm
    total = da + dn + dm + db
    labels = (tuple(f"A:{s}" for s in data.A.basis_labels)
              + tuple(f"N:{i}" for i in range(dn))
              + tuple(f"M:{i}" for i in range(dm))
              + tuple(f"B:{s}" for s in data.B.basis_labels))
    mult = {}

    def put(i, j, block_offset, vec):
        if fld.is_zero(vec.reshape(1, -1)):
            return
        out = fld.zeros(1, total)[0]
        out[block_offset : block_offset + vec.shape[0]] = vec
        mult[(i, j)] = fld.freeze(out)

    for i in range(da):
        for j in range(da):
            v = data.A.mult.get((i, j))
            if v is not None:
                put(oa + i, oa + j, oa, np.array(v))
        for j in range(dn):  # a . n: left A-action on N
            put(oa + i, on + j, on, np.array(data.N.left_action[i][:, j]))
    for i in range(dn):
        for j in range(db):  # n . b: right B-action on N
            put(on + i, ob + j, on, np.array(data.N.right_action[j][:, i]))
    for i in range(dm):
        for j in range(da):  # m . a: right A-action on M
            put(om + i, oa + j, om, np.array(data.M.right_action[j][:, i]))
    for i in range(db):
        for j in range(dm):  # b . m: left B-action on M
            put(ob + i, om + j, om, np.array(data.M.left_action[i][:, j]))
        for j in range(db):
            v = data.B.mult.get((i, j))
            if v is not None:
                put(ob + i, ob + j, ob, np.array(v))
    unit = fld.zeros(1, total)[0]
    unit[oa : oa + da] = data.A.unit
    unit[ob : ob + db] = data.B.unit
    alg = PresentedAlgebra(fld, labels, mult, unit,
                           name=f"Lambda({data.name or '?'})")
    # distinguished idempotents: vertex systems of A and B when available
    system = []
    sys_a = data.A.idempotent_system()
    sys_b = data.B.idempotent_system()
    if sys_a is None:
        sys_a = (data.A.unit,)
    if sys_b is None:
        sys_b = (data.B.unit,)
    for vec in sys_a:
        v = fld.zeros(1, total)[0]
        v[oa : oa + da] = vec
        system.append(fld.freeze(v))
    for vec in sys_b:
        v = fld.zeros(1, total)[0]
        v[ob : ob + db] = vec
        system.append(fld.freeze(v))
    alg.set_idempotent_system(system)
    # generators: generators of A and B plus all of M and N
    gens = ([oa + i for i in data.A.generator_indices()]
            + [on + i for i in range(dn)]
            + [om + i for i in range(dm)]
            + [ob + i for i in data.B.generator_indices()])
    alg._cache["lambda_generators"] = gens
    alg.generator_indices = lambda: list(gens)  # type: ignore[method-assign]
    alg._cache["morita_data"] = data
    alg._cache["offsets"] = (oa, on, om, ob)
    data._cache["materialized"] = alg
    return alg


def flatten(l: LambdaModule) -> Module:
    """The plain module over materialize(data): X-coordinates then Y."""
    data = l.data
    alg = materialize(data)
    fld = l.field
    da, db, dm, dn = data.A.dim, data.B.dim, data.M.dim, data.N.dim
    dx, dy = l.X.dim, l.Y.dim
    total = dx + dy
    acts = []
    f_full = fld.matmul(l.f, l.tX.surjection)  # on pure tensors of M (x) X
    g_full = fld.matmul(l.g, l.tY.surjection)
    for i in range(da):
        m = fld.zeros(total, total)
        m[:dx, :dx] = l.X.act(i)
        acts.append(m)
    for i in range(dn):
        m = fld.zeros(total, total)
        for j in range(dy):
            m[:dx, dx + j] = g_full[:, i * dy + j]
        acts.append(m)
    for i in range(dm):
        m = fld.zeros(total, total)
        for j in range(dx):
            m[dx : dx + dy, j] = f_full[:, i * dx + j]
        acts.append(m)
    for i in range(db):
        m = fld.zeros(total, total)
        m[dx:, dx:] = l.Y.act(i)
        acts.append(m)
    return Module(alg, total, acts)


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
    da, db, dm, dn = data.A.dim, data.B.dim, data.M.dim, data.N.dim
    oa, on, om, ob = alg._cache["offsets"]
    pa = fld.zeros(1, alg.dim)[0]
    pa[oa : oa + da] = data.A.unit
    pb = fld.zeros(1, alg.dim)[0]
    pb[ob : ob + db] = data.B.unit
    proj_a = z.act_vec(pa)
    proj_b = z.act_vec(pb)
    basis_a = linalg.column_space_basis(fld, proj_a)
    basis_b = linalg.column_space_basis(fld, proj_b)
    dx, dy = basis_a.shape[1], basis_b.shape[1]
    if dx + dy != z.dim:
        raise ValueError("unit idempotents do not decompose the module")
    t = linalg.hstack(fld, [basis_a, basis_b])
    ti = linalg.invert(fld, t)
    x_act = [fld.matmul(ti, fld.matmul(z.act(oa + i), t))[:dx, :dx] for i in range(da)]
    y_act = [fld.matmul(ti, fld.matmul(z.act(ob + i), t))[dx:, dx:] for i in range(db)]
    x = Module(data.A, dx, x_act)
    y = Module(data.B, dy, y_act)
    tx = tensor_over(data.M, x)
    ty = tensor_over(data.N, y)
    f_full = fld.zeros(dy, dm * dx)
    for i in range(dm):
        blk = fld.matmul(ti, fld.matmul(z.act(om + i), t))
        for j in range(dx):
            f_full[:, i * dx + j] = blk[dx:, j]
    g_full = fld.zeros(dx, dn * dy)
    for i in range(dn):
        blk = fld.matmul(ti, fld.matmul(z.act(on + i), t))
        for j in range(dy):
            g_full[:, i * dy + j] = blk[:dx, dx + j]
    f = fld.matmul(f_full, tx.section)
    g = fld.matmul(g_full, ty.section)
    return LambdaModule(data, x, y, f, g, tx=tx, ty=ty)


# -- hom spaces of quadruples -------------------------------------------------


def _square_rows(fld, src, tgt):
    """Constraint rows tying (a, b) to the structure maps, over the unknowns
    [vec_rm(a) | vec_rm(b)]."""
    dx1, dy1 = src.X.dim, src.Y.dim
    dx2, dy2 = tgt.X.dim, tgt.Y.dim
    na, nb = dx1 * dx2, dy1 * dy2
    dm, dn = src.data.M.dim, src.data.N.dim
    rows = []

    # b f_1 = f_2 (1_M (x) a)
    t1 = src.tX.dim
    lhs_b = linalg.kron(fld, fld.eye(dy2), src.f.T)  # (dy2*t1) x nb
    f2pi = fld.matmul(tgt.f, tgt.tX.surjection)  # dy2 x (dm*dx2)
    phi = fld.zeros(dy2 * t1, na)
    for i in range(dm):
        p_blk = f2pi[:, i * dx2 : (i + 1) * dx2]
        s_blk = src.tX.section[i * dx1 : (i + 1) * dx1, :]
        phi = phi + linalg.kron(fld, p_blk, s_blk.T)
    phi = fld.normalize(phi)
    row = fld.zeros(dy2 * t1, na + nb)
    row[:, :na] = fld.normalize(-phi)
    row[:, na:] = lhs_b
    rows.append(fld.normalize(row))

    # a g_1 = g_2 (1_N (x) b)
    t2 = src.tY.dim
    lhs_a = linalg.kron(fld, fld.eye(dx2), src.g.T)  # (dx2*t2) x na
    g2pi = fld.matmul(tgt.g, tgt.tY.surjection)  # dx2 x (dn*dy2)
    psi = fld.zeros(dx2 * t2, nb)
    for i in range(dn):
        p_blk = g2pi[:, i * dy2 : (i + 1) * dy2]
        s_blk = src.tY.section[i * dy1 : (i + 1) * dy1, :]
        psi = psi + linalg.kron(fld, p_blk, s_blk.T)
    psi = fld.normalize(psi)
    row = fld.zeros(dx2 * t2, na + nb)
    row[:, :na] = lhs_a
    row[:, na:] = fld.normalize(-psi)
    rows.append(fld.normalize(row))
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
    rows.extend(r[:, support] for r in _square_rows(fld, src, tgt))
    return support, rows


def lambda_hom_space(src: LambdaModule, tgt: LambdaModule):
    """Canonical basis of Hom_Lambda(src, tgt) as LambdaMorphisms."""
    fld = src.field
    dx1, dy1 = src.X.dim, src.Y.dim
    dx2, dy2 = tgt.X.dim, tgt.Y.dim
    na, nb = dx1 * dx2, dy1 * dy2
    if na + nb == 0:
        return []
    support, rows = _hom_rows(fld, src, tgt)
    sols = solve_matrix_system(fld, rows, na + nb, support)
    out = []
    for i in range(sols.shape[1]):
        a = sols[:na, i].reshape(dx2, dx1)
        b = sols[na:, i].reshape(dy2, dy1)
        out.append(LambdaMorphism(src, tgt, a, b))
    return out


def lambda_hom_dim(src, tgt):
    return len(lambda_hom_space(src, tgt))


def solve_lambda_hom_equation(src: LambdaModule, tgt: LambdaModule, extra):
    """A LambdaMorphism src -> tgt subject to affine conditions on
    [vec_rm(a) | vec_rm(b)], or None."""
    fld = src.field
    dx1, dy1 = src.X.dim, src.Y.dim
    dx2, dy2 = tgt.X.dim, tgt.Y.dim
    na, nb = dx1 * dx2, dy1 * dy2
    support, rows = _hom_rows(fld, src, tgt)
    sol = solve_affine_system(fld, rows, na + nb, support, extra)
    if sol is None:
        return None
    a = sol[:na, 0].reshape(dx2, dx1)
    b = sol[na:, 0].reshape(dy2, dy1)
    return LambdaMorphism(src, tgt, a, b)


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
    one_ix = _tensor_map(fld, tkx, phi.source.tX, data.M.dim, incl_x.matrix)
    f_to_y = fld.matmul(phi.source.f, one_ix)
    f_k = linalg.solve(fld, incl_y.matrix, f_to_y)
    if f_k is None:
        raise AssertionError("kernel structure map failed to corestrict")
    one_iy = _tensor_map(fld, tky, phi.source.tY, data.N.dim, incl_y.matrix)
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
    one_px = _tensor_map(fld, phi.target.tX, tcx, data.M.dim, proj_x.matrix)
    rhs = fld.matmul(proj_y.matrix, phi.target.f)
    f_c_t = linalg.solve(fld, one_px.T, rhs.T)
    if f_c_t is None:
        raise AssertionError("cokernel structure map failed to descend")
    one_py = _tensor_map(fld, phi.target.tY, tcy, data.N.dim, proj_y.matrix)
    rhs2 = fld.matmul(proj_x.matrix, phi.target.g)
    g_c_t = linalg.solve(fld, one_py.T, rhs2.T)
    if g_c_t is None:
        raise AssertionError("cokernel structure map failed to descend")
    c = LambdaModule(data, cx, cy, f_c_t.T, g_c_t.T, tx=tcx, ty=tcy)
    return c, LambdaMorphism(phi.target, c, proj_x.matrix, proj_y.matrix)


def lambda_direct_sum(mods):
    """(sum quadruple, injections, projections)."""
    mods = list(mods)
    if not mods:
        raise ValueError("empty lambda direct sum")
    data = mods[0].data
    fld = data.field
    xs, x_injs, x_projs = direct_sum([l.X for l in mods])
    ys, y_injs, y_projs = direct_sum([l.Y for l in mods])
    txs = tensor_over(data.M, xs)
    tys = tensor_over(data.N, ys)
    f = fld.zeros(ys.dim, txs.dim)
    g = fld.zeros(xs.dim, tys.dim)
    for l, xi, xp, yi, yp in zip(mods, x_injs, x_projs, y_injs, y_projs):
        one_xp = _tensor_map(fld, txs, l.tX, data.M.dim, xp.matrix)
        f = f + fld.matmul(yi.matrix, fld.matmul(l.f, one_xp))
        one_yp = _tensor_map(fld, tys, l.tY, data.N.dim, yp.matrix)
        g = g + fld.matmul(xi.matrix, fld.matmul(l.g, one_yp))
    s = LambdaModule(data, xs, ys, fld.normalize(f), fld.normalize(g), tx=txs, ty=tys)
    injs = [LambdaMorphism(l, s, xi.matrix, yi.matrix)
            for l, xi, yi in zip(mods, x_injs, y_injs)]
    projs = [LambdaMorphism(s, l, xp.matrix, yp.matrix)
             for l, xp, yp in zip(mods, x_projs, y_projs)]
    return s, injs, projs


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


def is_exact_sequence(morphisms) -> bool:
    morphisms = list(morphisms)
    for i in range(len(morphisms) - 1):
        if morphisms[i].target is not morphisms[i + 1].source:
            raise ValueError("chain is not composable")
        if not is_exact_pair(morphisms[i], morphisms[i + 1]):
            return False
    return True


def lambda_modules_equal(l1: LambdaModule, l2: LambdaModule) -> bool:
    """Literal equality of quadruples (same components and structure maps)."""
    fld = l1.field
    if l1.dims != l2.dims:
        return False
    for a1, a2 in zip(l1.X.action, l2.X.action):
        if not fld.equal(a1, a2):
            return False
    for b1, b2 in zip(l1.Y.action, l2.Y.action):
        if not fld.equal(b1, b2):
            return False
    return fld.equal(l1.f, l2.f) and fld.equal(l1.g, l2.g)


def lambda_isomorphism(l1: LambdaModule, l2: LambdaModule, rng=None):
    """Isomorphism test for quadruples: module_isomorphism's search, run on
    the block-diagonal matrices diag(phi.a, phi.b) of the hom basis.  Such a
    matrix is invertible exactly when both components are."""
    import random

    if rng is None:
        rng = random.Random(0)
    fld = l1.field
    if l1.dims != l2.dims:
        return IsoResult("not_isomorphic")
    if l1.total_dim == 0:
        return IsoResult("isomorphic", lambda_identity(l1))
    basis = [linalg.block_diag(fld, [phi.a, phi.b]) for phi in lambda_hom_space(l1, l2)]
    mat, complete = _invertible_combination(fld, basis, l1.total_dim, rng)
    if mat is not None:
        dx = l1.X.dim
        return IsoResult("isomorphic", LambdaMorphism(l1, l2, mat[:dx, :dx], mat[dx:, dx:]))
    return IsoResult("not_isomorphic" if complete else "undetermined")


def opposite_morita(data: MoritaData) -> MoritaData:
    """The opposite ring as a Morita ring: corners become opposites and the
    two bimodule slots trade places, each carrying its actions through the
    relevant opposite algebras.  Involutive up to object identity."""
    if "opposite" in data._cache:
        return data._cache["opposite"]
    a_op = data.A.opposite()
    b_op = data.B.opposite()
    m_slot = Bimodule(b_op, a_op, data.N.dim,
                      list(data.N.right_action), list(data.N.left_action))
    n_slot = Bimodule(a_op, b_op, data.M.dim,
                      list(data.M.right_action), list(data.M.left_action))
    dop = MoritaData(a_op, b_op, m_slot, n_slot,
                     name=(data.name or "?") + "^op")
    dop._cache["opposite"] = data
    data._cache["opposite"] = dop
    return dop


def dual_lambda(l: LambdaModule) -> LambdaModule:
    """D(L) as a quadruple over the opposite Morita data: components are the
    dual modules and the structure maps are the transposed blocks of the
    regular action (f of the dual comes from g, and conversely)."""
    data = l.data
    dop = opposite_morita(data)
    fld = l.field
    dx, dy = l.X.dim, l.Y.dim
    x_star = dual_module(l.X)
    y_star = dual_module(l.Y)
    tx_star = tensor_over(dop.M, x_star)   # N-space (x) X*
    ty_star = tensor_over(dop.N, y_star)   # M-space (x) Y*
    g_full = fld.matmul(l.g, l.tY.surjection)   # dx x (dn*dy)
    f_full = fld.matmul(l.f, l.tX.surjection)   # dy x (dm*dx)
    fd_full = fld.zeros(dy, data.N.dim * dx)
    for i in range(data.N.dim):
        blk = g_full[:, i * dy : (i + 1) * dy]   # dx x dy
        fd_full[:, i * dx : (i + 1) * dx] = blk.T
    gd_full = fld.zeros(dx, data.M.dim * dy)
    for i in range(data.M.dim):
        blk = f_full[:, i * dx : (i + 1) * dx]   # dy x dx
        gd_full[:, i * dy : (i + 1) * dy] = blk.T
    f_d = fld.matmul(fd_full, tx_star.section)
    g_d = fld.matmul(gd_full, ty_star.section)
    return LambdaModule(dop, x_star, y_star, f_d, g_d, tx=tx_star, ty=ty_star)


def lambda_simples(data: MoritaData):
    """Z_A(simples of A) followed by Z_B(simples of B)."""
    return ([functor_Z(data, "A", s) for s in simples(data.A)]
            + [functor_Z(data, "B", s) for s in simples(data.B)])


def regular_lambda_module(data: MoritaData) -> LambdaModule:
    """T_A A (+) T_B B, which flattens to the left regular representation."""
    s, _, _ = lambda_direct_sum([functor_T(data, "A", free_module(data.A, 1)),
                                 functor_T(data, "B", free_module(data.B, 1))])
    return s
