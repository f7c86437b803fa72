"""Presentations, syzygies, Ext and Tor, splitting tests, projective and
injective dimension bounds, and the explicit resolution and approximation
constructions for quadruple modules.

Ext^1(x, y) is read off a fixed projective presentation 0 -> K -> P -> x -> 0
as coker(Hom(P, y) -> Hom(K, y)); higher degrees shift along syzygies.
Extension classes are realized by pushout along a representative K -> y, so
splitting and class vanishing agree by construction.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebras import (
    Module, ModuleMorphism, basis_pivots, cokernel,
    direct_sum, dual_module, free_module, hom_dim, hom_space,
    injective_envelope, is_projective_module, kernel, lift_through_epi,
    pivot_coordinates, projective_cover, solve_hom_equation,
)
from .morita import (
    LambdaModule, LambdaMorphism, flatten, functor_H, functor_T,
    lambda_direct_sum, lambda_hom_dim, lambda_hom_space,
    lambda_kernel, lambda_simples, solve_lambda_hom_equation,
    tensor_over, _tensor_map, is_exact_pair,
)

DEFAULT_DIM_BOUND = 4


class ShortExactSequence:
    """0 -> left -> middle -> right -> 0, plain or quadruple."""

    def __init__(self, left, middle, right, incl, proj, check=True):
        self.left = left
        self.middle = middle
        self.right = right
        self.incl = incl
        self.proj = proj
        if check:
            self.validate()

    @property
    def is_lambda(self):
        return isinstance(self.left, LambdaModule)

    def validate(self):
        self.incl.validate()
        self.proj.validate()
        fld = self.incl.field
        if self.is_lambda:
            if not self.incl.is_mono():
                raise ValueError("left map is not mono")
            if not self.proj.is_epi():
                raise ValueError("right map is not epi")
            if not is_exact_pair(self.incl, self.proj):
                raise ValueError("image != kernel at the middle")
        else:
            if linalg.rank(fld, self.incl.matrix) != self.left.dim:
                raise ValueError("left map is not mono")
            if linalg.rank(fld, self.proj.matrix) != self.right.dim:
                raise ValueError("right map is not epi")
            if not fld.is_zero(fld.matmul(self.proj.matrix, self.incl.matrix)):
                raise ValueError("composite is nonzero")
            if self.left.dim + self.right.dim != self.middle.dim:
                raise ValueError("dimensions do not add up")
        return True


# -- presentations ------------------------------------------------------------


def free_presentation(x: Module) -> ShortExactSequence:
    """0 -> K -> A^(dim x) -> x -> 0 with the tautological epi a (x) v -> av."""
    alg = x.algebra
    fld = x.field
    p = free_module(alg, x.dim)
    epi = fld.zeros(x.dim, p.dim)
    for i in range(x.dim):
        for j in range(alg.dim):
            epi[:, i * alg.dim + j] = x.act(j)[:, i]
    epi_m = ModuleMorphism(p, x, epi)
    k, incl = kernel(epi_m)
    return ShortExactSequence(k, p, x, incl, epi_m)


def cover_presentation(x: Module) -> ShortExactSequence:
    """0 -> K -> P -> x -> 0 through the projective cover (quiver-presented)."""
    p, epi = projective_cover(x)
    k, incl = kernel(epi)
    return ShortExactSequence(k, p, x, incl, epi)


def presentation(x: Module, kind="cover") -> ShortExactSequence:
    key = ("presentation", kind if x.algebra.is_quiver_presented else "free")
    if key not in x._cache:
        if kind == "cover" and x.algebra.is_quiver_presented:
            x._cache[key] = cover_presentation(x)
        else:
            x._cache[key] = free_presentation(x)
    return x._cache[key]


def lambda_presentation(l: LambdaModule, cover=True) -> ShortExactSequence:
    """The T_A P (+) T_B V epimorphism onto a quadruple, with its kernel.

    P covers the A-component and V covers the B-component; the epi has
    components ((pi, g(1 (x) pi')); (f(1 (x) pi), pi')).
    """
    key = ("lambda_presentation", cover)
    if key in l._cache:
        return l._cache[key]
    data = l.data
    fld = l.field
    if cover and data.A.is_quiver_presented:
        p, pi = projective_cover(l.X)
    else:
        pres = free_presentation(l.X)
        p, pi = pres.middle, pres.proj
    if cover and data.B.is_quiver_presented:
        v, pi_p = projective_cover(l.Y)
    else:
        pres = free_presentation(l.Y)
        v, pi_p = pres.middle, pres.proj
    tap = functor_T(data, "A", p)
    tbv = functor_T(data, "B", v)
    mid, injs, projs = lambda_direct_sum([tap, tbv])
    # T_A P has Y-part M (x) P and T_B V has X-part N (x) V on the nose, so
    # the projections land directly in tensor coordinates.
    one_pi = _tensor_map(fld, tap.tX, l.tX, data.M.dim, pi.matrix)
    one_pi_p = _tensor_map(fld, tbv.tY, l.tY, data.N.dim, pi_p.matrix)
    a = fld.normalize(fld.matmul(pi.matrix, projs[0].a)
                      + fld.matmul(fld.matmul(l.g, one_pi_p), projs[1].a))
    b = fld.normalize(fld.matmul(pi_p.matrix, projs[1].b)
                      + fld.matmul(fld.matmul(l.f, one_pi), projs[0].b))
    epi = LambdaMorphism(mid, l, a, b)
    k, incl = lambda_kernel(epi)
    out = ShortExactSequence(k, mid, l, incl, epi)
    l._cache[key] = out
    return out


# -- hom coordinate helpers ----------------------------------------------------


class _HomSpaceCoords:
    """A hom space with coefficient extraction in the canonical basis."""

    def __init__(self, field, basis):
        self.field = field
        self.basis = basis
        self.pivots = basis_pivots(field, basis) if basis else []

    @property
    def dim(self):
        return len(self.basis)

    def coords(self, mat):
        return pivot_coordinates(self.pivots, mat)

    def matrix_of_map(self, images):
        """Coordinate matrix of a linear map into this hom space, given the
        image matrices of some domain basis."""
        out = self.field.zeros(self.dim, len(images))
        for j, img in enumerate(images):
            c = self.coords(img)
            for r in range(self.dim):
                out[r, j] = c[r]
        return out


def _hom_coords_plain(x, y):
    return _HomSpaceCoords(x.field, hom_space(x, y))


def _hom_coords_lambda(l1, l2):
    basis = lambda_hom_space(l1, l2)
    fld = l1.field

    class _Pair:
        def __init__(self, basis):
            self.basis = basis
            na = l2.X.dim * l1.X.dim
            self._vecs = [np.concatenate([phi.a.reshape(-1), phi.b.reshape(-1)])
                          for phi in basis]
            self.pivots = basis_pivots(fld, [v.reshape(1, -1) for v in self._vecs]) \
                if basis else []

        @property
        def dim(self):
            return len(self.basis)

        def coords(self, phi):
            return pivot_coordinates(
                self.pivots, np.concatenate([phi.a.reshape(-1), phi.b.reshape(-1)]))

        def matrix_of_map(self, images):
            out = fld.zeros(self.dim, len(images))
            for j, img in enumerate(images):
                c = self.coords(img)
                for r in range(self.dim):
                    out[r, j] = c[r]
            return out

    return _Pair(basis)


# -- Ext ----------------------------------------------------------------------


class ExtGroup:
    def __init__(self, source, target, degree, dimension, classes=()):
        self.source = source
        self.target = target
        self.degree = degree
        self.dimension = dimension
        self.classes = tuple(classes)  # realized SESs, degree 1 only

    def __repr__(self):
        return f"ExtGroup(degree={self.degree}, dim={self.dimension})"


def ext_dim(x, y, degree=1, presentation_kind="cover"):
    """dim Ext^degree(x, y); dispatches on plain vs quadruple modules."""
    if isinstance(x, LambdaModule):
        return _lambda_ext_dim(x, y, degree)
    return _plain_ext_dim(x, y, degree, presentation_kind)


def _plain_ext_dim(x, y, degree, presentation_kind="cover"):
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if x.dim == 0 or y.dim == 0:
        return 0
    for _ in range(degree - 1):
        pres = presentation(x, presentation_kind)
        x = pres.left
        if x.dim == 0:
            return 0
    pres = presentation(x, presentation_kind)
    return (hom_dim(pres.left, y) - hom_dim(pres.middle, y) + hom_dim(x, y))


def _lambda_ext_dim(l, t, degree):
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if l.total_dim == 0 or t.total_dim == 0:
        return 0
    for _ in range(degree - 1):
        pres = lambda_presentation(l)
        l = pres.left
        if l.total_dim == 0:
            return 0
    pres = lambda_presentation(l)
    return (lambda_hom_dim(pres.left, t) - lambda_hom_dim(pres.middle, t)
            + lambda_hom_dim(l, t))


def lambda_ext_dim_flatten(l, t, degree=1):
    """Cross-check route: flatten and compute over the materialized algebra."""
    x, y = flatten(l), flatten(t)
    return _plain_ext_dim(x, y, degree, presentation_kind="free")


def ext(x, y, degree=1, realize=True) -> ExtGroup:
    return ext_group(x, y, degree, realize)


def projective_presentation(x) -> ShortExactSequence:
    """The canonical projective presentation: tautological free cover for a
    plain module, the T (+) T cover for a quadruple."""
    if isinstance(x, LambdaModule):
        return lambda_presentation(x)
    return free_presentation(x)


def ext_group(x, y, degree=1, realize=True) -> ExtGroup:
    """ExtGroup with realized extension classes in degree 1 (plain modules
    use the canonical free presentation; quadruples the T (+) T one)."""
    if isinstance(x, LambdaModule):
        return _lambda_ext_group(x, y, degree, realize)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    orig = x
    for _ in range(degree - 1):
        x = free_presentation(x).left
    pres = free_presentation(x)
    hom_k = _hom_coords_plain(pres.left, y)
    hom_p = hom_space(pres.middle, y)
    images = [hom_k.field.matmul(m, pres.incl.matrix) for m in hom_p]
    restr = hom_k.matrix_of_map(images)
    dim = hom_k.dim - linalg.rank(y.field, restr)
    classes = []
    if realize and degree == 1 and dim:
        proj_q, sect_q = linalg.quotient(y.field, hom_k.dim, restr)
        for c in range(sect_q.shape[1]):
            psi = y.field.zeros(y.dim, pres.left.dim)
            for j in range(hom_k.dim):
                if sect_q[j, c] != y.field.zero:
                    psi = psi + sect_q[j, c] * hom_k.basis[j]
            classes.append(pushout_extension(pres, ModuleMorphism(pres.left, y,
                                                                  y.field.normalize(psi))))
    return ExtGroup(orig, y, degree, dim, classes)


def _lambda_ext_group(l, t, degree, realize):
    orig = l
    for _ in range(degree - 1):
        l = lambda_presentation(l).left
    pres = lambda_presentation(l)
    hom_k = _hom_coords_lambda(pres.left, t)
    hom_p = lambda_hom_space(pres.middle, t)
    images = [phi.compose(pres.incl) for phi in hom_p]
    restr = hom_k.matrix_of_map(images)
    fld = l.field
    dim = hom_k.dim - linalg.rank(fld, restr)
    classes = []
    if realize and degree == 1 and dim:
        proj_q, sect_q = linalg.quotient(fld, hom_k.dim, restr)
        for c in range(sect_q.shape[1]):
            a = fld.zeros(t.X.dim, pres.left.X.dim)
            b = fld.zeros(t.Y.dim, pres.left.Y.dim)
            for j in range(hom_k.dim):
                coef = sect_q[j, c]
                if coef != fld.zero:
                    a = a + coef * hom_k.basis[j].a
                    b = b + coef * hom_k.basis[j].b
            psi = LambdaMorphism(pres.left, t, fld.normalize(a), fld.normalize(b))
            classes.append(lambda_pushout_extension(pres, psi))
    return ExtGroup(orig, t, degree, dim, classes)


def pushout_extension(pres: ShortExactSequence, psi: ModuleMorphism) -> ShortExactSequence:
    """0 -> y -> E -> x -> 0 with E = (y (+) P) / {(-psi k, incl k)}."""
    y = psi.target
    fld = y.field
    s, injs, projs = direct_sum([y, pres.middle])
    kappa_m = fld.normalize(fld.matmul(injs[1].matrix, pres.incl.matrix)
                            - fld.matmul(injs[0].matrix, psi.matrix))
    kappa = ModuleMorphism(pres.left, s, kappa_m)
    e, quot = cokernel(kappa)
    incl_y = quot.compose(injs[0])
    # the epi to x kills the image of kappa, hence descends
    to_x = fld.matmul(pres.proj.matrix, projs[1].matrix)
    sol = linalg.solve(fld, quot.matrix.T, to_x.T)
    proj_x = ModuleMorphism(e, pres.right, sol.T)
    return ShortExactSequence(y, e, pres.right, incl_y, proj_x)


def lambda_pushout_extension(pres: ShortExactSequence, psi: LambdaMorphism) -> ShortExactSequence:
    t = psi.target
    fld = t.field
    s, injs, projs = lambda_direct_sum([t, pres.middle])
    a = fld.normalize(fld.matmul(injs[1].a, pres.incl.a) - fld.matmul(injs[0].a, psi.a))
    b = fld.normalize(fld.matmul(injs[1].b, pres.incl.b) - fld.matmul(injs[0].b, psi.b))
    kappa = LambdaMorphism(pres.left, s, a, b)
    e, quot = _lambda_cokernel_of(kappa)
    incl_t = quot.compose(injs[0])
    to_x_a = fld.matmul(pres.proj.a, projs[1].a)
    to_x_b = fld.matmul(pres.proj.b, projs[1].b)
    sol_a = linalg.solve(fld, quot.a.T, to_x_a.T)
    sol_b = linalg.solve(fld, quot.b.T, to_x_b.T)
    proj_x = LambdaMorphism(e, pres.right, sol_a.T, sol_b.T)
    return ShortExactSequence(t, e, pres.right, incl_t, proj_x)


def _lambda_cokernel_of(phi):
    from .morita import lambda_cokernel

    return lambda_cokernel(phi)


# -- splitting -----------------------------------------------------------------


def splits(ses: ShortExactSequence):
    """(bool, retraction or None): does a retraction of the inclusion exist?"""
    fld = ses.incl.field
    if ses.is_lambda:
        lx, ly = ses.left.X.dim, ses.left.Y.dim
        mx, my = ses.middle.X.dim, ses.middle.Y.dim
        na = lx * mx
        rows_a = linalg.kron(fld, fld.eye(lx), ses.incl.a.T)
        rows_b = linalg.kron(fld, fld.eye(ly), ses.incl.b.T)
        blk_a = fld.zeros(rows_a.shape[0], na + ly * my)
        blk_a[:, :na] = rows_a
        blk_b = fld.zeros(rows_b.shape[0], na + ly * my)
        blk_b[:, na:] = rows_b
        r = solve_lambda_hom_equation(
            ses.middle, ses.left,
            [(blk_a, fld.eye(lx).reshape(-1)), (blk_b, fld.eye(ly).reshape(-1))])
        return (r is not None), r
    n = ses.left.dim
    coeff = linalg.kron(fld, fld.eye(n), ses.incl.matrix.T)
    r = solve_hom_equation(ses.middle, ses.left, [(coeff, fld.eye(n).reshape(-1))])
    return (r is not None), r


def ext_class_is_zero(ses: ShortExactSequence) -> bool:
    """Compute the connecting class of the sequence from the canonical
    presentation of its right term; zero iff split (cross-check for splits)."""
    if ses.is_lambda:
        pres = lambda_presentation(ses.right)
        lift = _lambda_lift(pres.proj, ses.proj)
        ka = lift.field.matmul(lift.a, pres.incl.a)
        kb = lift.field.matmul(lift.b, pres.incl.b)
        sol_a = linalg.solve(lift.field, ses.incl.a, ka)
        sol_b = linalg.solve(lift.field, ses.incl.b, kb)
        psi = LambdaMorphism(pres.left, ses.left, sol_a, sol_b)
        # zero class iff psi extends to pres.middle -> left
        fld = lift.field
        lx, ly = ses.left.X.dim, ses.left.Y.dim
        na = pres.middle.X.dim * lx
        rows_a = linalg.kron(fld, fld.eye(lx), pres.incl.a.T)
        rows_b = linalg.kron(fld, fld.eye(ly), pres.incl.b.T)
        blk_a = fld.zeros(rows_a.shape[0], na + pres.middle.Y.dim * ly)
        blk_a[:, :na] = rows_a
        blk_b = fld.zeros(rows_b.shape[0], na + pres.middle.Y.dim * ly)
        blk_b[:, na:] = rows_b
        ext = solve_lambda_hom_equation(
            pres.middle, ses.left,
            [(blk_a, psi.a.reshape(-1)), (blk_b, psi.b.reshape(-1))])
        return ext is not None
    pres = free_presentation(ses.right)
    lift = lift_through_epi(pres.proj, ses.proj)
    if lift is None:
        raise AssertionError("projective failed to lift through an epi")
    fld = lift.field
    to_left = linalg.solve(fld, ses.incl.matrix, fld.matmul(lift.matrix, pres.incl.matrix))
    psi = ModuleMorphism(pres.left, ses.left, to_left)
    coeff = linalg.kron(fld, fld.eye(ses.left.dim), pres.incl.matrix.T)
    ext = solve_hom_equation(pres.middle, ses.left, [(coeff, psi.matrix.reshape(-1))])
    return ext is not None


def _lambda_lift(phi: LambdaMorphism, epi: LambdaMorphism):
    """h with epi . h = phi (exists when phi.source is projective)."""
    fld = phi.field
    src, mid = phi.source, epi.source
    na = mid.X.dim * src.X.dim
    nb = mid.Y.dim * src.Y.dim
    rows_a = linalg.kron(fld, epi.a, fld.eye(src.X.dim))
    rows_b = linalg.kron(fld, epi.b, fld.eye(src.Y.dim))
    blk_a = fld.zeros(rows_a.shape[0], na + nb)
    blk_a[:, :na] = rows_a
    blk_b = fld.zeros(rows_b.shape[0], na + nb)
    blk_b[:, na:] = rows_b
    h = solve_lambda_hom_equation(src, mid, [(blk_a, phi.a.reshape(-1)),
                                             (blk_b, phi.b.reshape(-1))])
    if h is None:
        raise AssertionError("lift through lambda epi failed")
    return h


# -- Tor ------------------------------------------------------------------------


def tor1(m, x: Module):
    """(dimension, witness kernel basis) of Tor_1(M, x), computed as
    ker(M (x) K -> M (x) P) from the canonical presentation of x."""
    pres = presentation(x)
    tk = tensor_over(m, pres.left)
    tp = tensor_over(m, pres.middle)
    fld = x.field
    induced = _tensor_map(fld, tk, tp, m.dim, pres.incl.matrix)
    basis = linalg.kernel_basis(fld, induced)
    return basis.shape[1], basis


# -- dimension bounds -----------------------------------------------------------


def is_projective_lambda(l: LambdaModule) -> bool:
    """Ext^1 against all the structural simples vanishes."""
    if l.total_dim == 0:
        return True
    s, _, _ = lambda_direct_sum(lambda_simples(l.data))
    return _lambda_ext_dim(l, s, 1) == 0


def proj_dim_upto(x, bound=DEFAULT_DIM_BOUND):
    """Exact projective dimension when <= bound, else None."""
    if isinstance(x, LambdaModule):
        for d in range(bound + 1):
            if is_projective_lambda(x):
                return d
            x = lambda_presentation(x).left
        return None
    for d in range(bound + 1):
        if is_projective_module(x):
            return d
        x = presentation(x).left
    return None


def inj_dim_upto(x, bound=DEFAULT_DIM_BOUND):
    """Injective dimension through the dual over the opposite algebra."""
    if isinstance(x, LambdaModule):
        return _lambda_inj_dim_upto(x, bound)
    return proj_dim_upto(dual_module(x), bound)


def _lambda_inj_dim_upto(l: LambdaModule, bound):
    """proj.dim of the dual quadruple over the opposite Morita data."""
    from .morita import dual_lambda

    return proj_dim_upto(dual_lambda(l), bound)


# -- the displayed two-term resolutions ------------------------------------------


def resolution_pq(l: LambdaModule) -> ShortExactSequence:
    """Projective resolution 0 -> (N(x)Q; M(x)P)_{0,0} -> T_A P (+) T_B Q ->
    (P;Q)_{f,g} -> 0 for componentwise projective quadruples."""
    data = l.data
    fld = l.field
    if not data.tensor_vanishing:
        raise ValueError("resolution needs both tensor products to vanish")
    if not (is_projective_module(l.X) and is_projective_module(l.Y)):
        raise ValueError("components are not projective")
    tap = functor_T(data, "A", l.X)
    tbq = functor_T(data, "B", l.Y)
    mid, injs, projs = lambda_direct_sum([tap, tbq])
    a = fld.normalize(fld.matmul(fld.eye(l.X.dim), projs[0].a)
                      + fld.matmul(l.g, projs[1].a))
    b = fld.normalize(fld.matmul(l.f, projs[0].b) + fld.matmul(fld.eye(l.Y.dim), projs[1].b))
    epi = LambdaMorphism(mid, l, a, b)
    left = LambdaModule(data, l.tY.module, l.tX.module,
                        fld.zeros(l.tX.dim, tensor_over(data.M, l.tY.module).dim),
                        fld.zeros(l.tY.dim, tensor_over(data.N, l.tX.module).dim))
    ia = fld.normalize(fld.matmul(injs[0].a, fld.normalize(-l.g)) + injs[1].a)
    ib = fld.normalize(injs[0].b + fld.matmul(injs[1].b, fld.normalize(-l.f)))
    mono = LambdaMorphism(left, mid, ia, ib)
    return ShortExactSequence(left, mid, l, mono, epi)


def coresolution_ij(l: LambdaModule) -> ShortExactSequence:
    """Injective resolution 0 -> (I;J) -> H_A I (+) H_B J ->
    (Hom_B(M,J); Hom_A(N,I))_{0,0} -> 0 for componentwise injectives."""
    data = l.data
    fld = l.field
    if not data.tensor_vanishing:
        raise ValueError("coresolution needs both tensor products to vanish")
    from .algebras import is_injective_module

    if not (is_injective_module(l.X) and is_injective_module(l.Y)):
        raise ValueError("components are not injective")
    hai = functor_H(data, "A", l.X)
    hbj = functor_H(data, "B", l.Y)
    mid, injs, projs = lambda_direct_sum([hai, hbj])
    # mono components a = [1; f~], b = [g~; 1] in the hom coordinates
    a = fld.normalize(injs[0].a + fld.matmul(injs[1].a, l.f_tilde))
    b = fld.normalize(fld.matmul(injs[0].b, l.g_tilde) + injs[1].b)
    mono = LambdaMorphism(l, mid, a, b)
    right = LambdaModule(data, hbj.X, hai.Y,
                         fld.zeros(hai.Y.dim, tensor_over(data.M, hbj.X).dim),
                         fld.zeros(hbj.X.dim, tensor_over(data.N, hai.Y).dim))
    # epi components a = (-f~, 1), b = (1, -g~)
    pa = fld.normalize(projs[1].a - fld.matmul(l.f_tilde, projs[0].a))
    pb = fld.normalize(projs[0].b - fld.matmul(l.g_tilde, projs[1].b))
    epi = LambdaMorphism(mid, right, pa, pb)
    return ShortExactSequence(l, mid, right, mono, epi)


# -- injective presentations -----------------------------------------------------


def injective_presentation(x: Module) -> ShortExactSequence:
    """0 -> x -> I -> C -> 0 with I the injective envelope."""
    i, mono = injective_envelope(x)
    c, proj = cokernel(mono)
    return ShortExactSequence(x, i, c, mono, proj)


def _hom_post(field, hom_src, hom_tgt, phi):
    """Postcomposition Hom(bim, Y1) -> Hom(bim, Y2) along phi: Y1 -> Y2,
    in the canonical hom coordinates."""
    cols = []
    for mat in hom_src.basis:
        cols.append(hom_tgt.coordinates(field.matmul(phi, mat)))
    out = field.zeros(hom_tgt.dim, hom_src.dim)
    for j, c in enumerate(cols):
        for r in range(hom_tgt.dim):
            out[r, j] = c[r]
    return out


# -- the four approximation constructions -----------------------------------------


class ApproxResult:
    """An approximation sequence together with the ingredients needed to
    check the displayed shape of its outer term."""

    def __init__(self, ses, parts):
        self.ses = ses
        self.parts = parts


def approx_c1(l: LambdaModule, pi=None, ses0=None) -> ApproxResult:
    """Epi T_A P (+) T_B V ->> L with kernel of shape (K; (M(x)P) (+) Y).

    pi: a chosen epi P ->> X with P projective (default: projective cover);
    ses0: a chosen exact sequence 0 -> Y -> V -> L_2 -> 0 (default: the
    cover presentation).  Hypothesis: M projective as a left module.
    """
    data = l.data
    if not is_projective_module(data.M.as_left_module()):
        raise ValueError("construction needs M projective as a left module")
    fld = l.field
    if pi is None:
        _, pi = projective_cover(l.X)
    if ses0 is None:
        ses0 = cover_presentation(l.Y)
    p = pi.source
    v = ses0.middle
    tap = functor_T(data, "A", p)
    tbv = functor_T(data, "B", v)
    mid, injs, projs = lambda_direct_sum([tap, tbv])
    one_pi = _tensor_map(fld, tap.tX, l.tX, data.M.dim, pi.matrix)
    one_pi_p = _tensor_map(fld, tbv.tY, l.tY, data.N.dim, ses0.proj.matrix)
    a = fld.normalize(fld.matmul(pi.matrix, projs[0].a)
                      + fld.matmul(fld.matmul(l.g, one_pi_p), projs[1].a))
    b = fld.normalize(fld.matmul(ses0.proj.matrix, projs[1].b)
                      + fld.matmul(fld.matmul(l.f, one_pi), projs[0].b))
    epi = LambdaMorphism(mid, l, a, b)
    k, incl = lambda_kernel(epi)
    out = ShortExactSequence(k, mid, l, incl, epi)
    mp = tensor_over(data.M, p)
    return ApproxResult(out, {"P": p, "V": v, "Y": ses0.left, "MP": mp.module})


def approx_c2(l: LambdaModule, pi=None, ses0=None) -> ApproxResult:
    """Epi T_A U (+) T_B Q ->> L with kernel of shape (X (+) (N(x)Q); K).
    Hypothesis: N projective as a left module."""
    data = l.data
    if not is_projective_module(data.N.as_left_module()):
        raise ValueError("construction needs N projective as a left module")
    fld = l.field
    if pi is None:
        _, pi = projective_cover(l.Y)
    if ses0 is None:
        ses0 = cover_presentation(l.X)
    q = pi.source
    u = ses0.middle
    tau = functor_T(data, "A", u)
    tbq = functor_T(data, "B", q)
    mid, injs, projs = lambda_direct_sum([tau, tbq])
    one_pi_p = _tensor_map(fld, tau.tX, l.tX, data.M.dim, ses0.proj.matrix)
    one_pi = _tensor_map(fld, tbq.tY, l.tY, data.N.dim, pi.matrix)
    a = fld.normalize(fld.matmul(ses0.proj.matrix, projs[0].a)
                      + fld.matmul(fld.matmul(l.g, one_pi), projs[1].a))
    b = fld.normalize(fld.matmul(pi.matrix, projs[1].b)
                      + fld.matmul(fld.matmul(l.f, one_pi_p), projs[0].b))
    epi = LambdaMorphism(mid, l, a, b)
    k, incl = lambda_kernel(epi)
    out = ShortExactSequence(k, mid, l, incl, epi)
    nq = tensor_over(data.N, q)
    return ApproxResult(out, {"Q": q, "U": u, "X": ses0.left, "NQ": nq.module})


def approx_c3(l: LambdaModule, sigma=None, ses0=None) -> ApproxResult:
    """Mono L -> H_A I (+) H_B Y with cokernel of shape (C; Hom(N,I) (+) V).
    Hypothesis: N flat (= projective here) as a right module."""
    data = l.data
    if not is_projective_module(data.N.right_as_left_module()):
        raise ValueError("construction needs N flat as a right module")
    fld = l.field
    if sigma is None:
        _, sigma = injective_envelope(l.X)
    if ses0 is None:
        ses0 = injective_presentation(l.Y)
    i = sigma.target
    y = ses0.middle
    hai = functor_H(data, "A", i)
    hby = functor_H(data, "B", y)
    mid, injs, projs = lambda_direct_sum([hai, hby])
    from .algebras import hom_module

    hom_ml2 = l.hom_MY()
    hom_my = hom_module(data.M, y)
    hom_nl1 = l.hom_NX()
    hom_ni = hom_module(data.N, i)
    post_f = _hom_post(fld, hom_ml2, hom_my, ses0.incl.matrix)
    post_g = _hom_post(fld, hom_nl1, hom_ni, sigma.matrix)
    a = fld.normalize(fld.matmul(injs[0].a, sigma.matrix)
                      + fld.matmul(injs[1].a, fld.matmul(post_f, l.f_tilde)))
    b = fld.normalize(fld.matmul(injs[0].b, fld.matmul(post_g, l.g_tilde))
                      + fld.matmul(injs[1].b, ses0.incl.matrix))
    mono = LambdaMorphism(l, mid, a, b)
    from .morita import lambda_cokernel

    c, proj = lambda_cokernel(mono)
    out = ShortExactSequence(l, mid, c, mono, proj)
    return ApproxResult(out, {"I": i, "Y": y, "V": ses0.right, "HNI": hom_ni.module})


def approx_c4(l: LambdaModule, sigma=None, ses0=None) -> ApproxResult:
    """Mono L -> H_A X (+) H_B J with cokernel of shape (U (+) Hom(M,J); C).
    Hypothesis: M flat (= projective here) as a right module."""
    data = l.data
    if not is_projective_module(data.M.right_as_left_module()):
        raise ValueError("construction needs M flat as a right module")
    fld = l.field
    if sigma is None:
        _, sigma = injective_envelope(l.Y)
    if ses0 is None:
        ses0 = injective_presentation(l.X)
    j = sigma.target
    x = ses0.middle
    hax = functor_H(data, "A", x)
    hbj = functor_H(data, "B", j)
    mid, injs, projs = lambda_direct_sum([hax, hbj])
    from .algebras import hom_module

    hom_ml2 = l.hom_MY()
    hom_mj = hom_module(data.M, j)
    hom_nl1 = l.hom_NX()
    hom_nx = hom_module(data.N, x)
    post_f = _hom_post(fld, hom_ml2, hom_mj, sigma.matrix)
    post_g = _hom_post(fld, hom_nl1, hom_nx, ses0.incl.matrix)
    a = fld.normalize(fld.matmul(injs[0].a, ses0.incl.matrix)
                      + fld.matmul(injs[1].a, fld.matmul(post_f, l.f_tilde)))
    b = fld.normalize(fld.matmul(injs[0].b, fld.matmul(post_g, l.g_tilde))
                      + fld.matmul(injs[1].b, sigma.matrix))
    mono = LambdaMorphism(l, mid, a, b)
    from .morita import lambda_cokernel

    c, proj = lambda_cokernel(mono)
    out = ShortExactSequence(l, mid, c, mono, proj)
    return ApproxResult(out, {"J": j, "X": x, "U": ses0.right, "HMJ": hom_mj.module})


# -- horseshoe merge ---------------------------------------------------------------


class HorseshoeResult:
    def __init__(self, ses, middle_extension):
        self.ses = ses
        self.middle_extension = middle_extension  # 0 -> A1 -> G -> A2 -> 0


def horseshoe_merge(s: ShortExactSequence, approx_left: ShortExactSequence,
                    approx_right: ShortExactSequence) -> HorseshoeResult:
    """Merge special right approximations of the outer terms of s into one of
    the middle term (quadruple modules).

    approx_left: 0 -> B1 -> A1 -> s.left -> 0, approx_right likewise for
    s.right.  Requires Ext^2(A2, B1) = 0 (hereditary setting); fails loudly
    otherwise.
    """
    fld = s.incl.field
    mid, a2 = s.middle, approx_right.middle
    # pullback E of (mid ->> s.right <<- A2)
    sum_mod, injs, projs = lambda_direct_sum([mid, a2])
    d_a = fld.normalize(fld.matmul(s.proj.a, projs[0].a)
                        - fld.matmul(approx_right.proj.a, projs[1].a))
    d_b = fld.normalize(fld.matmul(s.proj.b, projs[0].b)
                        - fld.matmul(approx_right.proj.b, projs[1].b))
    delta = LambdaMorphism(sum_mod, s.right, d_a, d_b)
    e, incl_e = lambda_kernel(delta)
    e_mid = projs[0].compose(incl_e)
    e_a2 = projs[1].compose(incl_e)
    # X = s.left sits inside E via (incl, 0)
    mu_a = fld.matmul(injs[0].a, s.incl.a)
    mu_b = fld.matmul(injs[0].b, s.incl.b)
    j_a = linalg.solve(fld, incl_e.a, mu_a)
    j_b = linalg.solve(fld, incl_e.b, mu_b)
    j = LambdaMorphism(s.left, e, j_a, j_b)

    pres = lambda_presentation(a2)
    h = _lambda_lift(pres.proj, e_a2)
    psi_xi_a = linalg.solve(fld, j.a, fld.matmul(h.a, pres.incl.a))
    psi_xi_b = linalg.solve(fld, j.b, fld.matmul(h.b, pres.incl.b))
    if psi_xi_a is None or psi_xi_b is None:
        raise AssertionError("pullback class failed to restrict")
    psi_xi = LambdaMorphism(pres.left, s.left, psi_xi_a, psi_xi_b)

    hom_ka1 = _hom_coords_lambda(pres.left, approx_left.middle)
    hom_px = _hom_coords_lambda(pres.middle, s.left)
    hom_kx = _hom_coords_lambda(pres.left, s.left)
    m1 = hom_kx.matrix_of_map([approx_left.proj.compose(psi) for psi in hom_ka1.basis])
    m2 = hom_kx.matrix_of_map([phi.compose(pres.incl) for phi in hom_px.basis])
    lhs = linalg.hstack(fld, [m1, m2])
    target = hom_kx.coords(psi_xi)
    rhs = fld.zeros(hom_kx.dim, 1)
    for r in range(hom_kx.dim):
        rhs[r, 0] = target[r]
    sol = linalg.solve(fld, lhs, rhs)
    if sol is None:
        raise ValueError("horseshoe obstruction: Ext^2 correction has no solution")
    psi_eta_a = fld.zeros(approx_left.middle.X.dim, pres.left.X.dim)
    psi_eta_b = fld.zeros(approx_left.middle.Y.dim, pres.left.Y.dim)
    for idx in range(hom_ka1.dim):
        c = sol[idx, 0]
        if c != fld.zero:
            psi_eta_a = psi_eta_a + c * hom_ka1.basis[idx].a
            psi_eta_b = psi_eta_b + c * hom_ka1.basis[idx].b
    psi_eta = LambdaMorphism(pres.left, approx_left.middle,
                             fld.normalize(psi_eta_a), fld.normalize(psi_eta_b))
    phi_a = fld.zeros(s.left.X.dim, pres.middle.X.dim)
    phi_b = fld.zeros(s.left.Y.dim, pres.middle.Y.dim)
    for idx in range(hom_px.dim):
        c = sol[hom_ka1.dim + idx, 0]
        if c != fld.zero:
            phi_a = phi_a + c * hom_px.basis[idx].a
            phi_b = phi_b + c * hom_px.basis[idx].b
    phi = LambdaMorphism(pres.middle, s.left, fld.normalize(phi_a), fld.normalize(phi_b))

    eta_ses, quot, sum2_injs = _lambda_pushout_with_projection(pres, psi_eta)
    g_mod = eta_ses.middle
    # corrected lift h' = h - j . phi, then mu on A1 (+) P is (j p1, h');
    # columns of the sum are the A1-part then the P-part
    hp_a = fld.normalize(h.a - fld.matmul(j.a, phi.a))
    hp_b = fld.normalize(h.b - fld.matmul(j.b, phi.b))
    mu_on_a1_a = fld.matmul(j.a, approx_left.proj.a)
    mu_on_a1_b = fld.matmul(j.b, approx_left.proj.b)
    a1 = approx_left.middle
    p = pres.middle
    mu_big_a = fld.zeros(e.X.dim, a1.X.dim + p.X.dim)
    mu_big_a[:, : a1.X.dim] = mu_on_a1_a
    mu_big_a[:, a1.X.dim :] = hp_a
    mu_big_b = fld.zeros(e.Y.dim, a1.Y.dim + p.Y.dim)
    mu_big_b[:, : a1.Y.dim] = mu_on_a1_b
    mu_big_b[:, a1.Y.dim :] = hp_b
    gbar_a = linalg.solve(fld, quot.a.T, mu_big_a.T)
    gbar_b = linalg.solve(fld, quot.b.T, mu_big_b.T)
    if gbar_a is None or gbar_b is None:
        raise AssertionError("pushout comparison map failed to descend")
    gbar = LambdaMorphism(g_mod, e, gbar_a.T, gbar_b.T)
    theta = e_mid.compose(gbar)
    ker, incl_k = lambda_kernel(theta)
    out = ShortExactSequence(ker, g_mod, mid, incl_k, theta)
    return HorseshoeResult(out, eta_ses)


def _lambda_pushout_with_projection(pres, psi):
    """lambda_pushout_extension that also exposes the quotient map from
    target (+) middle and the sum injections."""
    t = psi.target
    fld = t.field
    s, injs, projs = lambda_direct_sum([t, pres.middle])
    a = fld.normalize(fld.matmul(injs[1].a, pres.incl.a) - fld.matmul(injs[0].a, psi.a))
    b = fld.normalize(fld.matmul(injs[1].b, pres.incl.b) - fld.matmul(injs[0].b, psi.b))
    kappa = LambdaMorphism(pres.left, s, a, b)
    from .morita import lambda_cokernel

    e, quot = lambda_cokernel(kappa)
    incl_t = quot.compose(injs[0])
    to_x_a = fld.matmul(pres.proj.a, projs[1].a)
    to_x_b = fld.matmul(pres.proj.b, projs[1].b)
    sol_a = linalg.solve(fld, quot.a.T, to_x_a.T)
    sol_b = linalg.solve(fld, quot.b.T, to_x_b.T)
    proj_x = LambdaMorphism(e, pres.right, sol_a.T, sol_b.T)
    ses = ShortExactSequence(t, e, pres.right, incl_t, proj_x)
    # the quotient is from the direct sum whose coordinates are t then middle
    quot_from_blocks = LambdaMorphism(s, e, quot.a, quot.b)
    return ses, quot_from_blocks, injs
