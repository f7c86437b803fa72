"""Presentations, syzygies, Ext and Tor, splitting tests, projective and
injective dimension bounds, and the explicit resolution and approximation
constructions for quadruple modules.

Plain modules and quadruples share one code path: a construction reads a
morphism's blocks through its ``components``, (matrix,) or (a, b), and does
to each block of a quadruple map what it does to the matrix of a plain one.
``ext_dim`` is the only Ext entry point.  Exactness is
decided the same way: a ShortExactSequence checks itself once, when it is
built, block by block, and no other code re-checks it.

Every module has one presentation 0 -> K -> P -> x -> 0, presentation(x):
the T-cover lambda_presentation for a quadruple, the projective cover for a
module over a quiver-presented algebra, and the free cover A^(dim x) ->> x
otherwise.  Ext does not depend on the choice, so no caller chooses.
Ext^1(x, y) is coker(Hom(P, y) -> Hom(K, y)); higher degrees shift along
syzygies.  Its dimension is dim Hom(K, y) - dim Hom(P, y) + dim Hom(x, y).
A cover or T-cover presentation records its middle P as a sum of
indecomposable projectives, and then dim Hom(P, y) needs no solve: it is the
sum of the dim e_v y over the summands Ae_v (Yoneda), and for a T-cover
Hom(T_A P (+) T_B V, y) = Hom_A(P, y.X) (+) Hom_B(V, y.Y) by the adjunctions
T_A -| U_A and T_B -| U_B.  A free presentation records nothing, so its
middle term is solved.  The materialized Morita ring has no quiver, so the
flattened cross-checks run on the free presentation, and check the closed
form rather than trust it.

Ext^1 of quadruples x = (X, Y, f, g) and y = (X', Y', f', g') needs no
presentation when M (x)_A N = 0 = N (x)_B M and either X and Y are
projective or X' and Y' are injective (A and B quiver-presented, so that
both tests are covers):

    dim Ext^1(x, y) = dim Hom_B(M (x) X, Y') + dim Hom_A(N (x) Y, X')
                      - dim Hom_A(X, X') - dim Hom_B(Y, Y') + dim Hom(x, y).

For y injective, coresolution_ij(y) is 0 -> y -> H_A X' (+) H_B Y' -> C -> 0
with C = (Hom_B(M, Y'); Hom_A(N, X'))_{0,0} and an injective middle term,
so dim Ext^1(x, y) = dim Hom(x, C) - dim Hom(x, H_A X' (+) H_B Y') +
dim Hom(x, y).  By U -| H, Hom(x, H_A X') = Hom_A(X, X'), and likewise on
B.  A map x -> C is a pair X -> Hom_B(M, Y'), Y -> Hom_A(N, X'), that is by
tensor-hom adjunction a pair M (x) X -> Y', N (x) Y -> X'; its square
conditions live on M (x) N (x) Y and N (x) M (x) X, which vanish.  For x
projective, resolution_pq(x) is 0 -> (N (x) Y; M (x) X)_{0,0} -> T_A X (+)
T_B Y -> x -> 0, and T -| U counts the same terms.  Every other pair goes
along presentation(x); a degree above 1 shifts x along its syzygies first
and then takes whichever route the syzygy allows.

Extension classes are realized by pushout along a representative K -> y, so
splitting and class vanishing agree by construction.  Extending along a mono
and lifting along an epi solve for coefficients in the canonical basis of
the hom space, so every morphism solved for is a combination of that basis.
The approximation sequences come from two builders: the T-cover
T_A P (+) T_B V ->> L of a pair of epis P ->> X, V ->> Y, and the H-envelope
L >-> H_A I (+) H_B J of a pair of monos X >-> I, Y >-> J.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebras import (
    Module, ModuleMorphism, _left_times, _stack, _times, basis_pivots, cokernel,
    coordinates, cover_vertices, direct_sum, dual_module, free_module, hom_dim,
    hom_module, hom_space, injective_envelope, is_injective_module,
    is_projective_module, kernel, memo, projective_cover, projective_hom_dim,
)
from .morita import (
    LambdaModule, LambdaMorphism, dual_lambda, flatten, functor_H, functor_T,
    lambda_cokernel, lambda_direct_sum, lambda_hom_dim, lambda_hom_space,
    lambda_kernel, lambda_simples, tensor_over, _tensor_map,
)

DEFAULT_DIM_BOUND = 4


class ShortExactSequence:
    """0 -> left -> middle -> right -> 0, plain or quadruple; checked exact
    when built."""

    def __init__(self, left, middle, right, incl, proj):
        self.left = left
        self.middle = middle
        self.right = right
        self.incl = incl
        self.proj = proj
        self.validate()

    def validate(self):
        self.incl.validate()
        self.proj.validate()
        fld = self.incl.field
        for i, p, left, middle, right in zip(self.incl.components, self.proj.components,
                                             _dims(self.left), _dims(self.middle),
                                             _dims(self.right)):
            if linalg.rank(fld, i) != left:
                raise ValueError("left map is not mono")
            if linalg.rank(fld, p) != right:
                raise ValueError("right map is not epi")
            if not fld.is_zero(fld.matmul(p, i)):
                raise ValueError("composite is nonzero")
            if left + right != middle:
                raise ValueError("dimensions do not add up")
        return True


class Presentation(ShortExactSequence):
    """0 -> K -> P -> x -> 0 presenting x.  tops records P as a sum of
    indecomposable projectives: for each block of P, the vertex index of
    each summand Ae_v in summand order, so (vertices,) for a cover and
    (vertices over A, vertices over B) for a T-cover T_A P (+) T_B V.  It is
    None when nothing is recorded: for a free presentation, whose middle
    term is then solved, and for the approximations, whose V need not be
    projective."""

    def __init__(self, left, middle, right, incl, proj, tops):
        self.tops = tops
        super().__init__(left, middle, right, incl, proj)


# -- plain or quadruple ---------------------------------------------------------


def _dims(x):
    """The dimensions of the blocks of a module: (dim,) or (dim X, dim Y)."""
    return x.dims if isinstance(x, LambdaModule) else (x.dim,)


def _blocks(x):
    """The blocks of a module: (x,) or (X, Y)."""
    return (x.X, x.Y) if isinstance(x, LambdaModule) else (x,)


def _morphism(source, target, components):
    kind = LambdaMorphism if isinstance(source, LambdaModule) else ModuleMorphism
    return kind(source, target, *components)


def _blockwise(fn, *maps):
    """fn applied to the corresponding blocks of the given morphisms."""
    return [fn(*blocks) for blocks in zip(*(m.components for m in maps))]


def _hom_basis(x, y):
    """The canonical basis of Hom(x, y), as morphisms."""
    if isinstance(x, LambdaModule):
        return lambda_hom_space(x, y)
    return [ModuleMorphism(x, y, m) for m in hom_space(x, y)]


def _hom_dim(x, y):
    return lambda_hom_dim(x, y) if isinstance(x, LambdaModule) else hom_dim(x, y)


# -- presentations ------------------------------------------------------------


def free_presentation(x: Module) -> Presentation:
    """0 -> K -> A^(dim x) -> x -> 0 with the tautological epi a (x) v -> av."""
    p = free_module(x.algebra, x.dim)
    # the basis element (i, j) of the free module, copy i and algebra basis
    # element j, goes to basis_j x_i
    epi_m = ModuleMorphism(p, x, x.action.transpose(1, 2, 0).reshape(x.dim, p.dim))
    k, incl = kernel(epi_m)
    return Presentation(k, p, x, incl, epi_m, None)


def cover_presentation(x: Module) -> Presentation:
    """0 -> K -> P -> x -> 0 through the projective cover (quiver-presented),
    with the vertices of P's summands."""
    p, epi = projective_cover(x)
    k, incl = kernel(epi)
    return Presentation(k, p, x, incl, epi, (cover_vertices(x),))


def presentation(x) -> Presentation:
    """The one presentation that Ext, Tor, syzygies and dimension bounds
    use: for a quadruple its lambda_presentation; for a plain module the
    cover presentation when the algebra is quiver-presented, else the free
    one (cached on the module)."""
    if isinstance(x, LambdaModule):
        return lambda_presentation(x)
    build = cover_presentation if x.algebra.is_quiver_presented else free_presentation
    return memo(x._cache, "presentation", lambda: build(x))


def _cover_epi(x: Module):
    """(epi, vertices): the projective cover of x and the vertices of its
    summands when its algebra is quiver-presented, else the tautological
    free cover and None."""
    if x.algebra.is_quiver_presented:
        return projective_cover(x)[1], cover_vertices(x)
    return free_presentation(x).proj, None


def lambda_presentation(l: LambdaModule) -> Presentation:
    """The T-cover of a quadruple by the covers (_cover_epi) of its two
    components, with its kernel; cached on the quadruple."""
    def build():
        (pi_a, tops_a), (pi_b, tops_b) = _cover_epi(l.X), _cover_epi(l.Y)
        return _t_cover(l, pi_a, pi_b,
                        None if tops_a is None or tops_b is None else (tops_a, tops_b))
    return memo(l._cache, "lambda_presentation", build)


def _t_cover(l: LambdaModule, pi_a: ModuleMorphism, pi_b: ModuleMorphism, tops) -> Presentation:
    """0 -> K -> T_A P (+) T_B V -> l -> 0 from epis pi_a: P ->> X and
    pi_b: V ->> Y; tops are the vertices of the summands of P and V, or
    None.  The epi has components ((pi_a, g(1 (x) pi_b));
    (f(1 (x) pi_a), pi_b))."""
    data = l.data
    fld = l.field
    tap = functor_T(data, "A", pi_a.source)
    tbv = functor_T(data, "B", pi_b.source)
    mid, _, projs = lambda_direct_sum([tap, tbv])
    # T_A P has Y-part M (x) P and T_B V has X-part N (x) V on the nose, so
    # the projections land directly in tensor coordinates.
    one_pi_a = _tensor_map(fld, tap.tX, l.tX, pi_a.matrix)
    one_pi_b = _tensor_map(fld, tbv.tY, l.tY, pi_b.matrix)
    a = fld.normalize(fld.matmul(pi_a.matrix, projs[0].a)
                      + fld.matmul(fld.matmul(l.g, one_pi_b), projs[1].a))
    b = fld.normalize(fld.matmul(pi_b.matrix, projs[1].b)
                      + fld.matmul(fld.matmul(l.f, one_pi_a), projs[0].b))
    epi = LambdaMorphism(mid, l, a, b)
    k, incl = lambda_kernel(epi)
    return Presentation(k, mid, l, incl, epi, tops)


# -- hom coordinates -----------------------------------------------------------


def _flat(phi):
    """A morphism's coordinate vector in the unknowns of the hom solver: the
    row-major entries of its blocks, one block after the other."""
    return np.concatenate([c.reshape(-1) for c in phi.components])


def _basis_blocks(source, target, basis):
    """The blocks of the morphisms in basis, one (len(basis), t, s) stack per
    block."""
    fld = source.field
    return [_stack(fld, [phi.components[k] for phi in basis], (t, s))
            for k, (s, t) in enumerate(zip(_dims(source), _dims(target)))]


def _combination(source, target, blocks, coeffs):
    """The morphism sum_j coeffs[j] basis[j], given the basis blocks."""
    coeffs = np.reshape(coeffs, (1, -1))
    return _morphism(source, target,
                     [linalg.combine(source.field, coeffs, blk)[0] for blk in blocks])


class _HomSpaceCoords:
    """Hom(source, target) with coefficient extraction in its canonical
    basis."""

    def __init__(self, source, target):
        self.source = source
        self.target = target
        self.field = source.field
        self.basis = _hom_basis(source, target)
        self.pivots = basis_pivots(self.field, [_flat(b) for b in self.basis])

    @property
    def dim(self):
        return len(self.basis)

    def matrix_of_map(self, images):
        """Coordinate matrix of a linear map into this hom space, given the
        images of some domain basis."""
        return coordinates(self.field, self.pivots, [_flat(img) for img in images])

    def element(self, coeffs):
        """The morphism sum_j coeffs[j] basis[j]."""
        return _combination(self.source, self.target,
                            _basis_blocks(self.source, self.target, self.basis), coeffs)


# -- Ext ----------------------------------------------------------------------


def ext_dim(x, y, degree=1):
    """dim Ext^degree(x, y) of plain modules or quadruples: in closed form
    for the quadruple pairs the module docstring names, along
    presentation(x) otherwise."""
    return _ext_dim(x, y, degree)


def _ext_dim(x, y, degree):
    """The count behind ext_dim.  is_projective_lambda calls it directly, so
    that perfbench's traced count of ext_dim stays the count of outside
    calls.  dim Ext is an isomorphism invariant and every input of the count
    is a function of content, so it is memoized by the contents of x and y
    on the Morita data of a quadruple or the algebra of a plain module."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if sum(_dims(x)) == 0 or sum(_dims(y)) == 0:
        return 0
    ring = x.data if isinstance(x, LambdaModule) else x.algebra
    if (y.data if isinstance(y, LambdaModule) else y.algebra) is not ring:
        raise ValueError("Ext between modules over different rings")
    return memo(ring._cache, ("ext", x.content_key(), y.content_key(), degree),
                lambda: _count_ext_dim(x, y, degree))


def _count_ext_dim(x, y, degree):
    for _ in range(degree - 1):
        x = presentation(x).left
        if sum(_dims(x)) == 0:
            return 0
    if _closed_form_applies(x, y):
        return (hom_dim(x.tX.module, y.Y) + hom_dim(x.tY.module, y.X)
                - hom_dim(x.X, y.X) - hom_dim(x.Y, y.Y) + lambda_hom_dim(x, y))
    pres = presentation(x)
    return _hom_dim(pres.left, y) - _middle_hom_dim(pres, y) + _hom_dim(x, y)


def _closed_form_applies(x, y):
    """Whether Ext^1(x, y) has the closed form of the module docstring: x
    and y are quadruples, M (x)_A N = 0 = N (x)_B M, and y has injective
    components or x projective ones.  Both tests read covers memoized by
    content, so they need quiver-presented A and B.  y goes first: the
    regular quadruple of gp_member passes without a cover of x."""
    if not isinstance(x, LambdaModule):
        return False
    data = x.data
    if not (data.A.is_quiver_presented and data.B.is_quiver_presented
            and data.tensor_vanishing):
        return False
    return ((is_injective_module(y.X) and is_injective_module(y.Y))
            or (is_projective_module(x.X) and is_projective_module(x.Y)))


def _middle_hom_dim(pres: Presentation, y):
    """dim Hom(P, y) for the middle P of a presentation: the Yoneda sum over
    the recorded summands of each block of P against the same block of y,
    or solved when the presentation records none."""
    if pres.tops is None:
        return _hom_dim(pres.middle, y)
    return sum(projective_hom_dim(tops, block) for tops, block in zip(pres.tops, _blocks(y)))


def lambda_ext_dim_flatten(l, t, degree=1):
    """Cross-check route: flatten and compute over the materialized algebra,
    which has no quiver, so along the free presentation."""
    return ext_dim(flatten(l), flatten(t), degree)


def pushout_extension(pres: ShortExactSequence, psi):
    """(0 -> y -> E -> x -> 0, the quotient y (+) P ->> E) with
    E = (y (+) P) / {(-psi k, incl k)}."""
    y = psi.target
    fld = y.field
    quadruple = isinstance(y, LambdaModule)
    s, injs, projs = (lambda_direct_sum if quadruple else direct_sum)([y, pres.middle])
    kappa = _morphism(pres.left, s, _blockwise(
        lambda i0, i1, k, p: fld.normalize(fld.matmul(i1, k) - fld.matmul(i0, p)),
        injs[0], injs[1], pres.incl, psi))
    e, quot = (lambda_cokernel if quadruple else cokernel)(kappa)
    incl_y = quot.compose(injs[0])
    # the epi to x kills the image of kappa, hence descends
    proj_x = _morphism(e, pres.right, _blockwise(
        lambda q, p, p1: linalg.solve(fld, q.T, fld.matmul(p, p1).T).T,
        quot, pres.proj, projs[1]))
    return ShortExactSequence(y, e, pres.right, incl_y, proj_x), quot


# -- splitting -----------------------------------------------------------------


def _solve_in_hom_basis(source, target, image, goal):
    """e = sum_k c_k b_k over the canonical basis b_k of Hom(source, target)
    with image(e) = goal, or None.  image(k, stack) maps a stack of k-th
    blocks to the stack of the k-th blocks of their images, linearly.

    b_k is 1 at its free coordinate f_k, 0 at the other free coordinates and
    nonzero only before f_k, so the solution with free coefficients 0 is the
    solution with free variables 0 of the intertwiner rows and the rows of
    image(e) = goal together, over the coordinates of e's blocks."""
    basis = _hom_basis(source, target)
    blocks = _basis_blocks(source, target, basis)
    images = [image(k, blk).reshape(len(basis), g.size)
              for k, (blk, g) in enumerate(zip(blocks, goal.components))]
    coeffs = linalg.solve(goal.field, np.concatenate(images, axis=1).T, _flat(goal))
    return None if coeffs is None else _combination(source, target, blocks, coeffs[:, 0])


def _extend_along(incl, psi):
    """e: incl.target -> psi.target with e . incl = psi, or None."""
    return _solve_in_hom_basis(incl.target, psi.target, lambda k, blk: _times(
        psi.field, blk, incl.components[k]), psi)


def _lift_along(epi, phi):
    """h: phi.source -> epi.source with epi . h = phi, or None; it exists
    when phi.source is projective and epi is onto."""
    return _solve_in_hom_basis(phi.source, epi.source, lambda k, blk: _left_times(
        phi.field, epi.components[k], blk), phi)


def splits(ses: ShortExactSequence):
    """(bool, retraction or None): does a retraction of the inclusion exist?"""
    fld = ses.incl.field
    one = _morphism(ses.left, ses.left, [fld.eye(n) for n in _dims(ses.left)])
    r = _extend_along(ses.incl, one)
    return (r is not None), r


def ext_class_is_zero(ses: ShortExactSequence) -> bool:
    """Compute the connecting class of the sequence from the presentation
    of its right term; zero iff split (cross-check for splits)."""
    pres = presentation(ses.right)
    lift = _lift_along(ses.proj, pres.proj)
    if lift is None:
        raise AssertionError("projective failed to lift through an epi")
    fld = lift.field
    psi = _morphism(pres.left, ses.left, _blockwise(
        lambda i, k: linalg.solve(fld, i, k), ses.incl, lift.compose(pres.incl)))
    # zero class iff psi extends to pres.middle -> left
    return _extend_along(pres.incl, psi) is not None


# -- Tor ------------------------------------------------------------------------


def tor1(m, x: Module):
    """(dimension, witness kernel basis) of Tor_1(M, x), computed as
    ker(M (x) K -> M (x) P) from the canonical presentation of x."""
    pres = presentation(x)
    tk = tensor_over(m, pres.left)
    tp = tensor_over(m, pres.middle)
    fld = x.field
    induced = _tensor_map(fld, tk, tp, pres.incl.matrix)
    basis = linalg.kernel_basis(fld, induced)
    return basis.shape[1], basis


# -- dimension bounds -----------------------------------------------------------


def is_projective_lambda(l: LambdaModule) -> bool:
    """Ext^1 against all the structural simples vanishes."""
    if l.total_dim == 0:
        return True
    simples_sum = memo(l.data._cache, "simples_sum",
                       lambda: lambda_direct_sum(lambda_simples(l.data))[0])
    return _ext_dim(l, simples_sum, 1) == 0


def proj_dim_upto(x, bound=DEFAULT_DIM_BOUND):
    """Exact projective dimension when <= bound, else None."""
    is_projective = is_projective_lambda if isinstance(x, LambdaModule) else is_projective_module
    for d in range(bound + 1):
        if is_projective(x):
            return d
        x = presentation(x).left
    return None


def inj_dim_upto(x, bound=DEFAULT_DIM_BOUND):
    """Injective dimension: the projective dimension of the dual over the
    opposite algebra (the opposite Morita data for a quadruple)."""
    return proj_dim_upto(dual_lambda(x) if isinstance(x, LambdaModule) else dual_module(x),
                         bound)


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
    return coordinates(field, hom_tgt.pivots, _left_times(field, phi, hom_src.basis))


# -- the four approximation constructions -----------------------------------------


class ApproxResult:
    """An approximation sequence together with the ingredients needed to
    check the displayed shape of its outer term."""

    def __init__(self, ses, parts):
        self.ses = ses
        self.parts = parts


def approx_c1(l: LambdaModule, ses0=None) -> ApproxResult:
    """Epi T_A P (+) T_B V ->> L with kernel of shape (K; (M(x)P) (+) Y),
    where P ->> X is the projective cover.

    ses0: a chosen exact sequence 0 -> Y -> V -> L_2 -> 0 (default: the
    presentation of Y).  Hypothesis: M projective as a left module.
    """
    data = l.data
    if not is_projective_module(data.M.as_left_module()):
        raise ValueError("construction needs M projective as a left module")
    _, pi = projective_cover(l.X)
    if ses0 is None:
        ses0 = presentation(l.Y)
    out = _t_cover(l, pi, ses0.proj, None)
    mp = tensor_over(data.M, pi.source)
    return ApproxResult(out, {"P": pi.source, "V": ses0.middle, "Y": ses0.left, "MP": mp.module})


def approx_c2(l: LambdaModule, ses0=None) -> ApproxResult:
    """Epi T_A U (+) T_B Q ->> L with kernel of shape (X (+) (N(x)Q); K),
    where Q ->> Y is the projective cover.  Hypothesis: N projective as a
    left module."""
    data = l.data
    if not is_projective_module(data.N.as_left_module()):
        raise ValueError("construction needs N projective as a left module")
    _, pi = projective_cover(l.Y)
    if ses0 is None:
        ses0 = presentation(l.X)
    out = _t_cover(l, ses0.proj, pi, None)
    nq = tensor_over(data.N, pi.source)
    return ApproxResult(out, {"Q": pi.source, "U": ses0.middle, "X": ses0.left, "NQ": nq.module})


def _h_envelope(l: LambdaModule, sigma_a: ModuleMorphism, sigma_b: ModuleMorphism):
    """0 -> l -> H_A I (+) H_B J -> C -> 0 from monos sigma_a: X >-> I and
    sigma_b: Y >-> J, together with Hom_B(M, J) and Hom_A(N, I).  The mono
    has components a = [sigma_a; (sigma_b)_* f~] and b = [(sigma_a)_* g~;
    sigma_b]."""
    data = l.data
    fld = l.field
    i, j = sigma_a.target, sigma_b.target
    hai = functor_H(data, "A", i)
    hbj = functor_H(data, "B", j)
    mid, injs, _ = lambda_direct_sum([hai, hbj])
    hom_ml2 = l.hom_MY()
    hom_mj = hom_module(data.M, j)
    hom_nl1 = l.hom_NX()
    hom_ni = hom_module(data.N, i)
    post_f = _hom_post(fld, hom_ml2, hom_mj, sigma_b.matrix)
    post_g = _hom_post(fld, hom_nl1, hom_ni, sigma_a.matrix)
    a = fld.normalize(fld.matmul(injs[0].a, sigma_a.matrix)
                      + fld.matmul(injs[1].a, fld.matmul(post_f, l.f_tilde)))
    b = fld.normalize(fld.matmul(injs[0].b, fld.matmul(post_g, l.g_tilde))
                      + fld.matmul(injs[1].b, sigma_b.matrix))
    mono = LambdaMorphism(l, mid, a, b)
    c, proj = lambda_cokernel(mono)
    return ShortExactSequence(l, mid, c, mono, proj), hom_mj, hom_ni


def approx_c3(l: LambdaModule, ses0=None) -> ApproxResult:
    """Mono L -> H_A I (+) H_B Y with cokernel of shape (C; Hom(N,I) (+) V),
    where X >-> I is the injective envelope.  Hypothesis: N flat
    (= projective here) as a right module."""
    data = l.data
    if not is_projective_module(data.N.right_as_left_module()):
        raise ValueError("construction needs N flat as a right module")
    _, sigma = injective_envelope(l.X)
    if ses0 is None:
        ses0 = injective_presentation(l.Y)
    out, _, hom_ni = _h_envelope(l, sigma, ses0.incl)
    return ApproxResult(out, {"I": sigma.target, "Y": ses0.middle, "V": ses0.right,
                              "HNI": hom_ni.module})


def approx_c4(l: LambdaModule, ses0=None) -> ApproxResult:
    """Mono L -> H_A X (+) H_B J with cokernel of shape (U (+) Hom(M,J); C),
    where Y >-> J is the injective envelope.  Hypothesis: M flat
    (= projective here) as a right module."""
    data = l.data
    if not is_projective_module(data.M.right_as_left_module()):
        raise ValueError("construction needs M flat as a right module")
    _, sigma = injective_envelope(l.Y)
    if ses0 is None:
        ses0 = injective_presentation(l.X)
    out, hom_mj, _ = _h_envelope(l, ses0.incl, sigma)
    return ApproxResult(out, {"J": sigma.target, "X": ses0.middle, "U": ses0.right,
                              "HMJ": hom_mj.module})


# -- horseshoe merge ---------------------------------------------------------------


def horseshoe_merge(s: ShortExactSequence, approx_left: ShortExactSequence,
                    approx_right: ShortExactSequence) -> ShortExactSequence:
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
    delta = LambdaMorphism(sum_mod, s.right, *_blockwise(
        lambda p, p0, q, p1: fld.normalize(fld.matmul(p, p0) - fld.matmul(q, p1)),
        s.proj, projs[0], approx_right.proj, projs[1]))
    e, incl_e = lambda_kernel(delta)
    e_mid = projs[0].compose(incl_e)
    e_a2 = projs[1].compose(incl_e)
    # X = s.left sits inside E via (incl, 0)
    j = LambdaMorphism(s.left, e, *_blockwise(
        lambda ie, i0, i: linalg.solve(fld, ie, fld.matmul(i0, i)), incl_e, injs[0], s.incl))

    pres = lambda_presentation(a2)
    h = _lift_along(e_a2, pres.proj)
    if h is None:
        raise AssertionError("projective failed to lift through an epi")
    psi_xi = _blockwise(lambda jc, hc, k: linalg.solve(fld, jc, fld.matmul(hc, k)),
                        j, h, pres.incl)
    if any(c is None for c in psi_xi):
        raise AssertionError("pullback class failed to restrict")
    psi_xi = LambdaMorphism(pres.left, s.left, *psi_xi)

    hom_ka1 = _HomSpaceCoords(pres.left, approx_left.middle)
    hom_px = _HomSpaceCoords(pres.middle, s.left)
    hom_kx = _HomSpaceCoords(pres.left, s.left)
    m1 = hom_kx.matrix_of_map([approx_left.proj.compose(psi) for psi in hom_ka1.basis])
    m2 = hom_kx.matrix_of_map([phi.compose(pres.incl) for phi in hom_px.basis])
    lhs = linalg.hstack(fld, [m1, m2])
    sol = linalg.solve(fld, lhs, hom_kx.matrix_of_map([psi_xi]))
    if sol is None:
        raise ValueError("horseshoe obstruction: Ext^2 correction has no solution")
    psi_eta = hom_ka1.element(sol[: hom_ka1.dim, 0])
    phi = hom_px.element(sol[hom_ka1.dim :, 0])

    eta_ses, quot = pushout_extension(pres, psi_eta)
    # corrected lift h' = h - j . phi, then mu on A1 (+) P is (j p1, h');
    # columns of the sum are the A1-part then the P-part
    gbar = _blockwise(
        lambda q, jc, p1, hc, pc: linalg.solve(fld, q.T, linalg.hstack(fld, [
            fld.matmul(jc, p1), fld.normalize(hc - fld.matmul(jc, pc))]).T),
        quot, j, approx_left.proj, h, phi)
    if any(g is None for g in gbar):
        raise AssertionError("pushout comparison map failed to descend")
    theta = e_mid.compose(LambdaMorphism(eta_ses.middle, e, *(g.T for g in gbar)))
    ker, incl_k = lambda_kernel(theta)
    return ShortExactSequence(ker, eta_ses.middle, mid, incl_k, theta)
