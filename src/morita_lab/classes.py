"""Module-class descriptors and membership predicates: column classes, the
mono/epi-type classes with cokernel/kernel constraints, one-sided
orthogonals, Gorenstein-projective/-injective tests, splitting-based
decompositions, and Hovey-triple ingredient checks.

Class-level statements are systematically downgraded to finite-witness
checks: membership of concrete modules, and the explicit orthogonality
obligations a proof provides.  Nothing here certifies an equality of full
subcategories from samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebras import (
    Module, ModuleMorphism, free_module, hom_module, identity_morphism,
    indecomposable_injectives, indecomposable_projectives, is_injective_module,
    is_projective_module, memo, module_isomorphism,
)
from .homology import _extend_along, _hom_post, _lift_along, coresolution_ij, ext_dim
from .morita import (
    LambdaModule, LambdaMorphism, MoritaData, functor_C, functor_H, functor_K,
    functor_T, lambda_direct_sum, tensor_over, _tensor_map,
)


# -- orthogonality ---------------------------------------------------------------


def orthogonal(pairs) -> bool:
    """Ext^1(a, b) = 0 for every pair (a, b), evaluated in order up to the
    first that does not vanish."""
    return all(ext_dim(a, b, 1) == 0 for a, b in pairs)


def h_images_of_injectives(data: MoritaData):
    """[H_A I for the indecomposable injective A-modules I] followed by
    [H_B J for the indecomposable injective B-modules J]."""
    return ([functor_H(data, "A", i) for i in indecomposable_injectives(data.A)]
            + [functor_H(data, "B", j) for j in indecomposable_injectives(data.B)])


# -- plain-module class specs ---------------------------------------------------


@dataclass(frozen=True)
class ClassSpec:
    """A decidable description of a class of modules over one algebra."""

    kind: str  # projectives | injectives | all | finite_list | left_perp | right_perp
    algebra: object
    modules: tuple = ()

    def __post_init__(self):
        if self.kind not in ("projectives", "injectives", "all", "finite_list",
                             "left_perp", "right_perp"):
            raise ValueError(f"unknown class spec kind {self.kind!r}")

    def contains(self, x: Module) -> bool:
        if x.algebra is not self.algebra:
            raise ValueError("module is over the wrong algebra for this spec")
        if self.kind == "all":
            return True
        if self.kind == "projectives":
            return is_projective_module(x)
        if self.kind == "injectives":
            return is_injective_module(x)
        if self.kind == "finite_list":
            if x.dim == 0:
                return any(m.dim == 0 for m in self.modules)
            return any(bool(module_isomorphism(x, m)) for m in self.modules)
        if self.kind == "left_perp":
            return orthogonal((x, t) for t in self.modules)
        return orthogonal((t, x) for t in self.modules)


def projectives_spec(algebra):
    return ClassSpec("projectives", algebra)


def injectives_spec(algebra):
    return ClassSpec("injectives", algebra)


def all_spec(algebra):
    return ClassSpec("all", algebra)


# -- membership predicates for quadruples ------------------------------------------


def in_column(l: LambdaModule, xspec: ClassSpec, yspec: ClassSpec) -> bool:
    return xspec.contains(l.X) and yspec.contains(l.Y)


def in_mon(l: LambdaModule) -> bool:
    fld = l.field
    return (linalg.rank(fld, l.f) == l.tX.dim
            and linalg.rank(fld, l.g) == l.tY.dim)


def in_epi(l: LambdaModule) -> bool:
    fld = l.field
    return (linalg.rank(fld, l.f_tilde) == l.hom_MY().dim
            and linalg.rank(fld, l.g_tilde) == l.hom_NX().dim)


def in_delta(l: LambdaModule, uspec: ClassSpec, vspec: ClassSpec) -> bool:
    """f, g mono with Coker f in the B-side class and Coker g in the A-side."""
    if not in_mon(l):
        return False
    coker_g, _ = functor_C("A", l)
    coker_f, _ = functor_C("B", l)
    return uspec.contains(coker_g) and vspec.contains(coker_f)


def in_nabla(l: LambdaModule, xspec: ClassSpec, yspec: ClassSpec) -> bool:
    """f~, g~ epi with Ker f~ in the A-side class and Ker g~ in the B-side."""
    if not in_epi(l):
        return False
    ker_f, _ = functor_K("A", l)
    ker_g, _ = functor_K("B", l)
    return xspec.contains(ker_f) and yspec.contains(ker_g)


# -- splitting-based decompositions --------------------------------------------------


def delta_decompose(l: LambdaModule, uspec: ClassSpec, vspec: ClassSpec):
    """When l lies in the mono class over (uspec, vspec) and both canonical
    sequences split, realize l as T_A(Coker g) (+) T_B(Coker f) and return
    (U-part, V-part, iso); None otherwise."""
    if not l.data.tensor_vanishing:
        return None
    if not in_delta(l, uspec, vspec):
        return None
    fld = l.field
    u, pg = functor_C("A", l)   # Coker g with epi p2 : L1 ->> U
    v, pf = functor_C("B", l)   # Coker f with epi p1 : L2 ->> V
    # splittings of 0 -> M(x)L1 -> L2 -> V -> 0 and its g-counterpart
    r_f = _extend_along(l.f_morphism(), identity_morphism(l.tX.module))
    r_g = _extend_along(l.g_morphism(), identity_morphism(l.tY.module))
    if r_f is None or r_g is None:
        return None
    ta_u = functor_T(l.data, "A", u)
    tb_v = functor_T(l.data, "B", v)
    target, injs, projs = lambda_direct_sum([ta_u, tb_v])
    # a = [p2 ; (1 (x) p1) r_g],  b = [(1 (x) p2) r_f ; p1]
    one_pf = _tensor_map(fld, l.tY, tb_v.tY, pf.matrix)
    one_pg = _tensor_map(fld, l.tX, ta_u.tX, pg.matrix)
    a = fld.normalize(fld.matmul(injs[0].a, pg.matrix)
                      + fld.matmul(injs[1].a, fld.matmul(one_pf, r_g.matrix)))
    b = fld.normalize(fld.matmul(injs[0].b, fld.matmul(one_pg, r_f.matrix))
                      + fld.matmul(injs[1].b, pf.matrix))
    if not (linalg.is_invertible(fld, a) and linalg.is_invertible(fld, b)):
        return None
    iso = LambdaMorphism(l, target, a, b)
    iso.validate()
    return u, v, iso


def nabla_decompose(l: LambdaModule, xspec: ClassSpec, yspec: ClassSpec):
    """Dual: realize l as H_A(Ker f~) (+) H_B(Ker g~); None when the
    canonical sequences do not split."""
    if not l.data.tensor_vanishing:
        return None
    if not in_nabla(l, xspec, yspec):
        return None
    fld = l.field
    kx, ix = functor_K("A", l)   # Ker f~ -> L1
    ky, iy = functor_K("B", l)   # Ker g~ -> L2
    # sections of f~ and g~
    hom_my, hom_nx = l.hom_MY().module, l.hom_NX().module
    s_f = _lift_along(ModuleMorphism(l.X, hom_my, l.f_tilde), identity_morphism(hom_my))
    s_g = _lift_along(ModuleMorphism(l.Y, hom_nx, l.g_tilde), identity_morphism(hom_nx))
    if s_f is None or s_g is None:
        return None
    ha = functor_H(l.data, "A", kx)
    hb = functor_H(l.data, "B", ky)
    target, injs, projs = lambda_direct_sum([ha, hb])
    # pi_1 = (1 - s_f f~) corestricted to Ker f~, and dually
    pi1 = linalg.solve(fld, ix.matrix,
                       fld.normalize(fld.eye(l.X.dim) - fld.matmul(s_f.matrix, l.f_tilde)))
    pi2 = linalg.solve(fld, iy.matrix,
                       fld.normalize(fld.eye(l.Y.dim) - fld.matmul(s_g.matrix, l.g_tilde)))
    if pi1 is None or pi2 is None:
        return None
    # transports Hom(M, Ker g~) ~ Hom(M, L2) and Hom(N, Ker f~) ~ Hom(N, L1)
    hom_m_ky = hom_module(l.data.M, ky)
    hom_n_kx = hom_module(l.data.N, kx)
    t_m = _hom_post(fld, hom_m_ky, l.hom_MY(), iy.matrix)    # iso by MN = 0
    t_n = _hom_post(fld, hom_n_kx, l.hom_NX(), ix.matrix)
    if not linalg.is_invertible(fld, t_m) or not linalg.is_invertible(fld, t_n):
        return None
    a = fld.normalize(fld.matmul(injs[0].a, pi1)
                      + fld.matmul(injs[1].a,
                                   fld.matmul(linalg.invert(fld, t_m), l.f_tilde)))
    b = fld.normalize(fld.matmul(injs[0].b,
                                 fld.matmul(linalg.invert(fld, t_n), l.g_tilde))
                      + fld.matmul(injs[1].b, pi2))
    if not (linalg.is_invertible(fld, a) and linalg.is_invertible(fld, b)):
        return None
    iso = LambdaMorphism(l, target, a, b)
    iso.validate()
    return kx, ky, iso


def projective_by_shape(l: LambdaModule) -> bool:
    """T_A P (+) T_B Q decomposition with P, Q projective (the structural
    characterization of projective quadruples)."""
    return delta_decompose(l, projectives_spec(l.data.A),
                           projectives_spec(l.data.B)) is not None


def injective_by_shape(l: LambdaModule) -> bool:
    return nabla_decompose(l, injectives_spec(l.data.A),
                           injectives_spec(l.data.B)) is not None


# -- tensor/hom hypothesis probes ----------------------------------------------------


def tensor_image_in(data: MoritaData, side: str, source_spec: ClassSpec,
                    target_spec: ClassSpec):
    """Best-effort check of M (x) source_spec <= target_spec (side "A", i.e.
    images under M (x)_A -), or N (x) source_spec <= target_spec (side "B").

    Returns True (certified on generators), False (refuted by a witness), or
    None (not decidable from the finite content)."""
    return _image_in(data.M if side == "A" else data.N, tensor_over, "projectives",
                     indecomposable_projectives, source_spec, target_spec)


def hom_image_in(data: MoritaData, side: str, source_spec: ClassSpec,
                 target_spec: ClassSpec):
    """Best-effort Hom_B(M, source_spec) <= target_spec (side "B") or
    Hom_A(N, source_spec) <= target_spec (side "A")."""
    return _image_in(data.M if side == "B" else data.N, hom_module, "injectives",
                     indecomposable_injectives, source_spec, target_spec)


def _image_in(bim, functor, generated, generators, source_spec, target_spec):
    """functor(bim, x).module in target_spec for the probes x of source_spec:
    its modules when it is a finite list, else generators(its algebra).  A
    pass is certified when the probes exhaust source_spec up to sums (a
    finite list, or the class named generated) or the target is every
    module, and the target class is closed under sums; else it is None."""
    probes = (source_spec.modules if source_spec.kind == "finite_list"
              else generators(source_spec.algebra))
    if not all(target_spec.contains(functor(bim, x).module) for x in probes):
        return False
    certifiable = source_spec.kind in ("finite_list", generated) or target_spec.kind == "all"
    sum_closed = target_spec.kind in ("all", "projectives", "injectives",
                                      "left_perp", "right_perp")
    return True if certifiable and sum_closed else None


# -- Gorenstein membership under the quasi-Frobenius certificate ----------------------


class GorensteinCertificate:
    """Preflight for the Gorenstein-projective/-injective membership tests:
    A and B quasi-Frobenius, the bimodules projective on both sides, both
    tensor products zero, and the regular quadruple of self-injective
    dimension at most one (witnessed by the two-term coresolution)."""

    def __init__(self, data: MoritaData):
        self.data = data
        self.reasons = []
        if not data.tensor_vanishing:
            self.reasons.append("tensor products do not vanish")
        for alg_, tag in ((data.A, "A"), (data.B, "B")):
            if not _quasi_frobenius(alg_):
                self.reasons.append(f"{tag} is not quasi-Frobenius")
        if not is_projective_module(data.N.as_left_module()):
            self.reasons.append("N is not projective as a left module")
        if not is_projective_module(data.M.as_left_module()):
            self.reasons.append("M is not projective as a left module")
        if not is_projective_module(data.M.right_as_left_module()):
            self.reasons.append("M is not projective as a right module")
        if not is_projective_module(data.N.right_as_left_module()):
            self.reasons.append("N is not projective as a right module")
        self.regular = None
        self.injective_cogenerator = None
        if not self.reasons:
            reg_a = functor_T(data, "A", free_module(data.A, 1))
            reg_b = functor_T(data, "B", free_module(data.B, 1))
            self.regular, _, _ = lambda_direct_sum([reg_a, reg_b])
            try:
                coresolution_ij(reg_a)
                coresolution_ij(reg_b)
            except ValueError as exc:
                self.reasons.append(f"regular module self-injective bound fails: {exc}")
            self.injective_cogenerator, _, _ = lambda_direct_sum(h_images_of_injectives(data))

    @property
    def ok(self):
        return not self.reasons


def _quasi_frobenius(algebra) -> bool:
    projs = indecomposable_projectives(algebra)
    injs = indecomposable_injectives(algebra)
    matched = set()
    for p in projs:
        hit = None
        for i, j in enumerate(injs):
            if i not in matched and bool(module_isomorphism(p, j)):
                hit = i
                break
        if hit is None:
            return False
        matched.add(hit)
    return len(matched) == len(injs)


def gp_member(cert: GorensteinCertificate, l: LambdaModule) -> bool:
    """Ext^1 against the regular quadruple vanishes; under the certificate
    this detects the whole left-orthogonal of the projectives."""
    if not cert.ok:
        raise ValueError("instance fails the Gorenstein preflight: "
                         + "; ".join(cert.reasons))
    return ext_dim(l, cert.regular, 1) == 0


def gi_member(cert: GorensteinCertificate, l: LambdaModule) -> bool:
    if not cert.ok:
        raise ValueError("instance fails the Gorenstein preflight: "
                         + "; ".join(cert.reasons))
    return ext_dim(cert.injective_cogenerator, l, 1) == 0


# -- lambda-level class descriptors and Hovey checks -----------------------------------


@dataclass(frozen=True)
class LambdaClassSpec:
    """Decidable classes of quadruple modules."""

    kind: str
    data: MoritaData
    a_spec: ClassSpec | None = None
    b_spec: ClassSpec | None = None

    KINDS = ("all", "column", "t_sum", "h_sum", "projectives", "injectives")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown lambda class kind {self.kind!r}")

    def contains(self, l: LambdaModule) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "column":
            return in_column(l, self.a_spec, self.b_spec)
        if self.kind == "t_sum":
            return delta_decompose(l, self.a_spec, self.b_spec) is not None
        if self.kind == "h_sum":
            return nabla_decompose(l, self.a_spec, self.b_spec) is not None
        if self.kind == "projectives":
            return projective_by_shape(l)
        return injective_by_shape(l)


def membership(members, spec: LambdaClassSpec, l: LambdaModule) -> bool:
    """spec.contains(l), decided once per (spec, module) pair of objects in
    the table members.  An entry holds both objects, so their ids are not
    reused while the table lives."""
    return memo(members, (id(spec), id(l)), lambda: (spec, l, spec.contains(l)))[2]


@dataclass
class HoveySpec:
    """The three classes of a Hovey triple plus the closed forms of its two
    constituent cotorsion pairs and their approximation builders."""

    name: str
    c_spec: LambdaClassSpec
    f_spec: LambdaClassSpec
    w_spec: LambdaClassSpec
    cw_spec: LambdaClassSpec
    fw_spec: LambdaClassSpec
    pair1_approx: object  # special right approx for (C cap W, F)
    pair2_approx: object  # for (C, F cap W)


def hovey_ingredients_check(spec: HoveySpec, modules, sequences, members) -> list:
    """Sample-level verification of the triple's ingredients.  Returns a
    list of (check id, ok, detail) entries; failures carry witnesses.  Every
    membership is read through the table members (see membership), which a
    suite shares across its checks."""
    entries = []

    def has(class_spec, l):
        return membership(members, class_spec, l)

    mem = {}
    for i, l in enumerate(modules):
        mem[i] = {
            "c": has(spec.c_spec, l),
            "f": has(spec.f_spec, l),
            "w": has(spec.w_spec, l),
            "cw": has(spec.cw_spec, l),
            "fw": has(spec.fw_spec, l),
        }
    bad = [i for i, m in mem.items() if m["cw"] != (m["c"] and m["w"])]
    entries.append(("intersection-cw", not bad, {"mismatches": bad}))
    bad = [i for i, m in mem.items() if m["fw"] != (m["f"] and m["w"])]
    entries.append(("intersection-fw", not bad, {"mismatches": bad}))

    for tag, left, right in (("orthogonality-pair1", "cw", "f"),
                             ("orthogonality-pair2", "c", "fw")):
        bad = []
        checked = 0
        for i, l in enumerate(modules):
            if not mem[i][left]:
                continue
            for j, t in enumerate(modules):
                if not mem[j][right]:
                    continue
                checked += 1
                if ext_dim(l, t, 1) != 0:
                    bad.append((i, j))
        entries.append((tag, not bad, {"checked": checked, "failures": bad}))

    # thickness of W: two out of three in sampled short exact sequences
    bad = []
    for idx, ses in enumerate(sequences):
        verdicts = [has(spec.w_spec, ses.left), has(spec.w_spec, ses.middle),
                    has(spec.w_spec, ses.right)]
        if sum(verdicts) == 2 and not all(verdicts):
            bad.append(idx)
    entries.append(("thickness-two-of-three", not bad, {"failures": bad}))
    # thickness: summand closure on pairwise sums
    bad = []
    pool = list(modules)[:6]
    for i, l1 in enumerate(pool):
        for j, l2 in enumerate(pool[i:], start=i):
            s, _, _ = lambda_direct_sum([l1, l2])
            if has(spec.w_spec, s) != (mem[i]["w"] and mem[j]["w"]):
                bad.append((l1.dims, l2.dims))
    entries.append(("thickness-summands", not bad, {"failures": bad}))

    for tag, approx, left_spec, right_spec in (
            ("approximations-pair1", spec.pair1_approx, spec.cw_spec, spec.f_spec),
            ("approximations-pair2", spec.pair2_approx, spec.c_spec, spec.fw_spec)):
        bad = []
        for i, l in enumerate(modules):
            try:
                ses = approx(l)  # a ShortExactSequence checks itself when built
            except ValueError as exc:
                bad.append((i, f"not exact: {exc}"))
                continue
            if ses.right is l:
                # right approximation 0 -> F' -> C' -> l -> 0
                mid_ok = has(left_spec, ses.middle)
                outer_ok = has(right_spec, ses.left)
            elif ses.left is l:
                # left approximation 0 -> l -> F' -> C' -> 0
                mid_ok = has(right_spec, ses.middle)
                outer_ok = has(left_spec, ses.right)
            else:
                bad.append((i, "approximation does not involve the module"))
                continue
            if not mid_ok:
                bad.append((i, "middle term leaves its class"))
            if not outer_ok:
                bad.append((i, "outer term leaves its class"))
        entries.append((tag, not bad, {"failures": bad}))
    return entries
