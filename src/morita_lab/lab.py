"""Catalog of concrete Morita-ring instances, seeded random generation, a
tiny exhaustive enumeration oracle, and the named verification suites.

Every declared property of a catalog instance is re-proved at load time.
Suites never certify equalities of full subcategories; each claim is the
finite surrogate the corresponding proof actually provides, and failures
carry witnesses.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .fields import F3, FieldSpec
from . import algebras as alg
from . import morita as mor
from . import homology as hml
from . import classes as cls

DEFAULT_SEED = int.from_bytes(b"C0T0R510N", "big") % (1 << 64)
ENUMERATION_STATE_CAP = 10_000_000


@dataclass(frozen=True)
class SampleConfig:
    seed: int = DEFAULT_SEED
    count: int = 100
    dim_cap: int = 12
    rank_cap: int = 4

    def child(self, tag: str) -> random.Random:
        # derive per-purpose seeds by a stable digest, so reports are
        # bit-identical across runs and interpreter versions
        import hashlib

        digest = hashlib.sha256(f"{self.seed}:{tag}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class CatalogInstance:
    name: str
    data: mor.MoritaData
    field: FieldSpec
    properties: dict

    def __repr__(self):
        return f"CatalogInstance({self.name}, p={getattr(self.field, 'p', 'Q')})"


def _two_vertex_algebra(field):
    return alg.path_algebra(alg.linear_quiver(2), [], field, name="kA2")


def _nakayama(field, n, h):
    q = alg.cyclic_quiver(n)
    return alg.path_algebra(q, alg.nakayama_relations(q, h), field,
                            name=f"Nak({n},{h})")


# the parameters a catalog instance takes; the others take none
CATALOG_PARAMS = {"examctp4": ("n", "h", "i", "j")}


def catalog(name: str, field: FieldSpec = F3, **params) -> CatalogInstance:
    """Build and re-verify a named instance.  Raises on parameter violations
    (including a parameter the instance does not take) and on any declared
    property failing its recomputation."""
    unknown = sorted(set(params) - set(CATALOG_PARAMS.get(name, ())))
    if unknown:
        raise ValueError(f"instance {name!r} takes no parameter {unknown[0]!r}")
    props = {}
    if name == "ie":
        a = _two_vertex_algebra(field)
        m = alg.corner_bimodule(a, "2", "1")
        data = mor.MoritaData(a, a, m, m, name="ie")
        props["mn_vanishes"] = data.tensor_MN().dim == 0
        props["nm_vanishes"] = data.tensor_NM().dim == 0
        props["M_right_projective"] = alg.is_projective_module(m.right_as_left_module())
        props["M_left_projective"] = alg.is_projective_module(m.as_left_module())
    elif name == "examctp4":
        n = int(params.get("n", 3))
        h = int(params.get("h", 2))
        i = int(params.get("i", 1))
        j = int(params.get("j", 3))
        if not (2 <= h <= n):
            raise ValueError("need 2 <= h <= n")
        if not (1 <= i < j <= n and j - i >= h):
            raise ValueError("need 1 <= i < j <= n with j - i >= h")
        a = _nakayama(field, n, h)
        m = alg.corner_bimodule(a, str(i), str(j))
        data = mor.MoritaData(a, a, m, m, name=f"examctp4({n},{h},{i},{j})")
        props["A_self_injective"] = cls._quasi_frobenius(a)
        props["corner_vanishes"] = _corner_dim(a, str(j), str(i)) == 0
        props["mn_vanishes"] = data.tensor_MN().dim == 0
        props["nm_vanishes"] = data.tensor_NM().dim == 0
        props["M_left_projective"] = alg.is_projective_module(m.as_left_module())
        props["M_right_projective"] = alg.is_projective_module(m.right_as_left_module())
    elif name == "a2":
        a = _two_vertex_algebra(field)
        b = alg.ground_field_algebra(field)
        data = mor.MoritaData(a, b, alg.zero_bimodule(b, a),
                              alg.zero_bimodule(a, b), name="a2")
        props["mn_vanishes"] = props["nm_vanishes"] = True
    elif name == "triangular":
        a = _two_vertex_algebra(field)
        n_bim = alg.corner_bimodule(a, "1", "2")
        data = mor.MoritaData(a, a, alg.zero_bimodule(a, a), n_bim, name="triangular")
        props["m_zero"] = data.M.dim == 0
        props["mn_vanishes"] = data.tensor_MN().dim == 0
        props["nm_vanishes"] = data.tensor_NM().dim == 0
        props["N_right_projective"] = alg.is_projective_module(n_bim.right_as_left_module())
        props["N_image_injective"] = cls.tensor_image_in(
            data, "B", cls.all_spec(a), cls.injectives_spec(a)) is not False
    elif name == "product":
        k = alg.ground_field_algebra(field)
        data = mor.MoritaData(k, k, alg.zero_bimodule(k, k),
                              alg.zero_bimodule(k, k), name="product")
        props["mn_vanishes"] = props["nm_vanishes"] = True
    elif name == "irem1":
        a = _two_vertex_algebra(field)
        reg = alg.regular_bimodule(a)
        data = mor.MoritaData(a, a, reg, reg, name="irem1")
        props["pairings_zero"] = True
        props["mn_nonzero"] = data.tensor_MN().dim != 0
    else:
        raise ValueError(f"unknown catalog instance {name!r}")
    if not all(props.values()):
        raise ValueError(f"{name} instance failed verification: {props}")
    rep = data.validate()
    if not rep["valid"]:
        raise ValueError(f"instance {name} failed bimodule validation")
    props["bimodule_axioms"] = True
    return CatalogInstance(name, data, field, props)


def _corner_dim(a, v, w):
    """dim e_v A e_w: paths from w to v surviving the relations."""
    return sum(1 for (word, s, t) in a.path_words if s == w and t == v)


# -- sampling --------------------------------------------------------------------


class Sampler:
    """Deterministic module sampler: every module is a cokernel of a random
    morphism between random sums of indecomposable projectives.  plain draws
    the summands as vertex indices, takes their sums from the per-algebra
    table of algebras.projective_sum, and draws the morphism as a
    combination of the canonical basis of Hom(P_1, P_0), which
    algebras.projective_hom_space assembles from its per-algebra table, byte
    for byte the basis that hom_space of the two sums gives, so the draws
    are those of a solve."""

    def __init__(self, rng_or_seed, dim_cap=12, rank_cap=4):
        if isinstance(rng_or_seed, random.Random):
            self.rng = rng_or_seed
        else:
            self.rng = random.Random(rng_or_seed)
        self.dim_cap = dim_cap
        self.rank_cap = rank_cap

    def plain(self, algebra, cap=None) -> alg.Module:
        rng = self.rng
        cap = self.dim_cap if cap is None else cap
        projs = alg.indecomposable_projectives(algebra)
        for _ in range(60):
            n0 = rng.randrange(1, self.rank_cap + 1)
            n1 = rng.randrange(0, self.rank_cap + 1)
            # choice of an index takes the same draw as choice of a projective
            v0 = [rng.choice(range(len(projs))) for _ in range(n0)]
            p0 = alg.projective_sum(algebra, v0)
            if n1 == 0:
                cand = p0
            else:
                v1 = [rng.choice(range(len(projs))) for _ in range(n1)]
                p1 = alg.projective_sum(algebra, v1)
                basis = alg.projective_hom_space(algebra, v1, v0)
                m = self._combo(algebra.field, basis, (p0.dim, p1.dim))
                cand, _ = alg.cokernel(alg.ModuleMorphism(p1, p0, m))
            if cand.dim <= cap:
                return cand
        return alg.zero_module(algebra)

    def _combo(self, field, basis, shape):
        coeffs = [self.rng.randrange(field.p) if field.kind == "prime"
                  else self.rng.randrange(-3, 4) for _ in basis]
        return _combination(field, [field.scalar(c) for c in coeffs], basis, shape)

    def quadruple(self, data, mono_bias=False) -> mor.LambdaModule:
        """Random (X, Y, f, g) with the compatibility conditions enforced and
        total dimension within the cap; mono_bias retries the structure maps
        aiming for injective ones."""
        split = self.rng.randrange(0, self.dim_cap + 1)
        x = self.plain(data.A, cap=split)
        y = self.plain(data.B, cap=self.dim_cap - x.dim)
        return self.quadruple_on(data, x, y, mono_bias=mono_bias)

    def quadruple_on(self, data, x, y, mono_bias=False):
        fld = data.field
        tx = mor.tensor_over(data.M, x)
        ty = mor.tensor_over(data.N, y)
        f_basis = alg.hom_space(tx.module, y)
        tries = 8 if mono_bias else 1
        f = self._combo(fld, f_basis, (y.dim, tx.dim))
        for _ in range(tries):
            if linalg.rank(fld, f) == tx.dim:
                break
            f = self._combo(fld, f_basis, (y.dim, tx.dim))
        g_basis = _compatible_g_space(data, x, y, f, tx, ty)
        g = self._combo(fld, g_basis, (x.dim, ty.dim))
        for _ in range(tries):
            if linalg.rank(fld, g) == ty.dim:
                break
            g = self._combo(fld, g_basis, (x.dim, ty.dim))
        return mor.LambdaModule(data, x, y, f, g, tx=tx, ty=ty)

    def projective_quadruple(self, data) -> mor.LambdaModule:
        t_a = mor.functor_T(data, "A", self.plain_projective(data.A))
        t_b = mor.functor_T(data, "B", self.plain_projective(data.B))
        s, _, _ = mor.lambda_direct_sum([t_a, t_b])
        return s

    def plain_projective(self, algebra) -> alg.Module:
        return self._random_sum(alg.indecomposable_projectives(algebra))

    def plain_injective(self, algebra) -> alg.Module:
        return self._random_sum(alg.indecomposable_injectives(algebra))

    def _random_sum(self, indecomposables) -> alg.Module:
        n = self.rng.randrange(1, self.rank_cap + 1)
        return alg.direct_sum([self.rng.choice(indecomposables) for _ in range(n)])[0]


def _sampler(cfg: SampleConfig, tag: str) -> Sampler:
    return Sampler(cfg.child(tag), cfg.dim_cap, cfg.rank_cap)


def _compatible_g_space(data, x, y, f, tx, ty):
    """Basis of the g's that are morphisms and satisfy both zero-composite
    conditions for the given f."""
    fld = data.field
    basis = alg.hom_space(ty.module, x)
    if not basis or data.tensor_vanishing:
        return basis
    rows = []
    t_n_mx = mor.tensor_over(data.N, tx.module)
    one_f = mor._tensor_map(fld, t_n_mx, ty, f)
    # g . (1 (x) f) = 0: rows over coefficients of the basis
    t_m_ny = mor.tensor_over(data.M, ty.module)
    for cond in ("gf", "fg"):
        coeff_rows = []
        for b in basis:
            if cond == "gf":
                val = fld.matmul(b, one_f)
            else:
                one_b = mor._tensor_map(fld, t_m_ny, tx, b)
                val = fld.matmul(f, one_b)
            coeff_rows.append(val.reshape(-1))
        m = fld.zeros(len(coeff_rows[0]) if coeff_rows else 0, len(basis))
        for j, v in enumerate(coeff_rows):
            m[:, j] = v
        rows.append(m)
    k = linalg.kernel_basis(fld, linalg.vstack(fld, rows))
    return [_combination(fld, k[:, c], basis, (x.dim, ty.dim)) for c in range(k.shape[1])]


def _combination(fld, coeffs, basis, shape):
    """sum_j coeffs[j] basis[j], normalized; shape is that of a zero sum."""
    return linalg.combine(fld, [coeffs], alg._stack(fld, basis, shape))[0]


# -- exhaustive enumeration oracle -----------------------------------------------


def _enumerate_plain(algebra, dim):
    """All modules of the exact dimension over a quiver-presented algebra,
    up to isomorphism."""
    if dim == 0:
        return [alg.zero_module(algebra)]
    fld = algebra.field
    p = fld.p
    verts = algebra.quiver.vertices
    arrows = algebra.quiver.arrows
    reps = []
    for dims in _compositions(dim, len(verts)):
        shapes = [(dims[verts.index(t)], dims[verts.index(s)])
                  for (_, s, t) in arrows]
        total_entries = sum(r * c for r, c in shapes)
        if p ** total_entries > ENUMERATION_STATE_CAP:
            raise ValueError("enumeration state space exceeds the hard cap")
        for assignment in itertools.product(range(p), repeat=total_entries):
            mats = []
            pos = 0
            for r, c in shapes:
                mats.append(fld.asmatrix(np.reshape(assignment[pos:pos + r * c], (r, c)))
                            if r * c else fld.zeros(r, c))
                pos += r * c
            mod = _module_from_quiver_data(algebra, dims, mats)
            if mod is None:
                continue
            if not any(bool(alg.module_isomorphism(mod, other)) for other in reps):
                reps.append(mod)
    return reps


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _module_from_quiver_data(algebra, dims, arrow_mats):
    """Module with vertex-adapted coordinates from per-arrow matrices, or
    None when a monomial relation fails."""
    fld = algebra.field
    verts = algebra.quiver.vertices
    offs = dict(zip(verts, np.cumsum([0, *dims])))
    total = sum(dims)

    def placed(block, src, tgt):
        m = fld.zeros(total, total)
        m[offs[tgt]:offs[tgt] + block.shape[0], offs[src]:offs[src] + block.shape[1]] = block
        return m

    vertex = {v: placed(fld.eye(d), v, v) for v, d in zip(verts, dims)}
    arrows = {name: placed(mat, src, tgt)
              for (name, src, tgt), mat in zip(algebra.quiver.arrows, arrow_mats)}
    # monomial relations: forbidden words must act as zero
    for word in algebra.relations:
        if not fld.is_zero(functools.reduce(fld.matmul, [arrows[a] for a in word])):
            return None
    return alg.quiver_module(algebra, total, vertex, arrows)


def enumerate_small(data: mor.MoritaData, max_total_dim: int):
    """All quadruples with dim X + dim Y <= max_total_dim up to isomorphism.
    Only for tiny prime fields; refuses when the state space is too large."""
    fld = data.field
    if fld.kind != "prime" or fld.p > 3 or not 0 <= max_total_dim <= 3:
        raise ValueError("enumeration caps: p in {2, 3} and 0 <= total dim <= 3")
    xs = {d: _enumerate_plain(data.A, d) for d in range(max_total_dim + 1)}
    ys = {d: _enumerate_plain(data.B, d) for d in range(max_total_dim + 1)}
    found = []
    for dx in range(max_total_dim + 1):
        for dy in range(max_total_dim + 1 - dx):
            for x in xs[dx]:
                for y in ys[dy]:
                    tx = mor.tensor_over(data.M, x)
                    ty = mor.tensor_over(data.N, y)
                    f_basis = alg.hom_space(tx.module, y)
                    if fld.p ** len(f_basis) > ENUMERATION_STATE_CAP:
                        raise ValueError("enumeration state space exceeds the hard cap")
                    for f_coeffs in itertools.product(range(fld.p), repeat=len(f_basis)):
                        f = _combination(fld, f_coeffs, f_basis, (y.dim, tx.dim))
                        g_basis = _compatible_g_space(data, x, y, f, tx, ty)
                        for g_coeffs in itertools.product(range(fld.p),
                                                          repeat=len(g_basis)):
                            g = _combination(fld, g_coeffs, g_basis, (x.dim, ty.dim))
                            l = mor.LambdaModule(data, x, y, f, g, tx=tx, ty=ty)
                            if not any(bool(mor.lambda_isomorphism(l, other))
                                       for other in found):
                                found.append(l)
    return found


# -- reports -------------------------------------------------------------------


@dataclass
class Claim:
    id: str
    anchor: str
    verdict: str
    witness: dict


class VerificationReport:
    def __init__(self, suite, instance_name, cfg: SampleConfig):
        self.suite = suite
        self.instance_name = instance_name
        self.cfg = cfg
        self.claims = []

    def record(self, cid, anchor, ok, witness=None):
        self.claims.append(Claim(cid, anchor, "pass" if ok else "fail",
                                 witness or {}))

    def skip(self, cid, anchor, reason):
        self.claims.append(Claim(cid, anchor, "skip", {"reason": reason}))

    @property
    def passed(self):
        return all(c.verdict != "fail" for c in self.claims)

    def to_dict(self):
        claims = sorted(self.claims, key=lambda c: c.id)
        return {
            "version": 1,
            "kind": "report",
            "suite": self.suite,
            "instance": self.instance_name,
            "cfg": {"seed": self.cfg.seed, "count": self.cfg.count,
                    "dim_cap": self.cfg.dim_cap, "rank_cap": self.cfg.rank_cap},
            "claims": [{"id": c.id, "paper_anchor": c.anchor,
                        "verdict": c.verdict, "witness": _plain_witness(c.witness)}
                       for c in claims],
            "passed": self.passed,
        }


def _plain_witness(obj):
    """Reduce a witness to JSON-serializable primitives."""
    if isinstance(obj, dict):
        return {str(k): _plain_witness(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain_witness(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    return repr(obj)


# -- structure shared by suites ---------------------------------------------------


def _ie_big_module(data):
    """(Ae1; Ae1) with both structure maps the socle inclusion.  The two
    sides live over structurally identical algebras, so the same matrix
    serves as f and g."""
    p1a = alg.indecomposable_projectives(data.A)[0]
    p1b = alg.indecomposable_projectives(data.B)[0]
    sigma = data.field.asmatrix([[0], [1]])
    return mor.LambdaModule(data, p1a, p1b, sigma, sigma)


def _upper_triangular_square(fld, small, injs, dim):
    """Pure-tensor values of the block map (s s; 0 s) on a doubled module,
    for a one-dimensional bimodule."""
    total = 2 * dim
    full = fld.zeros(small.shape[0] * 2, total)
    for j in range(total):
        if j < dim:
            full[:, j] = fld.matmul(injs[0].matrix, small[:, j : j + 1])[:, 0]
        else:
            col = small[:, j - dim : j - dim + 1]
            full[:, j] = fld.normalize(fld.matmul(injs[0].matrix, col)
                                       + fld.matmul(injs[1].matrix, col))[:, 0]
    return full


def _ie_displayed_extension(data, l):
    """The self-extension of (Ae1; Ae1)_{sigma,sigma} with middle structure
    maps (sigma sigma; 0 sigma), as displayed."""
    fld = data.field
    x2, x_injs, x_projs = alg.direct_sum([l.X, l.X])
    y2, y_injs, y_projs = alg.direct_sum([l.Y, l.Y])
    f_small = fld.matmul(l.f, l.tX.surjection)  # values on pure tensors, dm = 1
    g_small = fld.matmul(l.g, l.tY.surjection)
    tx2 = mor.tensor_over(data.M, x2)
    ty2 = mor.tensor_over(data.N, y2)
    f_full = _upper_triangular_square(fld, f_small, y_injs, l.X.dim)
    g_full = _upper_triangular_square(fld, g_small, x_injs, l.Y.dim)
    fmat = fld.matmul(f_full, tx2.section)
    gmat = fld.matmul(g_full, ty2.section)
    e = mor.LambdaModule(data, x2, y2, fmat, gmat, tx=tx2, ty=ty2)
    incl = mor.LambdaMorphism(l, e, x_injs[0].matrix, y_injs[0].matrix)
    proj = mor.LambdaMorphism(e, l, x_projs[1].matrix, y_projs[1].matrix)
    return hml.ShortExactSequence(l, e, l, incl, proj)


def _flat_exact_pair(first, second):
    fld = first.field
    f1 = mor.flatten_morphism(first)
    f2 = mor.flatten_morphism(second)
    if not fld.is_zero(fld.matmul(f2.matrix, f1.matrix)):
        return False
    return linalg.rank(fld, f1.matrix) == f1.target.dim - linalg.rank(fld, f2.matrix)


def _split_ses(left, right):
    """0 -> left -> left (+) right -> right -> 0."""
    v, injs, projs = alg.direct_sum([left, right])
    return hml.ShortExactSequence(left, v, right, injs[0], projs[1])


def _roundtrip_fails(l):
    return not mor.lambda_modules_equal(l, mor.unflatten(l.data, mor.flatten(l)))


def _sides(xs, ys):
    """Test modules as (side, module): the A-modules xs, then the B-modules ys."""
    return [("A", x) for x in xs] + [("B", y) for y in ys]


def _extadj_identities(data):
    """The identities extadj1.1-2.4 on data, in order, as tag -> (side,
    hypothesis, identity): for a module x over the algebra named by side and
    a quadruple l, identity(x, l) holds whenever hypothesis(x, l) does.  The
    hypotheses of extadj1 read x alone."""
    fld = data.field
    n_left = data.N.as_left_module()
    m_left = data.M.as_left_module()
    return {
        "extadj1.1": ("A", lambda x, l: hml.tor1(data.M, x)[0] == 0,
                      lambda x, l: hml.ext_dim(mor.functor_T(data, "A", x), l)
                      == hml.ext_dim(x, l.X)),
        "extadj1.2": ("B", lambda y, l: hml.tor1(data.N, y)[0] == 0,
                      lambda y, l: hml.ext_dim(mor.functor_T(data, "B", y), l)
                      == hml.ext_dim(y, l.Y)),
        "extadj1.3": ("A", lambda x, l: hml.ext_dim(n_left, x) == 0,
                      lambda x, l: hml.ext_dim(l.X, x)
                      == hml.ext_dim(l, mor.functor_H(data, "A", x))),
        "extadj1.4": ("B", lambda y, l: hml.ext_dim(m_left, y) == 0,
                      lambda y, l: hml.ext_dim(l.Y, y)
                      == hml.ext_dim(l, mor.functor_H(data, "B", y))),
        "extadj2.1": ("A", lambda x, l: linalg.rank(fld, l.g) == l.tY.dim,
                      lambda x, l: hml.ext_dim(mor.functor_C("A", l)[0], x)
                      == hml.ext_dim(l, mor.functor_Z(data, "A", x))),
        "extadj2.2": ("B", lambda y, l: linalg.rank(fld, l.f) == l.tX.dim,
                      lambda y, l: hml.ext_dim(mor.functor_C("B", l)[0], y)
                      == hml.ext_dim(l, mor.functor_Z(data, "B", y))),
        "extadj2.3": ("A", lambda x, l: linalg.rank(fld, l.f_tilde) == l.hom_MY().dim,
                      lambda x, l: hml.ext_dim(mor.functor_Z(data, "A", x), l)
                      == hml.ext_dim(x, mor.functor_K("A", l)[0])),
        "extadj2.4": ("B", lambda y, l: linalg.rank(fld, l.g_tilde) == l.hom_NX().dim,
                      lambda y, l: hml.ext_dim(mor.functor_Z(data, "B", y), l)
                      == hml.ext_dim(y, mor.functor_K("B", l)[0])),
    }


# -- the claim runner -------------------------------------------------------------


def _sampled_claim(rep, cid, anchor, cfg, tag, n, draw, check, **kw):
    """_run_claims for the one claim cid, whose check(case) returns the
    failure value of the case."""
    return _run_claims(rep, [cid], anchor, cfg, tag, n, draw, lambda case: [check(case)], **kw)


def _run_claims(rep, cids, anchor, cfg, tag, n, draw, check, *,
                counted="count", failed="failures", keep=None):
    """Check the claims cids on n shared cases, record each in rep and
    return the cases.

    draw(sampler, i) builds case i, counted from 0, with the sampler seeded
    by tag; with tag None there is no sampler, and draw reads a fixed or
    enumerated list.  A draw that returns None is rejected and not counted.
    At most 60 * n draws are made, and a claim left short of n cases fails.

    check(case) returns one failure value per claim, a false value when the
    case holds.  Otherwise a string s fails it as (number, s), a tuple t as
    (number, *t), a list as its items (True standing for the number), and
    any other true value as the number alone.  Cases are numbered from 0, or
    from 1 when counted is "checked".  A ValueError anywhere in a case, draw
    included, fails the case in every claim with the exception text; an
    AssertionError is an internal invariant breach and propagates.

    Each witness holds the number of cases checked under counted (left out
    when counted is None) and the claim's failures under failed, only the
    first keep of them when keep is given.
    """
    sampler = None if tag is None else _sampler(cfg, tag)
    first = 1 if counted == "checked" else 0
    cases, failures = [], [[] for _ in cids]
    checked = attempts = 0
    while checked < n and attempts < 60 * n:
        attempts += 1
        try:
            case = draw(sampler, checked)
            if case is None:
                continue
            cases.append(case)
            outcome = check(case)
        except ValueError as exc:
            outcome = [str(exc)] * len(cids)
        number = checked + first
        checked += 1
        for failure, found in zip(outcome, failures):
            if isinstance(failure, list):
                found.extend(number if f is True else f for f in failure)
            elif isinstance(failure, tuple):
                found.append((number, *failure))
            elif isinstance(failure, str):
                found.append((number, failure))
            elif failure:
                found.append(number)
    for cid, found in zip(cids, failures):
        witness = {} if counted is None else {counted: checked}
        witness[failed] = found if keep is None else found[:keep]
        rep.record(cid, anchor, checked >= n and not found, witness)
    return cases


# -- suites -----------------------------------------------------------------------


def suite_green(instance: CatalogInstance, cfg: SampleConfig) -> VerificationReport:
    rep = VerificationReport("green", instance.name, cfg)
    data = instance.data
    fld = data.field
    samples = _sampled_claim(rep, "green.roundtrip", "modovermorita", cfg, "green",
                             cfg.count, lambda s, i: s.quadruple(data), _roundtrip_fails,
                             failed="mismatches")
    k = len(samples)

    def hom_dims_differ(pair):
        d_quad = mor.lambda_hom_dim(*pair)
        d_flat = alg.hom_dim(*map(mor.flatten, pair))
        return (d_quad, d_flat) if d_quad != d_flat else None

    _sampled_claim(rep, "green.hom-dimension", "modovermorita", cfg, None, cfg.count,
                   lambda _, i: (samples[i % k], samples[(i * 7 + 3) % k]),
                   hom_dims_differ, failed="mismatches")

    def exactness_differs(i):
        l = samples[i % k]
        pres = hml.lambda_presentation(l)
        _, injs, projs = mor.lambda_direct_sum([l, l, samples[(i + 1) % k]])
        # the second pair is not exact unless the middle summand is 0
        pairs = [(pres.incl, pres.proj), (injs[0], projs[2])]
        return [True for first, second in pairs
                if mor.is_exact_pair(first, second) != _flat_exact_pair(first, second)]

    _sampled_claim(rep, "green.exactness-correspondence", "modovermorita", cfg, None,
                   max(50, cfg.count // 2), lambda _, i: i, exactness_differs,
                   failed="mismatches")

    # second expression: rebuilding from (f~, g~) recovers the quadruple,
    # and the two commuting-square conditions for morphisms agree
    def second_expression_fails(i):
        l = samples[i]
        back = mor.lambda_module_from_second_expression(data, l.X, l.Y,
                                                        l.f_tilde, l.g_tilde)
        if not mor.lambda_modules_equal(l, back):
            return "roundtrip"
        l2 = samples[(i + 1) % k]
        for phi in mor.lambda_hom_space(l, l2)[:3]:
            post_b = hml._hom_post(fld, l.hom_MY(), l2.hom_MY(), phi.b)
            post_a = hml._hom_post(fld, l.hom_NX(), l2.hom_NX(), phi.a)
            if not (fld.equal(fld.matmul(post_b, l.f_tilde), fld.matmul(l2.f_tilde, phi.a))
                    and fld.equal(fld.matmul(post_a, l.g_tilde),
                                  fld.matmul(l2.g_tilde, phi.b))):
                return "squares"
        return None

    _sampled_claim(rep, "green.second-expression", "modovermorita", cfg, None,
                   min(k, max(25, cfg.count // 4)), lambda _, i: i,
                   second_expression_fails, failed="mismatches")

    simples_l = mor.lambda_simples(data)
    n_verts = len(data.A.quiver.vertices) + len(data.B.quiver.vertices)
    ok = len(simples_l) == n_verts and all(s.total_dim == 1 for s in simples_l)
    distinct = all(not bool(mor.lambda_isomorphism(simples_l[i], simples_l[j]))
                   for i in range(len(simples_l)) for j in range(i + 1, len(simples_l)))
    rep.record("green.simple-count", "recollments", ok and distinct,
               {"count": len(simples_l), "expected": n_verts, "distinct": distinct})
    return rep


def suite_adjunction(instance: CatalogInstance, cfg: SampleConfig) -> VerificationReport:
    rep = VerificationReport("adjunction", instance.name, cfg)
    data = instance.data
    for tag, (side, hypothesis, identity) in _extadj_identities(data).items():
        algebra = data.A if side == "A" else data.B

        def draw(s, i):
            x = s.plain(algebra)
            l = s.quadruple(data, mono_bias=tag.startswith("extadj2"))
            return (x, l) if hypothesis(x, l) else None

        _sampled_claim(rep, f"adjunction.{tag}", tag, cfg, f"adjunction.{tag}", cfg.count,
                       draw, lambda case: not identity(*case), counted="checked",
                       failed="mismatches")
    return rep


def _sample_test_list(sampler, algebra, max_len=5, extra=()):
    n = sampler.rng.randrange(1, max_len + 1 - len(extra))
    mods = [sampler.plain(algebra) for _ in range(n)]
    return list(extra) + mods


def suite_orthogonality(instance: CatalogInstance, cfg: SampleConfig) -> VerificationReport:
    rep = VerificationReport("orthogonality", instance.name, cfg)
    data = instance.data
    tensoring = {"A": data.M, "B": data.N}
    hom_source = {"A": data.N.as_left_module(), "B": data.M.as_left_module()}

    def biconditional(name, anchor, differ, reject=None, extra=((), ()), bias=None):
        # each case is (xs, ys, l): test lists, redrawn while reject holds on
        # a member, then a quadruple; differ(xs, ys, l) is a mismatch
        def draw(s, i):
            xs = _sample_test_list(s, data.A, extra=extra[0])
            ys = _sample_test_list(s, data.B, extra=extra[1])
            if reject and any(reject(side, x) for side, x in _sides(xs, ys)):
                return None
            return xs, ys, s.quadruple(data, mono_bias=bias is not None and i % 2 == bias)

        _sampled_claim(rep, f"orthogonality.{name}", anchor, cfg,
                       "orthogonality." + name.replace(".", ""), cfg.count, draw,
                       lambda case: differ(*case), counted="checked", failed="mismatches")

    # destheta(1): right-orthogonality against T-images describes the column
    def theta1(xs, ys, l):
        tests = _sides(xs, ys)
        return (cls.orthogonal((x, mor.functor_U(side, l)) for side, x in tests)
                != cls.orthogonal((mor.functor_T(data, side, x), l) for side, x in tests))

    biconditional("destheta.1", "destheta(1)", theta1,
                  reject=lambda side, x: hml.tor1(tensoring[side], x)[0])

    # destheta(2): left-orthogonality against H-images
    def theta2(xs, ys, l):
        tests = _sides(xs, ys)
        return (cls.orthogonal((mor.functor_U(side, l), x) for side, x in tests)
                != cls.orthogonal((l, mor.functor_H(data, side, x)) for side, x in tests))

    biconditional("destheta.2", "destheta(2)", theta2,
                  reject=lambda side, x: hml.ext_dim(hom_source[side], x))

    # desdelta(1): the mono class over perps vs orthogonality to Z-images
    def delta1(xs, ys, l):
        uspec = cls.ClassSpec("left_perp", data.A, tuple(xs))
        vspec = cls.ClassSpec("left_perp", data.B, tuple(ys))
        return (cls.in_delta(l, uspec, vspec)
                != cls.orthogonal((l, mor.functor_Z(data, side, x))
                                  for side, x in _sides(xs, ys)))

    biconditional("desdelta.1", "desdelta(1)", delta1, bias=0,
                  extra=(alg.indecomposable_injectives(data.A),
                         alg.indecomposable_injectives(data.B)))

    # desdelta(2): the epi class over perps vs orthogonality from Z-images
    def delta2(xs, ys, l):
        xspec = cls.ClassSpec("right_perp", data.A, tuple(xs))
        yspec = cls.ClassSpec("right_perp", data.B, tuple(ys))
        return (cls.in_nabla(l, xspec, yspec)
                != cls.orthogonal((mor.functor_Z(data, side, x), l)
                                  for side, x in _sides(xs, ys)))

    biconditional("desdelta.2", "desdelta(2)", delta2, bias=1,
                  extra=(alg.indecomposable_projectives(data.A),
                         alg.indecomposable_projectives(data.B)))
    return rep


def suite_compare(instance: CatalogInstance, cfg: SampleConfig) -> VerificationReport:
    rep = VerificationReport("compare", instance.name, cfg)
    data = instance.data
    families = ("TA-ZA", "TA-ZB", "TB-ZA", "TB-ZB")

    # one sample stream feeds the four claims
    def draw(s, i):
        xs = _sample_test_list(s, data.A, max_len=3)
        ys = _sample_test_list(s, data.B, max_len=3)
        u = s.plain(data.A)
        v = s.plain(data.B)
        if hml.tor1(data.M, u)[0] or hml.tor1(data.N, v)[0]:
            return None
        if any(hml.ext_dim(u, x) for x in xs) or any(hml.ext_dim(v, y) for y in ys):
            return None  # u, v must be orthogonal to the sampled right classes
        return xs, ys, u, v

    def check(case):
        xs, ys, u, v = case
        tu = mor.functor_T(data, "A", u)
        tv = mor.functor_T(data, "B", v)
        count = dict.fromkeys(families, 0)
        for side, tests in (("A", xs), ("B", ys)):
            for t in tests:
                z = mor.functor_Z(data, side, t)
                count[f"TA-Z{side}"] += bool(hml.ext_dim(tu, z))
                count[f"TB-Z{side}"] += bool(hml.ext_dim(tv, z))
        return [[True] * count[fam] for fam in families]

    _run_claims(rep, [f"compare.{fam}" for fam in families], "compare", cfg, "compare",
                cfg.count, draw, check, counted="checked")
    return rep


def _iso_witness(dim, iso):
    """The witness of a claim that a module of dimension dim is isomorphic
    to a given one: an isomorphism test that cannot tell is named, so the
    failure it gives does not read as a refutation."""
    if iso.status == "undetermined":
        return {"dim": dim, "isomorphism": "undetermined"}
    return {"dim": dim}


def suite_example_ie(instance: CatalogInstance, cfg: SampleConfig) -> VerificationReport:
    rep = VerificationReport("example-ie", instance.name, cfg)
    if instance.name != "ie":
        rep.record("preflight", "ie", False, {"reason": "needs the ie instance"})
        return rep
    data = instance.data
    fld = data.field
    p1, p2 = alg.indecomposable_projectives(data.A)
    s1, s2 = alg.simples(data.A)

    lam = mor.materialize(data)
    rep.record("ie.dim-lambda", "ie", lam.dim == 8, {"dim": lam.dim})

    t = mor.tensor_over(data.M, p1)
    iso = alg.module_isomorphism(t.module, s2)
    rep.record("ie.tensor-M-Ae1", "ie", t.dim == 1 and bool(iso), _iso_witness(t.dim, iso))

    h = alg.hom_module(data.M, p1)
    iso = alg.module_isomorphism(h.module, s1)
    rep.record("ie.hom-M-Ae1", "ie", h.dim == 1 and bool(iso), _iso_witness(h.dim, iso))

    nn = mor.tensor_over(data.N, data.N.as_left_module())
    rep.record("ie.NN-vanishes", "ie", nn.dim == 0, {"dim": nn.dim})

    big = _ie_big_module(data)
    inj_spec = cls.injectives_spec(data.A)
    ok = (cls.in_mon(big) and cls.in_epi(big)
          and cls.in_column(big, inj_spec, cls.injectives_spec(data.B)))
    rep.record("ie.L-memberships", "ie", ok,
               {"mon": cls.in_mon(big), "epi": cls.in_epi(big)})

    d_ext = hml.ext_dim(big, big, 1)
    d_flat = hml.lambda_ext_dim_flatten(big, big, 1)
    rep.record("ie.ext-L-L-nonzero", "ie", d_ext == d_flat and d_ext > 0,
               {"quadruple": d_ext, "flatten": d_flat})

    ses = _ie_displayed_extension(data, big)
    sp, _ = hml.splits(ses)
    zero_class = hml.ext_class_is_zero(ses)
    expect_split = fld.p == 2
    rep.record("ie.displayed-extension-split", "ie",
               sp == expect_split and zero_class == sp,
               {"splits": sp, "class_zero": zero_class, "p": fld.p})

    rep.record("ie.projdim-L", "notgor1", hml.proj_dim_upto(big, 3) == 1,
               {"pd": hml.proj_dim_upto(big, 3)})

    za = mor.functor_Z(data, "A", p1)
    ok = (not cls.in_mon(za)) and (not cls.in_epi(za)) \
        and hml.proj_dim_upto(za, 3) == 1
    rep.record("ie.Ae1-zero-module", "nongor3", ok,
               {"mon": cls.in_mon(za), "epi": cls.in_epi(za),
                "pd": hml.proj_dim_upto(za, 3)})

    ts2 = mor.functor_T(data, "A", s2)
    ok = cls.projective_by_shape(ts2) and hml.is_projective_lambda(ts2)
    rep.record("ie.TA-S2-projective", "notgor1", ok, {})

    # the four pairwise difference witnesses
    proj_spec_a = cls.projectives_spec(data.A)
    proj_spec_b = cls.projectives_spec(data.B)
    w1 = cls.in_mon(big) and cls.in_column(big, inj_spec, cls.injectives_spec(data.B)) \
        and d_ext > 0
    rep.record("ie.witness-first-vs-second", "ie", w1, {})
    w2 = d_ext > 0  # L lies in the third left class (everything) but not the first
    rep.record("ie.witness-first-vs-third", "ie", w2, {})
    w3 = not cls.in_mon(za)
    rep.record("ie.witness-second-vs-third", "ie", w3, {})
    w4 = cls.in_column(big, proj_spec_a, proj_spec_b) and cls.in_epi(big) and d_ext > 0
    rep.record("ie.witness-third-vs-fourth", "ie", w4, {})
    return rep


def suite_char2(instance: CatalogInstance, cfg: SampleConfig) -> VerificationReport:
    rep = VerificationReport("char2", instance.name, cfg)
    if instance.name != "ie" or instance.field.p != 2:
        rep.record("preflight", "ie", False,
                   {"reason": "needs the ie instance over F_2"})
        return rep
    data = instance.data
    big = _ie_big_module(data)
    ses = _ie_displayed_extension(data, big)
    sp, retraction = hml.splits(ses)
    ok = sp and retraction is not None
    if ok:
        fld = data.field
        ok = (fld.equal(fld.matmul(retraction.a, ses.incl.a), fld.eye(big.X.dim))
              and fld.equal(fld.matmul(retraction.b, ses.incl.b), fld.eye(big.Y.dim)))
    rep.record("char2.displayed-extension-splits", "ie", ok,
               {"splits": sp, "retraction_checked": ok})
    rep.record("char2.class-zero", "ie", hml.ext_class_is_zero(ses), {})
    return rep



def suite_ctp4(instance: CatalogInstance, cfg: SampleConfig) -> VerificationReport:
    rep = VerificationReport("ctp4", instance.name, cfg)
    data = instance.data
    cert = cls.GorensteinCertificate(data)
    rep.record("ctp4.preflight", "ctp4", cert.ok, {"reasons": cert.reasons})
    if not cert.ok:
        return rep

    # indecomposable projective quadruples: injective dimension at most one,
    # by the displayed coresolution and by the dual route, in agreement
    indec = ([mor.functor_T(data, "A", p)
              for p in alg.indecomposable_projectives(data.A)]
             + [mor.functor_T(data, "B", q)
                for q in alg.indecomposable_projectives(data.B)])

    def routes_disagree(t):
        try:
            hml.coresolution_ij(t)  # the sequence checks itself when built
            route1_bound = 1
        except ValueError:
            route1_bound = None
        route2 = hml.inj_dim_upto(t, 2)
        by_shape = cls.injective_by_shape(t)
        agree = (route1_bound == 1 and route2 is not None and route2 <= 1
                 and (route2 == 0) == by_shape)
        return None if agree else (route1_bound, route2, by_shape)

    _sampled_claim(rep, "ctp4.injdim-projectives", "proj-injdim(2)", cfg, None, len(indec),
                   lambda _, i: indec[i], routes_disagree)

    n = max(cfg.count, 200)
    _sampled_claim(rep, "ctp4.gp-eq-mon", "ctp4(2)", cfg, "ctp4.gp", n,
                   lambda s, i: s.quadruple(data, mono_bias=(i % 3 == 0)),
                   lambda l: cls.gp_member(cert, l) != cls.in_mon(l), failed="mismatches")
    _sampled_claim(rep, "ctp4.gi-eq-epi", "ctp4(2)'", cfg, "ctp4.gi", n,
                   lambda s, i: s.quadruple(data, mono_bias=(i % 3 == 1)),
                   lambda l: cls.gi_member(cert, l) != cls.in_epi(l), failed="mismatches")

    def mono_biased(s, i):
        return s.quadruple(data, mono_bias=True)

    # a Gorenstein-projective member of finite nonzero projective dimension
    # would contradict the theory; report any such sample loudly
    def finite_nonzero_pd(l):
        if not cls.gp_member(cert, l):
            return None
        pd = hml.proj_dim_upto(l, 2)
        return None if pd in (0, None) else (pd,)

    _sampled_claim(rep, "ctp4.gp-finite-pd-contradiction", "ctp4(2)", cfg, "ctp4.gp-pd",
                   max(25, cfg.count // 4), mono_biased, finite_nonzero_pd,
                   failed="contradictions")

    # kernels of epimorphisms between members of the mono class stay inside
    # (the flat-bimodule closure property)
    def leaves_mon(l):
        if not cls.in_mon(l):
            return None
        pres = hml.lambda_presentation(l)
        if not cls.in_mon(pres.middle):
            return "middle"
        return None if cls.in_mon(pres.left) else "kernel"

    _sampled_claim(rep, "ctp4.mon-kernel-closure", "deltaher(1)", cfg, "ctp4.deltaher",
                   max(25, cfg.count // 4), mono_biased, leaves_mon)

    _resolution_claims(rep, data, cfg, max(50, cfg.count // 2))
    return rep


def _resolution_claims(rep, data, cfg, n):
    def pq_fails(l):
        ses = hml.resolution_pq(l)
        return not (cls.projective_by_shape(ses.left) and hml.is_projective_lambda(ses.left))

    def ij_fails(l):
        ses = hml.coresolution_ij(l)
        return not (cls.injective_by_shape(ses.right) and hml.inj_dim_upto(ses.right, 0) == 0)

    _sampled_claim(rep, "resolutions.pq", "proj-injdim(1)", cfg, "resolutions.pq", n,
                   lambda s, i: s.quadruple_on(data, s.plain_projective(data.A),
                                               s.plain_projective(data.B)), pq_fails)
    _sampled_claim(rep, "resolutions.ij", "proj-injdim(2)", cfg, "resolutions.ij", n,
                   lambda s, i: s.quadruple_on(data, s.plain_injective(data.A),
                                               s.plain_injective(data.B)), ij_fails)
    _sampled_claim(rep, "resolutions.pq-split-for-f0g0-summands", "proj-injdim(1)", cfg,
                   "resolutions.split", 10, lambda s, i: s.projective_quadruple(data),
                   lambda l: not hml.splits(hml.resolution_pq(l))[0], counted=None)


def suite_resolutions(instance: CatalogInstance, cfg: SampleConfig) -> VerificationReport:
    rep = VerificationReport("resolutions", instance.name, cfg)
    data = instance.data
    if not data.tensor_vanishing:
        rep.record("preflight", "proj-injdim", False,
                   {"reason": "tensor products do not vanish"})
        return rep
    _resolution_claims(rep, data, cfg, max(50, cfg.count // 2))
    return rep


def _shape_fails(end, side, parts):
    """Shape test of an approximation: the given side of its kernel (end
    "left") or cokernel (end "right") is the direct sum of the named parts.
    Its failure value is None when the isomorphism test says so, "shape"
    when it says not, and "undetermined" when it cannot tell."""
    def fails(res):
        got = mor.functor_U(side, getattr(res.ses, end))
        want, _, _ = alg.direct_sum([res.parts[p] for p in parts])
        status = alg.module_isomorphism(got, want).status
        return {"isomorphic": None, "not_isomorphic": "shape"}.get(status, status)
    return fails


def suite_completeness(instance: CatalogInstance, cfg: SampleConfig) -> VerificationReport:
    rep = VerificationReport("completeness", instance.name, cfg)
    data = instance.data
    hyp = {
        "c1": alg.is_projective_module(data.M.as_left_module()) or data.M.dim == 0,
        "c2": alg.is_projective_module(data.N.as_left_module()) or data.N.dim == 0,
        "c3": alg.is_projective_module(data.N.right_as_left_module()) or data.N.dim == 0,
        "c4": alg.is_projective_module(data.M.right_as_left_module()) or data.M.dim == 0,
    }
    if not all(hyp.values()):
        rep.record("preflight", "completeness1", False, {"hypotheses": hyp})
        return rep

    builders = {
        "completeness.c1": (hml.approx_c1, "completeness1",
                            _shape_fails("left", "B", ("MP", "Y"))),
        "completeness.c2": (hml.approx_c2, "completeness2",
                            _shape_fails("left", "A", ("X", "NQ"))),
        "completeness.c3": (hml.approx_c3, "completeness3",
                            _shape_fails("right", "B", ("HNI", "V"))),
        "completeness.c4": (hml.approx_c4, "completeness4",
                            _shape_fails("right", "A", ("U", "HMJ"))),
    }
    for cid, (builder, anchor, shape_fails) in builders.items():
        _sampled_claim(rep, cid, anchor, cfg, cid, cfg.count,
                       lambda s, i: s.quadruple(data),
                       lambda l: shape_fails(builder(l)))

    _ctp23_claims(rep, data, cfg)

    try:
        tri = catalog("triangular", instance.field)
        _triangular_claims(rep, tri.data, cfg)
    except ValueError as exc:
        rep.record("completeness.triangular", "triangular", False,
                   {"reason": str(exc)})
    return rep


def _trivial_injective_left_approx(x):
    """0 -> I -> I (+) x -> x -> 0, with I the injective envelope of x,
    realizes a special sequence for the injective cotorsion pair
    (everything, injectives)."""
    return _split_ses(alg.injective_envelope(x)[0], x)


def _ctp23_claims(rep, data, cfg):
    """ctp2 on the B side and its ctp3 mirror on the A side: (1) with the
    injective pair downstairs, the middle term is a T-sum and the kernel
    lands in the injective column; (2) with the projective pair downstairs,
    the left approximation by an H-sum keeps a projective cokernel part."""
    a, b = data.A, data.B
    proj, inj, every = cls.projectives_spec, cls.injectives_spec, cls.all_spec

    def ctp2_1(l):
        res = hml.approx_c1(l, ses0=_trivial_injective_left_approx(l.Y))
        return (cls.delta_decompose(res.ses.middle, proj(a), every(b)) is not None,
                alg.is_injective_module(res.ses.left.Y))

    def ctp2_2(case):
        l, q = case
        res = hml.approx_c3(l, ses0=_split_ses(l.Y, q))
        return (cls.nabla_decompose(res.ses.middle, inj(a), every(b)) is not None,
                alg.is_projective_module(res.ses.right.Y))

    def ctp3_1(l):
        res = hml.approx_c2(l, ses0=_trivial_injective_left_approx(l.X))
        return (cls.delta_decompose(res.ses.middle, every(a), proj(b)) is not None,
                alg.is_injective_module(res.ses.left.X))

    def ctp3_2(case):
        l, p = case
        res = hml.approx_c4(l, ses0=_split_ses(l.X, p))
        return (cls.nabla_decompose(res.ses.middle, every(a), inj(b)) is not None,
                alg.is_projective_module(res.ses.right.X))

    misses_injectives = "the image of the projectives misses the injectives"
    claims = (
        ("ctp2-1", "ctp2(1)", "ctp2.1", ctp2_1, misses_injectives,
         lambda: cls.tensor_image_in(data, "A", proj(a), inj(b)),
         lambda s, i: s.quadruple(data)),
        ("ctp2-2", "ctp2(2)", "ctp2.2", ctp2_2, "Hom(N, injectives) misses the projectives",
         lambda: cls.hom_image_in(data, "A", inj(a), proj(b)),
         lambda s, i: (s.quadruple(data), s.plain_projective(b))),
        ("ctp3-1", "ctp3(1)", "ctp3.1", ctp3_1, misses_injectives,
         lambda: cls.tensor_image_in(data, "B", proj(b), inj(a)),
         lambda s, i: s.quadruple(data)),
        ("ctp3-2", "ctp3(2)", "ctp3.2", ctp3_2, "Hom(M, injectives) misses the projectives",
         lambda: cls.hom_image_in(data, "B", inj(b), proj(a)),
         lambda s, i: (s.quadruple(data), s.plain_projective(a))),
    )
    for name, anchor, tag, members, reason, probe, draw in claims:
        if probe() is False:
            rep.skip(f"completeness.{name}", anchor, reason)
            continue
        _sampled_claim(rep, f"completeness.{name}", anchor, cfg, tag,
                       max(20, cfg.count // 4), draw,
                       lambda case: None if all(members(case)) else "membership")


def _triangular_claims(rep, data, cfg):
    """Prop. triangular: horseshoe-merged approximations on the M = 0
    instance, middle in the mono class and kernel componentwise injective."""
    fld = data.field
    inj_a = cls.injectives_spec(data.A)
    inj_b = cls.injectives_spec(data.B)

    def merged_fails(l):
        # canonical 0 -> Z_A L1 -> L -> Z_B L2 -> 0 for M = 0
        za = mor.functor_Z(data, "A", l.X)
        zb = mor.functor_Z(data, "B", l.Y)
        incl = mor.LambdaMorphism(za, l, fld.eye(l.X.dim), fld.zeros(l.Y.dim, 0))
        proj = mor.LambdaMorphism(l, zb, fld.zeros(0, l.X.dim), fld.eye(l.Y.dim))
        s = hml.ShortExactSequence(za, l, zb, incl, proj)
        # approximations of the outer terms in (Mon, column of injectives)
        env, mono = alg.injective_envelope(l.X)
        u, injs, projs = alg.direct_sum([env, l.X])
        z = fld.zeros(0, 0)
        approx_l = hml.ShortExactSequence(
            mor.functor_Z(data, "A", env), mor.functor_Z(data, "A", u), za,
            mor.LambdaMorphism(mor.functor_Z(data, "A", env),
                               mor.functor_Z(data, "A", u), injs[0].matrix, z),
            mor.LambdaMorphism(mor.functor_Z(data, "A", u), za, projs[1].matrix, z))
        envy, monoy = alg.injective_envelope(l.Y)
        v, injsy, projsy = alg.direct_sum([envy, l.Y])
        tbv = mor.functor_T(data, "B", v)
        epi = mor.LambdaMorphism(tbv, zb, fld.zeros(0, tbv.X.dim), projsy[1].matrix)
        kv, inclv = mor.lambda_kernel(epi)
        approx_r = hml.ShortExactSequence(kv, tbv, zb, inclv, epi)
        merged = hml.horseshoe_merge(s, approx_l, approx_r)
        mid_ok = cls.in_mon(merged.middle)
        ker_ok = cls.in_column(merged.left, inj_a, inj_b)
        return None if mid_ok and ker_ok else "membership"

    _sampled_claim(rep, "completeness.triangular", "triangular", cfg, "triangular",
                   max(10, cfg.count // 10), lambda s, i: s.quadruple(data), merged_fails)


def suite_differences(instance: CatalogInstance, cfg: SampleConfig) -> VerificationReport:
    """The inequality witnesses: concrete modules separating the catalog
    cotorsion-pair constructions from each other and from the
    Gorenstein-projective/-injective and flat ones."""
    rep = VerificationReport("differences", instance.name, cfg)
    field = instance.field
    ie = instance if instance.name == "ie" else catalog("ie", field)
    data = ie.data
    p1, p2 = alg.indecomposable_projectives(data.A)
    s1, s2 = alg.simples(data.A)
    big = _ie_big_module(data)
    ext_ll = hml.ext_dim(big, big, 1)

    # T_A S2 = Z_A S2 is projective but not componentwise injective
    ts2 = mor.functor_T(data, "A", s2)
    ok = (cls.projective_by_shape(ts2)
          and not cls.in_column(ts2, cls.injectives_spec(data.A),
                                cls.injectives_spec(data.B)))
    rep.record("differences.notgor1-claim1", "notgor1", ok, {})

    ok = hml.proj_dim_upto(big, 3) == 1 and ext_ll > 0
    rep.record("differences.notgor1-claim2", "notgor1", ok, {"ext": ext_ll})

    ok = cls.in_column(big, cls.projectives_spec(data.A),
                       cls.projectives_spec(data.B)) and ext_ll > 0
    rep.record("differences.notgor1-claim3", "notgor1", ok, {})

    hbs1 = mor.functor_H(data, "B", s1)
    ok = (cls.injective_by_shape(hbs1)
          and not cls.in_column(hbs1, cls.projectives_spec(data.A),
                                cls.projectives_spec(data.B)))
    rep.record("differences.notgor1-claim4", "notgor1", ok, {})

    za = mor.functor_Z(data, "A", p1)
    pres = hml.lambda_presentation(za)
    ok = (hml.proj_dim_upto(za, 3) == 1
          and cls.projective_by_shape(pres.left)
          and not cls.in_mon(za) and not cls.in_epi(za))
    rep.record("differences.nongor3", "nongor3", ok, {})

    ok = cls.in_epi(big) and ext_ll > 0
    rep.record("differences.nongor3-epi-witness", "nongor3", ok, {})

    # flat components of projective quadruples (finite dimensional reading)
    _sampled_claim(rep, "differences.flat-components", "flat", cfg, "differences.flat", 10,
                   lambda s, i: s.projective_quadruple(data),
                   lambda l: not (alg.is_projective_module(mor.functor_C("A", l)[0])
                                  and alg.is_projective_module(mor.functor_C("B", l)[0])),
                   counted=None)

    # non-projective T_A X is orthogonal to sampled componentwise injectives
    def non_flat(s, i):
        x = s.plain(data.A)
        return None if alg.is_projective_module(x) or hml.tor1(data.M, x)[0] else x

    h_injectives = cls.h_images_of_injectives(data)

    def not_a_witness(x):
        tx = mor.functor_T(data, "A", x)
        return (cls.projective_by_shape(tx) or hml.is_projective_lambda(tx)
                or not cls.orthogonal((tx, t) for t in h_injectives))

    _sampled_claim(rep, "differences.newI-nonflat-witness", "newI", cfg, "differences.newI",
                   20, non_flat, not_a_witness, counted="checked")

    def injective_column(tag, d, k):
        # k quadruples with a sampled X and a componentwise injective Y
        s = _sampler(cfg, tag)
        return [s.quadruple_on(d, s.plain(d.A), s.plain_injective(d.B)) for _ in range(k)]

    # the (A A; A A) instance: T_B Y with Y non-projective
    irem1 = catalog("irem1", field)
    d1 = irem1.data
    y = alg.simples(d1.B)[0]
    ty = mor.functor_T(d1, "B", y)
    ok = not alg.is_projective_module(y)
    ok = ok and hml.tor1(d1.N, y)[0] == 0
    witnesses = injective_column("differences.irem1", d1, 10)
    ok = ok and cls.orthogonal((ty, t) for t in witnesses)
    ok = ok and not cls.in_column(ty, cls.projectives_spec(d1.A),
                                  cls.projectives_spec(d1.B))
    rep.record("differences.different-step4", "different", ok, {})

    # Z_A of the injective envelope of N fails the epi class
    env, _ = alg.injective_envelope(d1.N.as_left_module())
    zi = mor.functor_Z(d1, "A", env)
    rep.record("differences.different2", "different2", not cls.in_epi(zi), {})

    # on the quasi-Frobenius instance, T of a non-projective module separates
    # the column pairs from the Gorenstein ones
    nak = catalog("examctp4", field, n=3, h=2, i=1, j=3)
    dn = nak.data
    y2 = alg.simples(dn.B)[0]
    ok = not alg.is_projective_module(y2) and hml.tor1(dn.N, y2)[0] == 0
    ty2 = mor.functor_T(dn, "B", y2)
    witnesses = injective_column("differences.notgor2", dn, 8)
    ok = ok and cls.orthogonal((ty2, t) for t in witnesses)
    ok = ok and not cls.in_column(ty2, cls.projectives_spec(dn.A),
                                  cls.projectives_spec(dn.B))
    rep.record("differences.notgor2-TB-witness", "notgor2", ok, {})

    x2 = alg.simples(dn.A)[0]
    tx2 = mor.functor_T(dn, "A", x2)
    ok = (not alg.is_projective_module(x2)
          and cls.orthogonal((tx2, t) for t in cls.h_images_of_injectives(dn))
          and not cls.in_column(tx2, cls.projectives_spec(dn.A),
                                cls.all_spec(dn.B)))
    rep.record("differences.notgor2-TA-witness", "notgor2", ok, {})
    return rep


def _frobenius_hovey_specs(data):
    """The four projective/injective-model triples of the quasi-Frobenius
    catalog instances, with their constituent approximations."""
    proj_a = cls.projectives_spec(data.A)
    proj_b = cls.projectives_spec(data.B)
    inj_a = cls.injectives_spec(data.A)
    inj_b = cls.injectives_spec(data.B)
    all_a = cls.all_spec(data.A)
    all_b = cls.all_spec(data.B)

    def pres_approx(l):
        return hml.lambda_presentation(l)

    def c1_inj_approx(l):
        return hml.approx_c1(l, ses0=_trivial_injective_left_approx(l.Y)).ses

    def c2_inj_approx(l):
        return hml.approx_c2(l, ses0=_trivial_injective_left_approx(l.X)).ses

    def c3_proj_approx(l):
        ses0 = _split_ses(l.Y, alg.indecomposable_projectives(data.B)[0])
        return hml.approx_c3(l, ses0=ses0).ses

    def c3_default(l):
        return hml.approx_c3(l).ses

    def c4_proj_approx(l):
        ses0 = _split_ses(l.X, alg.indecomposable_projectives(data.A)[0])
        return hml.approx_c4(l, ses0=ses0).ses

    def c4_default(l):
        return hml.approx_c4(l).ses

    return {
        "frobB.1": cls.HoveySpec(
            "frobB.1",
            c_spec=cls.LambdaClassSpec("t_sum", data, proj_a, all_b),
            f_spec=cls.LambdaClassSpec("all", data),
            w_spec=cls.LambdaClassSpec("column", data, all_a, inj_b),
            cw_spec=cls.LambdaClassSpec("projectives", data),
            fw_spec=cls.LambdaClassSpec("column", data, all_a, inj_b),
            pair1_approx=pres_approx, pair2_approx=c1_inj_approx),
        "frobB.2": cls.HoveySpec(
            "frobB.2",
            c_spec=cls.LambdaClassSpec("all", data),
            f_spec=cls.LambdaClassSpec("h_sum", data, inj_a, all_b),
            w_spec=cls.LambdaClassSpec("column", data, all_a, proj_b),
            cw_spec=cls.LambdaClassSpec("column", data, all_a, proj_b),
            fw_spec=cls.LambdaClassSpec("injectives", data),
            pair1_approx=c3_proj_approx, pair2_approx=c3_default),
        "frobA.1": cls.HoveySpec(
            "frobA.1",
            c_spec=cls.LambdaClassSpec("t_sum", data, all_a, proj_b),
            f_spec=cls.LambdaClassSpec("all", data),
            w_spec=cls.LambdaClassSpec("column", data, inj_a, all_b),
            cw_spec=cls.LambdaClassSpec("projectives", data),
            fw_spec=cls.LambdaClassSpec("column", data, inj_a, all_b),
            pair1_approx=pres_approx, pair2_approx=c2_inj_approx),
        "frobA.2": cls.HoveySpec(
            "frobA.2",
            c_spec=cls.LambdaClassSpec("all", data),
            f_spec=cls.LambdaClassSpec("h_sum", data, all_a, inj_b),
            w_spec=cls.LambdaClassSpec("column", data, proj_a, all_b),
            cw_spec=cls.LambdaClassSpec("column", data, proj_a, all_b),
            fw_spec=cls.LambdaClassSpec("injectives", data),
            pair1_approx=c4_proj_approx, pair2_approx=c4_default),
    }


def suite_hovey(instance: CatalogInstance, cfg: SampleConfig) -> VerificationReport:
    rep = VerificationReport("hovey", instance.name, cfg)
    data = instance.data
    cert = cls.GorensteinCertificate(data)
    if not cert.ok:
        rep.record("preflight", "Htriple1", False, {"reasons": cert.reasons})
        return rep
    sampler = _sampler(cfg, "hovey")
    pool = [sampler.quadruple(data, mono_bias=(i % 2 == 0)) for i in range(12)]
    pool.append(sampler.projective_quadruple(data))
    sess = [hml.lambda_presentation(l) for l in pool[:6]]
    pairs = [(l, t) for l in pool for t in pool]
    members = {}  # the suite's one membership table, see cls.membership
    for name, spec in _frobenius_hovey_specs(data).items():
        entries = cls.hovey_ingredients_check(spec, pool, sess, members)
        for cid, ok, detail in entries:
            rep.record(f"hovey.{name}.{cid}", name, ok, detail)

        # heredity probe: second Ext vanishing across both constituent pairs
        def second_ext(pair):
            l, t = pair
            return [which for which, left, right in (("pair1", spec.cw_spec, spec.f_spec),
                                                     ("pair2", spec.c_spec, spec.fw_spec))
                    if cls.membership(members, left, l) and cls.membership(members, right, t)
                    and hml.ext_dim(l, t, 2) != 0]

        _sampled_claim(rep, f"hovey.{name}.heredity", "heredity", cfg, None, len(pairs),
                       lambda _, i: pairs[i], second_ext, counted=None)

    # degenerate product instance: both triples collapse and still pass
    prod = catalog("product", instance.field)
    psampler = _sampler(cfg, "hovey.product")
    ppool = [psampler.quadruple(prod.data) for _ in range(6)]
    psess = [hml.lambda_presentation(l) for l in ppool[:3]]
    for name, spec in _frobenius_hovey_specs(prod.data).items():
        entries = cls.hovey_ingredients_check(spec, ppool, psess, members)
        ok = all(e[1] for e in entries)
        rep.record(f"hovey.product.{name}", name, ok,
                   {} if ok else {"entries": [(e[0], e[1]) for e in entries]})
    return rep


def suite_oracle(instance: CatalogInstance, cfg: SampleConfig) -> VerificationReport:
    """Exhaustive cross-check on the tiny enumerated universes."""
    rep = VerificationReport("oracle", instance.name, cfg)
    field = instance.field
    if field.kind != "prime" or field.p != 2:
        rep.record("preflight", "oracle", False, {"reason": "runs over F_2"})
        return rep

    prod = catalog("product", field)
    universe_p = enumerate_small(prod.data, 1)
    by_dim = {}
    for l in universe_p:
        by_dim.setdefault(l.total_dim, []).append(l)
    rep.record("oracle.product-count", "recollments",
               len(by_dim.get(0, [])) == 1 and len(by_dim.get(1, [])) == 2,
               {"dims": {d: len(v) for d, v in by_dim.items()}})

    ie = catalog("ie", field)
    universe = enumerate_small(ie.data, 2)
    counts = {}
    for l in universe:
        counts[l.total_dim] = counts.get(l.total_dim, 0) + 1
    rep.record("oracle.ie-universe", "ie", len(universe) > 0,
               {"counts": counts, "total": len(universe)})

    for tag, data, uni in (("product", prod.data, universe_p), ("ie", ie.data, universe)):
        def claim(cid, anchor, check, **kw):
            _sampled_claim(rep, f"oracle.{cid}-{tag}", anchor, cfg, None, len(uni),
                           lambda _, i: uni[i], check, **kw)

        claim("green-exhaustive", "modovermorita", _roundtrip_fails)

        simple_flat, _, _ = alg.direct_sum([mor.flatten(s)
                                            for s in mor.lambda_simples(data)])

        def routes_disagree(l):
            by_shape = cls.projective_by_shape(l)
            by_ext = hml.is_projective_lambda(l)
            by_flat = l.total_dim == 0 or hml.ext_dim(mor.flatten(l), simple_flat, 1) == 0
            return not (by_shape == by_ext == by_flat)

        claim("projectivity-two-routes", "ctp4", routes_disagree)

        plain = {side: _enumerate_plain(algebra, 1) + _enumerate_plain(algebra, 2)
                 for side, algebra in (("A", data.A), ("B", data.B))}
        extadj1 = [(tag, *entry) for tag, entry in _extadj_identities(data).items()
                   if tag.startswith("extadj1")]

        def identity_failures(l):
            # for each A-module 1.1 then 1.3, for each B-module 1.2 then 1.4
            for side, modules in plain.items():
                for x in modules:
                    for tag, on, hypothesis, identity in extadj1:
                        if on == side and hypothesis(x, l) and not identity(x, l):
                            yield (tag, x.dim, l.dims)

        claim("adjunction-exhaustive", "extadj1",
              lambda l: list(identity_failures(l)), keep=5)
    return rep


SUITES = {
    "green": suite_green,
    "adjunction": suite_adjunction,
    "orthogonality": suite_orthogonality,
    "compare": suite_compare,
    "example-ie": suite_example_ie,
    "char2": suite_char2,
    "ctp4": suite_ctp4,
    "resolutions": suite_resolutions,
    "completeness": suite_completeness,
    "differences": suite_differences,
    "hovey": suite_hovey,
    "oracle": suite_oracle,
}


def run_suite(name: str, instance: CatalogInstance,
              cfg: SampleConfig = SampleConfig()) -> VerificationReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return SUITES[name](instance, cfg)
