"""Versioned JSON documents: algebras, modules, bimodules, Morita data,
quadruple modules and verification reports.

One file holds one object; cross-references are relative paths resolved
against the referring file.  Prime-field entries are integers 0..p-1,
rationals are "num/den" strings; emission is byte-stable (fixed key order,
two-space indent, trailing newline).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .fields import FieldSpec
from . import algebras as alg
from . import morita as mor

DOC_VERSION = 1


class SchemaError(ValueError):
    pass


def _member(doc, key, kind, what):
    """doc[key], which must be present and of the given type(s); anything
    else, or a doc that is not an object, is a SchemaError naming the key."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, kind):
        raise SchemaError(f"{key!r} must be {what}")
    return value


def _dim_from_json(doc):
    dim = _member(doc, "dim", int, "a non-negative integer")
    if isinstance(dim, bool) or dim < 0:
        raise SchemaError("'dim' must be a non-negative integer")
    return dim


def _name_from_json(doc, key):
    return str(_member(doc, key, (str, int), "a string or an integer"))


def _scalar_from_json(field, x):
    try:
        return field.scalar(x)
    except ValueError as exc:
        raise SchemaError(f"bad scalar entry: {exc}") from exc


# -- scalars and matrices ------------------------------------------------------


def scalar_to_json(field, v):
    if field.kind == "prime":
        return int(v)
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


def matrix_to_json(field, m):
    return [[scalar_to_json(field, m[i, j]) for j in range(m.shape[1])]
            for i in range(m.shape[0])]


def matrix_from_json(field, rows, shape):
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SchemaError("matrix must be a list of rows")
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        raise SchemaError(f"matrix must have shape {shape}")
    if not rows or not rows[0]:
        return field.zeros(*shape)
    try:
        return field.asmatrix(rows)
    except ValueError as exc:
        raise SchemaError(f"bad matrix entry: {exc}") from exc


def field_to_json(field: FieldSpec):
    if field.kind == "prime":
        return {"kind": "prime", "p": field.p}
    return {"kind": "rational"}


def field_from_json(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("field must be an object with a kind")
    if doc["kind"] == "prime":
        return FieldSpec("prime", _member(doc, "p", int, "a prime"))
    if doc["kind"] == "rational":
        return FieldSpec("rational")
    raise SchemaError(f"unknown field kind {doc['kind']!r}")


def document_kind(doc):
    """The kind field of a document, which must be a JSON object."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    return doc.get("kind")


def _require(doc, kind):
    found = document_kind(doc)
    if doc.get("version") != DOC_VERSION:
        raise SchemaError("missing or unsupported version field")
    if found != kind:
        raise SchemaError(f"expected a {kind} document, got {found!r}")


# -- algebra documents -----------------------------------------------------------


def algebra_to_json(a: alg.PresentedAlgebra):
    doc = {"version": DOC_VERSION, "kind": "algebra",
           "field": field_to_json(a.field)}
    if a.is_quiver_presented:
        doc["quiver"] = {
            "vertices": list(a.quiver.vertices),
            "arrows": [{"name": n, "source": s, "target": t}
                       for (n, s, t) in a.quiver.arrows],
        }
        doc["relations"] = [list(w) for w in a.relations]
    else:
        doc["raw"] = {
            "basis": list(a.basis_labels),
            "structure_constants": {
                f"{i},{j}": [scalar_to_json(a.field, x) for x in v]
                for (i, j), v in sorted(a.mult.items())
            },
            "unit": [scalar_to_json(a.field, x) for x in a.unit],
        }
    return doc


def algebra_from_json(doc):
    _require(doc, "algebra")
    field = field_from_json(doc.get("field"))
    if "quiver" in doc:
        q = _member(doc, "quiver", dict, "an object")
        vertices = _member(q, "vertices", list, "a list of vertex names")
        arrows = _member(q, "arrows", list, "a list of arrows")
        if any(not isinstance(v, (str, int)) for v in vertices):
            raise SchemaError("'vertices' must be a list of vertex names")
        if any(not isinstance(a, dict) for a in arrows):
            raise SchemaError("'arrows' must be a list of objects")
        quiver = alg.Quiver(tuple(str(v) for v in vertices),
                            tuple(tuple(_name_from_json(a, key)
                                        for key in ("name", "source", "target"))
                                  for a in arrows))
        relations = doc.get("relations", [])
        if not isinstance(relations, list) or any(not isinstance(w, list) for w in relations):
            raise SchemaError("'relations' must be a list of arrow-name lists")
        return alg.path_algebra(quiver, [tuple(w) for w in relations], field)
    if "raw" in doc:
        raw = doc["raw"]
        labels = [str(x) for x in _member(raw, "basis", list, "a list of labels")]
        dim = len(labels)
        mult = {}
        for key, vec in _member(raw, "structure_constants", dict, "an object").items():
            try:
                i, j = (int(t) for t in key.split(","))
            except ValueError as exc:
                raise SchemaError(f"structure constant key {key!r} is not 'i,j'") from exc
            if not (0 <= i < dim and 0 <= j < dim):
                raise SchemaError(f"structure constant key {key!r} is out of range")
            if not isinstance(vec, list) or len(vec) != dim:
                raise SchemaError("structure constant vector has wrong length")
            row = field.zeros(1, dim)[0]
            for k, x in enumerate(vec):
                row[k] = _scalar_from_json(field, x)
            mult[(i, j)] = field.freeze(row)
        entries = _member(raw, "unit", list, "a list of scalars")
        if len(entries) != dim:
            raise SchemaError("'unit' must have one entry per basis element")
        unit = field.zeros(1, dim)[0]
        for k, x in enumerate(entries):
            unit[k] = _scalar_from_json(field, x)
        a = alg.PresentedAlgebra(field, labels, mult, unit)
        a.validate()
        return a
    raise SchemaError("algebra document needs either a quiver or a raw block")


# -- module documents --------------------------------------------------------------


def module_to_json(x: alg.Module, algebra_ref):
    a = x.algebra
    doc = {"version": DOC_VERSION, "kind": "module", "algebra_ref": algebra_ref,
           "dim": x.dim}
    doc["generator_action"] = _actions_to_json(a, x.action, x.field)
    return doc


def _actions_to_json(a, action, field):
    if a.is_quiver_presented:
        out = {"vertices": {}, "arrows": {}}
        for v, idx in sorted(a.vertex_idempotents.items()):
            out["vertices"][v] = matrix_to_json(field, action[idx])
        for name, idx in sorted(a.arrow_indices.items()):
            out["arrows"][name] = matrix_to_json(field, action[idx])
        return out
    return {"basis": [matrix_to_json(field, m) for m in action]}


def _module_from_json(a, doc, dim, field):
    """The module given by the matrices of the generators: per vertex and per
    arrow over a quiver-presented algebra, else per basis element."""
    if a.is_quiver_presented:
        if not isinstance(doc, dict) or "vertices" not in doc or "arrows" not in doc:
            raise SchemaError("generator_action needs vertices and arrows")
        vert = {v: matrix_from_json(field, m, (dim, dim))
                for v, m in _member(doc, "vertices", dict, "an object").items()}
        arr = {n: matrix_from_json(field, m, (dim, dim))
               for n, m in _member(doc, "arrows", dict, "an object").items()}
        for v in a.quiver.vertices:
            if v not in vert:
                raise SchemaError(f"missing action of the idempotent at {v}")
        for name in a.arrow_indices:
            if name not in arr:
                raise SchemaError(f"missing action of arrow {name}")
        return alg.quiver_module(a, dim, vert, arr)
    mats = doc.get("basis") if isinstance(doc, dict) else None
    if not isinstance(mats, list) or len(mats) != a.dim:
        raise SchemaError("basis_action must list one matrix per basis element")
    return alg.Module(a, dim, [matrix_from_json(field, m, (dim, dim)) for m in mats])


def module_from_json(doc, algebra):
    _require(doc, "module")
    x = _module_from_json(algebra, doc.get("generator_action"), _dim_from_json(doc),
                          algebra.field)
    x.validate()
    return x


# -- bimodule documents --------------------------------------------------------------


def bimodule_to_json(m: alg.Bimodule, left_ref, right_ref):
    return {
        "version": DOC_VERSION, "kind": "bimodule",
        "left_algebra": left_ref, "right_algebra": right_ref,
        "dim": m.dim,
        "left_action": _actions_to_json(m.left_algebra, m.left_action, m.field),
        "right_action": _actions_to_json(m.right_algebra, m.right_action, m.field),
    }


def bimodule_from_json(doc, left_algebra, right_algebra):
    _require(doc, "bimodule")
    dim = _dim_from_json(doc)
    field = left_algebra.field
    left = _module_from_json(left_algebra, doc.get("left_action"), dim, field)
    # the right action is the left action of the opposite algebra
    right = _module_from_json(right_algebra.opposite(), doc.get("right_action"), dim, field)
    m = alg.Bimodule(left_algebra, right_algebra, dim, left.action, right.action)
    m.validate()
    return m


# -- morita and quadruple documents -----------------------------------------------------


def morita_to_json(a_ref, b_ref, m_ref, n_ref):
    return {"version": DOC_VERSION, "kind": "morita",
            "A": a_ref, "B": b_ref, "M": m_ref, "N": n_ref}


def lambda_module_to_json(l: mor.LambdaModule, morita_ref):
    data = l.data
    return {
        "version": DOC_VERSION, "kind": "lambda_module",
        "morita_ref": morita_ref,
        "X": {"dim": l.X.dim,
              "generator_action": _actions_to_json(data.A, l.X.action, l.field)},
        "Y": {"dim": l.Y.dim,
              "generator_action": _actions_to_json(data.B, l.Y.action, l.field)},
        "f": matrix_to_json(l.field, l.f),
        "g": matrix_to_json(l.field, l.g),
    }


def lambda_module_from_json(doc, data: mor.MoritaData):
    _require(doc, "lambda_module")
    fld = data.field
    xd = _member(doc, "X", dict, "an object")
    yd = _member(doc, "Y", dict, "an object")
    x = _module_from_json(data.A, xd.get("generator_action"), _dim_from_json(xd), fld)
    y = _module_from_json(data.B, yd.get("generator_action"), _dim_from_json(yd), fld)
    x.validate()
    y.validate()
    tx = mor.tensor_over(data.M, x)
    ty = mor.tensor_over(data.N, y)
    f = matrix_from_json(fld, doc.get("f"), (y.dim, tx.dim))
    g = matrix_from_json(fld, doc.get("g"), (x.dim, ty.dim))
    l = mor.LambdaModule(data, x, y, f, g, tx=tx, ty=ty)
    l.validate()
    return l


# -- emission and reference resolution ---------------------------------------------------


_KEY_ORDER = {
    "algebra": ["version", "kind", "field", "quiver", "relations", "raw"],
    "module": ["version", "kind", "algebra_ref", "dim", "generator_action"],
    "bimodule": ["version", "kind", "left_algebra", "right_algebra", "dim",
                 "left_action", "right_action"],
    "morita": ["version", "kind", "A", "B", "M", "N"],
    "lambda_module": ["version", "kind", "morita_ref", "X", "Y", "f", "g"],
    "report": ["version", "kind", "suite", "instance", "cfg", "claims", "passed"],
}


def canonical_dumps(doc) -> str:
    kind = doc.get("kind")
    order = _KEY_ORDER.get(kind, [])

    def reorder(d):
        known = [(k, d[k]) for k in order if k in d]
        rest = sorted((k, v) for k, v in d.items() if k not in order)
        return dict(known + rest)

    return json.dumps(reorder(doc), indent=2, sort_keys=False) + "\n"


def emit(doc, path):
    with open(path, "w") as fh:
        fh.write(canonical_dumps(doc))


def load_raw(path):
    try:
        fh = open(path)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot open: {exc.strerror}") from exc
    with fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


class DocumentStore:
    """Loads documents with relative-reference resolution and caching, so a
    shared algebra file yields one shared PresentedAlgebra object."""

    def __init__(self):
        self._algebras = {}
        self._moritas = {}

    def _resolve(self, path, doc, key):
        """The file that the reference doc[key] names, relative to the
        document's own path; doc is a JSON object, or a list of references
        that key indexes."""
        ref = doc.get(key) if isinstance(doc, dict) else doc[key]
        if not isinstance(ref, str) or not ref:
            raise SchemaError(f"reference {key!r} must name a file relative to the document")
        return os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(path)), ref))

    def algebra(self, path):
        path = os.path.normpath(os.path.abspath(path))
        if path not in self._algebras:
            self._algebras[path] = algebra_from_json(load_raw(path))
        return self._algebras[path]

    def module(self, path):
        doc = load_raw(path)
        _require(doc, "module")
        a = self.algebra(self._resolve(path, doc, "algebra_ref"))
        return module_from_json(doc, a), a

    def bimodule(self, path):
        doc = load_raw(path)
        _require(doc, "bimodule")
        left = self.algebra(self._resolve(path, doc, "left_algebra"))
        right = self.algebra(self._resolve(path, doc, "right_algebra"))
        return bimodule_from_json(doc, left, right)

    def morita(self, path):
        path = os.path.normpath(os.path.abspath(path))
        if path in self._moritas:
            return self._moritas[path]
        doc = load_raw(path)
        _require(doc, "morita")
        a = self.algebra(self._resolve(path, doc, "A"))
        b = self.algebra(self._resolve(path, doc, "B"))
        m = self.bimodule(self._resolve(path, doc, "M"))
        n = self.bimodule(self._resolve(path, doc, "N"))
        if m.left_algebra is not b or m.right_algebra is not a:
            raise SchemaError("M must be a bimodule over (B, A)")
        if n.left_algebra is not a or n.right_algebra is not b:
            raise SchemaError("N must be a bimodule over (A, B)")
        data = mor.MoritaData(a, b, m, n, name=os.path.basename(path))
        self._moritas[path] = data
        return data

    def lambda_module(self, path):
        doc = load_raw(path)
        _require(doc, "lambda_module")
        data = self.morita(self._resolve(path, doc, "morita_ref"))
        return lambda_module_from_json(doc, data), data

    def any_document(self, path):
        """Validate whichever document kind the file holds."""
        doc = load_raw(path)
        kind = document_kind(doc)
        if kind == "algebra":
            return self.algebra(path)
        if kind == "module":
            return self.module(path)[0]
        if kind == "bimodule":
            return self.bimodule(path)
        if kind == "morita":
            data = self.morita(path)
            rep = data.validate()
            if not rep["valid"]:
                raise SchemaError(f"invalid Morita data: {rep}")
            return data
        if kind == "lambda_module":
            return self.lambda_module(path)[0]
        if kind == "report":
            _require(doc, "report")
            claims = _member(doc, "claims", list, "a list of claims")
            if any(not isinstance(c, dict) or not {"id", "paper_anchor", "verdict"} <= set(c)
                   for c in claims):
                raise SchemaError("claim entries need id, paper_anchor, verdict")
            return doc
        raise SchemaError(f"unknown document kind {kind!r}")
