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


# -- scalars and matrices ------------------------------------------------------


def scalar_to_json(field, v):
    if field.kind == "prime":
        return int(v)
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


def matrix_to_json(field, m):
    return [[scalar_to_json(field, m[i, j]) for j in range(m.shape[1])]
            for i in range(m.shape[0])]


def matrix_from_json(field, rows, shape=None):
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SchemaError("matrix must be a list of rows")
    if rows:
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise SchemaError("matrix rows must have equal length")
    if shape is not None:
        if len(rows) != shape[0] or (rows and len(rows[0]) != shape[1]):
            raise SchemaError(f"matrix must have shape {shape}")
        if not rows or not rows[0]:
            return field.zeros(*shape)
    if not rows:
        return field.zeros(0, 0 if shape is None else shape[1])
    if not rows[0]:
        return field.zeros(len(rows), 0)
    return field.asmatrix(rows)


def field_to_json(field: FieldSpec):
    if field.kind == "prime":
        return {"kind": "prime", "p": field.p}
    return {"kind": "rational"}


def field_from_json(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("field must be an object with a kind")
    if doc["kind"] == "prime":
        return FieldSpec("prime", int(doc["p"]))
    if doc["kind"] == "rational":
        return FieldSpec("rational")
    raise SchemaError(f"unknown field kind {doc['kind']!r}")


def _require(doc, kind):
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("version") != DOC_VERSION:
        raise SchemaError("missing or unsupported version field")
    if doc.get("kind") != kind:
        raise SchemaError(f"expected a {kind} document, got {doc.get('kind')!r}")


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
        q = doc["quiver"]
        quiver = alg.Quiver(tuple(str(v) for v in q["vertices"]),
                            tuple((str(a["name"]), str(a["source"]), str(a["target"]))
                                  for a in q["arrows"]))
        return alg.path_algebra(quiver, [tuple(w) for w in doc.get("relations", [])],
                                field)
    if "raw" in doc:
        raw = doc["raw"]
        labels = [str(x) for x in raw["basis"]]
        dim = len(labels)
        mult = {}
        for key, vec in raw["structure_constants"].items():
            i, j = (int(t) for t in key.split(","))
            if len(vec) != dim:
                raise SchemaError("structure constant vector has wrong length")
            row = field.zeros(1, dim)[0]
            for k, x in enumerate(vec):
                row[k] = field.scalar(x)
            mult[(i, j)] = field.freeze(row)
        unit = field.zeros(1, dim)[0]
        for k, x in enumerate(raw["unit"]):
            unit[k] = field.scalar(x)
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
                for v, m in doc["vertices"].items()}
        arr = {n: matrix_from_json(field, m, (dim, dim))
               for n, m in doc["arrows"].items()}
        for v in a.quiver.vertices:
            if v not in vert:
                raise SchemaError(f"missing action of the idempotent at {v}")
        for name in a.arrow_indices:
            if name not in arr:
                raise SchemaError(f"missing action of arrow {name}")
        return alg.quiver_module(a, dim, vert, arr)
    mats = doc.get("basis")
    if not isinstance(mats, list) or len(mats) != a.dim:
        raise SchemaError("basis_action must list one matrix per basis element")
    return alg.Module(a, dim, [matrix_from_json(field, m, (dim, dim)) for m in mats])


def module_from_json(doc, algebra):
    _require(doc, "module")
    x = _module_from_json(algebra, doc["generator_action"], int(doc["dim"]), algebra.field)
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
    dim = int(doc["dim"])
    field = left_algebra.field
    left = _module_from_json(left_algebra, doc["left_action"], dim, field)
    # the right action is the left action of the opposite algebra
    right = _module_from_json(right_algebra.opposite(), doc["right_action"], dim, field)
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
    xd = doc["X"]
    yd = doc["Y"]
    x = _module_from_json(data.A, xd["generator_action"], int(xd["dim"]), fld)
    y = _module_from_json(data.B, yd["generator_action"], int(yd["dim"]), fld)
    x.validate()
    y.validate()
    tx = mor.tensor_over(data.M, x)
    ty = mor.tensor_over(data.N, y)
    f = matrix_from_json(fld, doc["f"], (y.dim, tx.dim))
    g = matrix_from_json(fld, doc["g"], (x.dim, ty.dim))
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
        kind = doc.get("kind")
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
            doc2 = load_raw(path)
            _require(doc2, "report")
            if not isinstance(doc2.get("claims"), list):
                raise SchemaError("report needs a list of claims")
            for c in doc2["claims"]:
                if not {"id", "paper_anchor", "verdict"} <= set(c):
                    raise SchemaError("claim entries need id, paper_anchor, verdict")
            return doc2
        raise SchemaError(f"unknown document kind {kind!r}")
