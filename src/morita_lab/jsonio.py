"""Versioned JSON documents: algebras, modules, bimodules, Morita data,
quadruple modules and verification reports.

One file holds one object; cross-references are relative paths resolved
against the referring file.  Prime-field entries are integers 0..p-1,
rationals are "num/den" strings (an integer n is "n/1"); a scalar string
in a document must be decimal digits with an optional leading minus, and
over Q may add "/" and a decimal denominator.  Vertex and arrow names, and
the arrows of relation words, are strings or integers, read as text.

canonical_dumps is the one serializer, and it is byte-stable: keys in the
order their builder writes them, two-space indent, trailing newline.  It
writes exactly the bytes of json.dumps(doc, indent=2) + "\n", but not
through json's pure-Python encoder (which any indent selects): it encodes
each scalar with the C-level helpers json itself uses and joins a list of
scalars in one str.join.
"""

from __future__ import annotations

import json
import operator
import os
import re
from json.encoder import encode_basestring_ascii as _quote

from .fields import FieldSpec
from . import algebras as alg
from . import morita as mor
from . import classes as cls

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


def _name(value, what):
    """A vertex or arrow name: a JSON string, or a JSON integer read as its
    decimal text.  Anything else, booleans included, is a SchemaError."""
    if type(value) is not str and type(value) is not int:
        raise SchemaError(f"{what} must be a string or an integer")
    return str(value)


# -- scalars and matrices ------------------------------------------------------


# the scalar strings a document may hold: "n" in every field, "n/d" over Q
_INTEGER_TEXT = re.compile(r"-?[0-9]+")
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
# a structure-constant key "i,j": two basis indices in decimal digits
_INDEX_PAIR = re.compile(r"([0-9]+),([0-9]+)")


class _Scalars:
    """The scalar entries of one document in one field: each distinct
    string or integer entry is parsed once (a rational document repeats a
    few "num/den" strings many times).  Lives as long as one *_from_json
    call, so no parse outlives the document."""

    def __init__(self, field):
        self.field = field
        self._grammar = _INTEGER_TEXT if field.kind == "prime" else _RATIONAL_TEXT
        self._parsed = {}

    def __call__(self, x):
        """field.scalar(x) of a JSON integer or of a string in the field's
        grammar; any other entry (floats, booleans, decimal, exponent or
        underscore strings) is a ValueError, and so is a bad one."""
        if type(x) is not str and type(x) is not int:
            raise ValueError(f"{x!r} is not an integer or a string")
        return alg.memo(self._parsed, x, lambda: self._parse(x))

    def _parse(self, x):
        if type(x) is str and not self._grammar.fullmatch(x):
            form = "n" if self.field.kind == "prime" else "n or n/d"
            raise ValueError(f"{x!r} is not a decimal scalar string {form}")
        return self.field.scalar(x)


def _scalar_from_json(scalars, x):
    try:
        return scalars(x)
    except ValueError as exc:
        raise SchemaError(f"bad scalar entry: {exc}") from exc


def _rational_to_json(v):
    """The "num/den" string of a normalized rational: a Python int n is
    "n/1", a Fraction its lowest terms."""
    if type(v) is int:
        return f"{v}/1"
    return f"{v.numerator}/{v.denominator}"


def scalar_to_json(field, v):
    if field.kind == "prime":
        return int(v)
    return _rational_to_json(v)


def matrix_to_json(field, m):
    """The rows of a normalized matrix: over F_p its Python ints as they
    are, over Q the "num/den" string of each entry."""
    rows = m.tolist()
    if field.kind == "prime":
        return rows
    return [list(map(_rational_to_json, row)) for row in rows]


def matrix_from_json(scalars, rows, shape):
    """The matrix of the given shape whose entries the document lists row
    by row, parsed by one document's _Scalars."""
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SchemaError("matrix must be a list of rows")
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        raise SchemaError(f"matrix must have shape {shape}")
    try:
        entries = [[scalars(x) for x in row] for row in rows]
    except ValueError as exc:
        raise SchemaError(f"bad matrix entry: {exc}") from exc
    return scalars.field.matrix_of(entries, shape[1])


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
        if any(not isinstance(a, dict) for a in arrows):
            raise SchemaError("'arrows' must be a list of objects")
        quiver = alg.Quiver(tuple(_name(v, "a vertex") for v in vertices),
                            tuple(tuple(_name(a.get(key), repr(key))
                                        for key in ("name", "source", "target"))
                                  for a in arrows))
        relations = doc.get("relations", [])
        if not isinstance(relations, list) or any(not isinstance(w, list) for w in relations):
            raise SchemaError("'relations' must be a list of arrow-name lists")
        words = [tuple(_name(a, "an arrow of a relation word") for a in w) for w in relations]
        return alg.path_algebra(quiver, words, field)
    if "raw" in doc:
        raw = doc["raw"]
        scalars = _Scalars(field)
        labels = [str(x) for x in _member(raw, "basis", list, "a list of labels")]
        dim = len(labels)
        mult = {}
        for key, vec in _member(raw, "structure_constants", dict, "an object").items():
            ij = _INDEX_PAIR.fullmatch(key)
            if ij is None:
                raise SchemaError(f"structure constant key {key!r} is not 'i,j' in decimal digits")
            i, j = int(ij[1]), int(ij[2])
            if not (0 <= i < dim and 0 <= j < dim):
                raise SchemaError(f"structure constant key {key!r} is out of range")
            if (i, j) in mult:
                raise SchemaError(f"structure constant key {key!r} names ({i}, {j}) again")
            if not isinstance(vec, list) or len(vec) != dim:
                raise SchemaError("structure constant vector has wrong length")
            row = field.matrix_of([[_scalar_from_json(scalars, x) for x in vec]], dim)[0]
            mult[(i, j)] = field.freeze(row)
        entries = _member(raw, "unit", list, "a list of scalars")
        if len(entries) != dim:
            raise SchemaError("'unit' must have one entry per basis element")
        unit = field.matrix_of([[_scalar_from_json(scalars, x) for x in entries]], dim)[0]
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


def _module_from_json(a, doc, dim, scalars):
    """The module given by the matrices of the generators: per vertex and per
    arrow over a quiver-presented algebra, else per basis element."""
    if a.is_quiver_presented:
        if not isinstance(doc, dict) or "vertices" not in doc or "arrows" not in doc:
            raise SchemaError("generator_action needs vertices and arrows")
        vert = {v: matrix_from_json(scalars, m, (dim, dim))
                for v, m in _member(doc, "vertices", dict, "an object").items()}
        arr = {n: matrix_from_json(scalars, m, (dim, dim))
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
    return alg.Module(a, dim, [matrix_from_json(scalars, m, (dim, dim)) for m in mats])


def module_from_json(doc, algebra):
    _require(doc, "module")
    x = _module_from_json(algebra, doc.get("generator_action"), _dim_from_json(doc),
                          _Scalars(algebra.field))
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
    scalars = _Scalars(left_algebra.field)
    left = _module_from_json(left_algebra, doc.get("left_action"), dim, scalars)
    # the right action is the left action of the opposite algebra
    right = _module_from_json(right_algebra.opposite(), doc.get("right_action"), dim, scalars)
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
    scalars = _Scalars(data.field)
    xd = _member(doc, "X", dict, "an object")
    yd = _member(doc, "Y", dict, "an object")
    x = _module_from_json(data.A, xd.get("generator_action"), _dim_from_json(xd), scalars)
    y = _module_from_json(data.B, yd.get("generator_action"), _dim_from_json(yd), scalars)
    x.validate()
    y.validate()
    tx = mor.tensor_over(data.M, x)
    ty = mor.tensor_over(data.N, y)
    f = matrix_from_json(scalars, doc.get("f"), (y.dim, tx.dim))
    g = matrix_from_json(scalars, doc.get("g"), (x.dim, ty.dim))
    l = mor.LambdaModule(data, x, y, f, g, tx=tx, ty=ty)
    l.validate()
    return l


# -- emission and reference resolution ---------------------------------------------------


_INFINITY = float("inf")


def _float_text(x):
    """json's float rule: repr, with NaN and the infinities spelled as
    JavaScript spells them."""
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


# the text of a scalar by its exact type; subclasses (an IntEnum, a numpy
# float) take the isinstance rules of _scalar_text, as they do in json
_SCALAR_TEXT = {str: _quote, int: int.__repr__, float: _float_text,
                bool: lambda x: "true" if x else "false", type(None): lambda x: "null"}


def _scalar_text(x):
    """json's text of a value that is not a list, tuple or dict; a value of
    any other type is the TypeError that json.dumps raises."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float_text(x)
    raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def _key_text(k):
    """json's text of a dict key: a str, float, bool, None or int key is
    written as a string; any other key is the TypeError json raises."""
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return _quote(_scalar_text(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _emit_text(x, pad, out):
    """Append to out the text that json.dumps(indent=2) writes for x, whose
    closing line starts with pad (a newline and its indent)."""
    if isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = pad + "  "
        kinds = set(map(type, x))
        text = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        if text is not None:  # a list of scalars of one type, e.g. a matrix row
            out.append(f"[{inner}{(',' + inner).join(map(text, x))}{pad}]")
            return
        sep = "[" + inner
        for v in x:
            out.append(sep)
            sep = "," + inner
            _emit_text(v, inner, out)
        out.append(pad + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for k, v in x.items():
            out.append(f"{sep}{_quote(k) if type(k) is str else _key_text(k)}: ")
            sep = "," + inner
            text = _SCALAR_TEXT.get(type(v))
            if text is None:
                _emit_text(v, inner, out)
            else:
                out.append(text(v))
        out.append(pad + "}")
    else:
        out.append(_scalar_text(x))


def canonical_dumps(doc) -> str:
    """The bytes of a document: its keys in the order its builder wrote
    them, two-space indent and a trailing newline.  They are exactly those
    of json.dumps(doc, indent=2) + "\\n", and every value json.dumps refuses
    with a TypeError is refused with one here; a value that contains itself
    is not a document (json.dumps raises ValueError, this RecursionError)."""
    out = []
    _emit_text(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def emit(doc, path):
    """Write the document's canonical bytes to the file path."""
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


def reference(path, out):
    """The reference to the file path from the document written to the file
    out, or from the current directory when out is None (the document goes
    to stdout); DocumentStore.resolve reads it back."""
    start = os.path.dirname(os.path.abspath(out)) if out else os.curdir
    return os.path.relpath(path, start)


# Algebras, bimodules and Morita data built in this process:
# (kind, normalized path) -> (content, references, object).  The content is
# the document's compact JSON text, written by json's C encoder, and the
# references are the kept objects its own references resolved to.  An entry
# is reused only when both are the same, so a file rewritten at its path is
# built and validated anew; a build that raises stores nothing, and file
# metadata plays no part.  Each object carries its content-keyed memos
# (algebra._cache, Bimodule._tensors, MoritaData._cache) from one command to
# the next, so memory grows with the distinct modules the process has used.
# Module and quadruple documents are never kept.  Only a caller that runs
# many commands in one process (cli.main from Python) reuses an entry; the
# console script starts each command in a new process.
_DEFINITIONS = {}


def _definition(kind, path, doc, refs, build):
    """build(), or the object it gave for the same kind, path, content and
    referenced objects earlier in this process (see _DEFINITIONS)."""
    content = json.dumps(doc, separators=(",", ":"))
    kept = _DEFINITIONS.get((kind, path))
    if kept is not None and kept[0] == content and all(map(operator.is_, kept[1], refs)):
        return kept[2]
    obj = build()
    _DEFINITIONS[(kind, path)] = (content, refs, obj)
    return obj


class DocumentStore:
    """Loads documents with relative-reference resolution.  Each file is
    read and parsed once for the life of the store (one command).  An
    algebra, bimodule or Morita document is built once per process for its
    path and content (see _DEFINITIONS), so every store that reads a shared
    algebra file gets one shared PresentedAlgebra object; module and
    quadruple documents are parsed and validated anew by each store."""

    def __init__(self):
        self._raw = {}
        self._algebras = {}
        self._moritas = {}

    def raw(self, path):
        """The parsed JSON of the file, read on the first call for its path;
        callers must not change it."""
        path = os.path.normpath(os.path.abspath(path))
        return alg.memo(self._raw, path, lambda: load_raw(path))

    def resolve(self, path, doc, key):
        """The file that the reference doc[key] names, relative to the
        document's own path (the inverse of reference); doc is a JSON
        object, or a list of references that key indexes."""
        ref = doc.get(key) if isinstance(doc, dict) else doc[key]
        if not isinstance(ref, str) or not ref:
            raise SchemaError(f"reference {key!r} must name a file relative to the document")
        return os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(path)), ref))

    def algebra(self, path):
        path = os.path.normpath(os.path.abspath(path))

        def build():
            doc = self.raw(path)
            return _definition("algebra", path, doc, (), lambda: algebra_from_json(doc))

        return alg.memo(self._algebras, path, build)

    def module(self, path):
        doc = self.raw(path)
        _require(doc, "module")
        a = self.algebra(self.resolve(path, doc, "algebra_ref"))
        return module_from_json(doc, a), a

    def bimodule(self, path):
        path = os.path.normpath(os.path.abspath(path))
        doc = self.raw(path)
        _require(doc, "bimodule")
        left = self.algebra(self.resolve(path, doc, "left_algebra"))
        right = self.algebra(self.resolve(path, doc, "right_algebra"))
        return _definition("bimodule", path, doc, (left, right),
                           lambda: bimodule_from_json(doc, left, right))

    def morita(self, path):
        path = os.path.normpath(os.path.abspath(path))

        def build():
            doc = self.raw(path)
            _require(doc, "morita")
            a = self.algebra(self.resolve(path, doc, "A"))
            b = self.algebra(self.resolve(path, doc, "B"))
            m = self.bimodule(self.resolve(path, doc, "M"))
            n = self.bimodule(self.resolve(path, doc, "N"))
            if m.left_algebra is not b or m.right_algebra is not a:
                raise SchemaError("M must be a bimodule over (B, A)")
            if n.left_algebra is not a or n.right_algebra is not b:
                raise SchemaError("N must be a bimodule over (A, B)")
            return _definition("morita", path, doc, (a, b, m, n), lambda: mor.MoritaData(
                a, b, m, n, name=os.path.basename(path)))

        return alg.memo(self._moritas, path, build)

    def lambda_module(self, path):
        doc = self.raw(path)
        _require(doc, "lambda_module")
        data = self.morita(self.resolve(path, doc, "morita_ref"))
        return lambda_module_from_json(doc, data), data

    def class_spec_pair(self, path, data):
        """The class specs U over data.A and V over data.B of a
        class_spec_pair document, whose test modules are references."""
        doc = self.raw(path)
        if (not isinstance(doc, dict) or doc.get("kind") != "class_spec_pair"
                or doc.get("version") != DOC_VERSION):
            raise SchemaError("expected a class_spec_pair document")
        return (self._class_spec(path, doc, "U", data.A),
                self._class_spec(path, doc, "V", data.B))

    def _class_spec(self, path, doc, key, algebra):
        spec = doc.get(key)
        if not isinstance(spec, dict):
            raise SchemaError(f"class spec {key!r} must be a JSON object")
        refs = spec.get("modules", [])
        if not isinstance(refs, list):
            raise SchemaError(f"modules of class spec {key!r} must be a list of references")
        mods = []
        for i in range(len(refs)):
            x, a = self.module(self.resolve(path, refs, i))
            if a is not algebra:
                raise SchemaError("spec test module is over the wrong algebra")
            mods.append(x)
        return cls.ClassSpec(spec.get("type"), algebra, tuple(mods))

    def any_document(self, path):
        """Validate whichever document kind the file holds."""
        doc = self.raw(path)
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
