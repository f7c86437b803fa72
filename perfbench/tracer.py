"""Per-layer tracing of morita_lab from outside the package.

The tracer replaces selected public functions of each layer with timing
wrappers for the duration of one traced repetition, then puts the originals
back.  Several layers import functions by name (``from .algebras import
tensor_over``) and the CLI keeps functors in a module-level table, so every
binding of a traced function is replaced: module attributes, values of
module-level dicts, and tuple values inside those dicts, in every loaded
``morita_lab.*`` module.  Methods are replaced on their class.

Layers are the package modules.  For each traced function the tracer counts
calls and inclusive time (outermost call only, so recursion is not counted
twice).  For each layer it records self time (time during which the
innermost active traced call belongs to the layer) and the number of
exceptions that left the layer.  A few exact work counts are taken from the
arguments and results of selected calls.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

LAYERS = ("fields", "linalg", "algebras", "morita", "homology", "classes",
          "lab", "jsonio", "cli")

# (layer, attribute path in morita_lab.<layer>, metric name within the layer)
TRACED = (
    ("fields", "FieldSpec.normalize", "normalize"),
    ("fields", "FieldSpec.matmul", "matmul"),
    ("fields", "FieldSpec.is_zero", "is_zero"),
    ("linalg", "rref", "rref"),
    ("linalg", "quotient", "quotient"),
    ("linalg", "solve", "solve"),
    ("linalg", "kernel_basis", "kernel_basis"),
    ("linalg", "kron", "kron"),
    ("algebras", "intertwiner_constraints", "intertwiner_constraints"),
    ("algebras", "solve_matrix_system", "solve_matrix_system"),
    ("algebras", "hom_space", "hom_space"),
    ("algebras", "tensor_over", "tensor_over"),
    ("algebras", "hom_module", "hom_module"),
    ("algebras", "projective_cover", "projective_cover"),
    ("algebras", "module_isomorphism", "module_isomorphism"),
    ("morita", "functor_T", "functor_T"),
    ("morita", "functor_H", "functor_H"),
    ("morita", "lambda_hom_space", "lambda_hom_space"),
    ("morita", "lambda_simples", "lambda_simples"),
    ("homology", "lambda_presentation", "lambda_presentation"),
    ("homology", "ext_dim", "ext_dim"),
    ("homology", "is_projective_lambda", "is_projective_lambda"),
    ("homology", "inj_dim_upto", "inj_dim_upto"),
    ("homology", "approx_c1", "approx"),
    ("homology", "approx_c2", "approx"),
    ("homology", "approx_c3", "approx"),
    ("homology", "approx_c4", "approx"),
    ("classes", "gp_member", "gp_member"),
    ("classes", "gi_member", "gi_member"),
    ("classes", "in_mon", "in_mon"),
    ("classes", "in_epi", "in_epi"),
    ("lab", "Sampler.quadruple", "Sampler.quadruple"),
    ("lab", "Sampler.plain", "Sampler.plain"),
    ("lab", "run_suite", "run_suite"),
    ("jsonio", "DocumentStore.lambda_module", "DocumentStore.lambda_module"),
    ("jsonio", "DocumentStore.morita", "DocumentStore.morita"),
    ("jsonio", "emit", "emit"),
    ("jsonio", "load_raw", "load_raw"),
    ("cli", "main", "main"),
    ("cli", "build_parser", "build_parser"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_rref(work, args, kwargs, result):
    work["linalg.rref.cells"] += int(np.size(_arg(args, kwargs, 1, "m")))


def _count_kron(work, args, kwargs, result):
    a, b = _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "b")
    work["linalg.kron.cells"] += int(np.size(a)) * int(np.size(b))


def _count_tensor(work, args, kwargs, result):
    m, x = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "x")
    work["algebras.tensor_over.ambient"] += m.dim * x.dim
    work["algebras.tensor_over.kept"] += result.dim


def _count_iso(work, args, kwargs, result):
    work["algebras.module_isomorphism.undetermined"] += result.status == "undetermined"


def _count_read(work, args, kwargs, result):
    work["jsonio.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_written(work, args, kwargs, result):
    work["jsonio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


COUNTERS = {
    "linalg.rref": _count_rref,
    "linalg.kron": _count_kron,
    "algebras.tensor_over": _count_tensor,
    "algebras.module_isomorphism": _count_iso,
    "jsonio.load_raw": _count_read,
    "jsonio.emit": _count_written,
}

WORK_UNITS = {
    "linalg.rref.cells": "count",
    "linalg.kron.cells": "count",
    "algebras.tensor_over.ambient": "count",
    "algebras.module_isomorphism.undetermined": "count",
    "jsonio.bytes_read": "B",
    "jsonio.bytes_written": "B",
}


def function_names():
    """Traced function metric prefixes, in table order, without repeats."""
    return list(dict.fromkeys(f"{layer}.{name}" for layer, _, name in TRACED))


def metric_units():
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for fn in function_names():
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.time_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.raised"] = "count"
    units.update(WORK_UNITS)
    units["algebras.tensor_over.kept_ratio"] = "ratio"
    return units


class Tracer:
    """Install with ``install()``, run the traced work, then ``uninstall()``.
    Counts accumulate across installs; ``metrics()`` reads them out."""

    def __init__(self):
        self.calls = dict.fromkeys(function_names(), 0)
        self.time_s = dict.fromkeys(function_names(), 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.raised = dict.fromkeys(LAYERS, 0)
        self.work = dict.fromkeys([*WORK_UNITS, "algebras.tensor_over.kept"], 0)
        self._active = dict.fromkeys(function_names(), 0)
        self._stack = []
        self._undo = []

    def _wrap(self, layer, key, fn):
        stack, active = self._stack, self._active
        count = COUNTERS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            active[key] += 1
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                elapsed = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                self.self_s[layer] += elapsed - frame[1]
                self.calls[key] += 1
                active[key] -= 1
                if not active[key]:
                    self.time_s[key] += elapsed
                if not done and (parent is None or parent[0] != layer):
                    self.raised[layer] += 1
            if count is not None:
                count(self.work, args, kwargs, result)
            return result

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "morita_lab" or n.startswith("morita_lab.")) and m]
        for layer, path, name in TRACED:
            module = sys.modules[f"morita_lab.{layer}"]
            key = f"{layer}.{name}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                self._undo.append((setattr, cls, attr, orig))
                setattr(cls, attr, self._wrap(layer, key, orig))
                continue
            orig = getattr(module, path)
            wrapper = self._wrap(layer, key, orig)
            for ns in namespaces:
                self._rebind(vars(ns), orig, wrapper)

    def _rebind(self, table, orig, wrapper, nested=False):
        """Replace orig in a namespace dict, in dicts it holds (one level
        down) and in tuples held by either."""
        for k, v in list(table.items()):
            if v is orig:
                new = wrapper
            elif isinstance(v, tuple) and any(e is orig for e in v):
                new = tuple(wrapper if e is orig else e for e in v)
            else:
                if isinstance(v, dict) and not nested:
                    self._rebind(v, orig, wrapper, nested=True)
                continue
            self._undo.append((dict.__setitem__, table, k, v))
            table[k] = new

    def uninstall(self):
        while self._undo:
            op, target, k, old = self._undo.pop()
            op(target, k, old)

    def metrics(self):
        out = {}
        for fn in function_names():
            out[f"{fn}.calls"] = self.calls[fn]
            out[f"{fn}.time_s"] = self.time_s[fn]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.raised"] = self.raised[layer]
        for key in WORK_UNITS:
            out[key] = self.work[key]
        ambient = self.work["algebras.tensor_over.ambient"]
        out["algebras.tensor_over.kept_ratio"] = (
            self.work["algebras.tensor_over.kept"] / ambient if ambient else 0.0)
        return out
