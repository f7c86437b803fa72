"""Command-line surface: document validation, catalog emission, functor
application, Ext/Tor queries, class membership, resolutions, decompositions,
sampling, enumeration, and the verification suites.

Exit codes: 0 when every verdict passes, 1 for claim failures, 2 for schema
violations, preflight failures and files that cannot be written, 3 for
internal invariant breaches.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .fields import field_from_token
from . import morita as mor
from . import homology as hml
from . import classes as cls
from . import lab
from . import jsonio
from .jsonio import DocumentStore, SchemaError, reference


def _print(obj, out=None):
    """Write obj to the file out, or to stdout when out is None."""
    if out:
        jsonio.emit(obj, out)
    else:
        sys.stdout.write(jsonio.canonical_dumps(obj))


def _integer(text):
    """An integer option (--count, --seed, ...): decimal digits with an
    optional leading minus, with no padding or underscore."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in decimal digits")
    return int(text)


def _params(args):
    """The --param k=v options as a dict of ints; each v must be decimal
    digits, with no sign, padding or underscore."""
    params = {}
    for kv in args.param or []:
        k, _, v = kv.partition("=")
        if not re.fullmatch(r"[0-9]+", v):
            raise ValueError(f"--param {kv!r}: the value must be decimal digits")
        params[k] = int(v)
    return params


def _check_caps(args):
    """--count and the sampler caps --rank-cap and --dim-cap must be at
    least 1."""
    for flag, cap in (("--count", args.count), ("--rank-cap", args.rank_cap),
                      ("--dim-cap", args.dim_cap)):
        if cap < 1:
            raise ValueError(f"{flag} must be at least 1, got {cap}")


def _check_out(args):
    """Before anything runs: the directory that --out names a file or a
    prefix in must exist, and an --out that names the written file must not
    be a directory."""
    out = getattr(args, "out", None) or ""
    folder = os.path.dirname(out)
    if folder and not os.path.isdir(folder):
        raise ValueError(f"--out directory {folder!r} does not exist")
    if os.path.isdir(out) and args.command not in ("catalog", "sample", "enumerate"):
        raise ValueError(f"--out {out!r} is a directory, not a file")


def cmd_validate(args):
    store = DocumentStore()
    store.any_document(args.file)
    _print({"file": args.file, "valid": True})
    return 0


def cmd_catalog(args):
    field = field_from_token(args.field)
    inst = lab.catalog(args.name, field, **_params(args))
    out = args.out
    stem = out[:-5] if out.endswith(".json") else out
    base = os.path.basename(stem)
    data = inst.data
    jsonio.emit(jsonio.algebra_to_json(data.A), f"{stem}.A.json")
    jsonio.emit(jsonio.algebra_to_json(data.B), f"{stem}.B.json")
    jsonio.emit(jsonio.bimodule_to_json(data.M, f"{base}.B.json", f"{base}.A.json"),
                f"{stem}.M.json")
    jsonio.emit(jsonio.bimodule_to_json(data.N, f"{base}.A.json", f"{base}.B.json"),
                f"{stem}.N.json")
    jsonio.emit(jsonio.morita_to_json(f"{base}.A.json", f"{base}.B.json",
                                      f"{base}.M.json", f"{base}.N.json"),
                out if out.endswith(".json") else f"{stem}.json")
    _print({"instance": inst.name, "properties": inst.properties,
            "written": f"{stem}.json"})
    return 0


FUNCTORS_IN = {"TA": ("A", mor.functor_T), "TB": ("B", mor.functor_T),
               "HA": ("A", mor.functor_H), "HB": ("B", mor.functor_H),
               "ZA": ("A", mor.functor_Z), "ZB": ("B", mor.functor_Z)}


def cmd_functor(args):
    store = DocumentStore()
    name = args.name.upper()
    if name in FUNCTORS_IN:
        if not args.morita:
            raise SchemaError(f"functor {name} needs --morita")
        data = store.morita(args.morita)
        x, a = store.module(args.infile)
        side, fn = FUNCTORS_IN[name]
        expected = data.A if side == "A" else data.B
        if a is not expected:
            raise SchemaError("module is not over the matching side of the Morita data")
        result = fn(data, side, x)
        jsonio.emit(jsonio.lambda_module_to_json(result, reference(args.morita, args.out)),
                    args.out)
    elif name in ("UA", "UB", "CA", "CB", "KA", "KB"):
        l, data = store.lambda_module(args.infile)
        side = name[1]
        if name[0] == "U":
            result = mor.functor_U(side, l)
        elif name[0] == "C":
            result, _ = mor.functor_C(side, l)
        else:
            result, _ = mor.functor_K(side, l)
        morita_path = store.resolve(args.infile, store.raw(args.infile), "morita_ref")
        alg_path = store.resolve(morita_path, store.raw(morita_path), side)
        jsonio.emit(jsonio.module_to_json(result, reference(alg_path, args.out)), args.out)
    else:
        raise SchemaError(f"unknown functor {args.name!r}")
    _print({"functor": name, "written": args.out})
    return 0


def _load_pair(store, src, tgt):
    kind_s = jsonio.document_kind(store.raw(src))
    kind_t = jsonio.document_kind(store.raw(tgt))
    if kind_s != kind_t:
        raise SchemaError("source and target documents must have the same kind")
    if kind_s == "module":
        x, ax = store.module(src)
        y, ay = store.module(tgt)
        if ax is not ay:
            raise SchemaError("modules live over different algebras")
        return x, y
    if kind_s == "lambda_module":
        x, dx = store.lambda_module(src)
        y, dy = store.lambda_module(tgt)
        if dx is not dy:
            raise SchemaError("quadruples live over different Morita data")
        return x, y
    raise SchemaError("ext expects module or lambda_module documents")


def cmd_ext(args):
    store = DocumentStore()
    x, y = _load_pair(store, args.src, args.tgt)
    d = hml.ext_dim(x, y, args.degree)
    _print({"degree": args.degree, "dimension": d}, args.out)
    return 0


def cmd_tor(args):
    store = DocumentStore()
    m = store.bimodule(args.bimodule)
    x, a = store.module(args.module)
    if m.right_algebra is not a:
        raise SchemaError("bimodule right algebra must match the module algebra")
    d, _ = hml.tor1(m, x)
    _print({"dimension": d}, args.out)
    return 0


def cmd_classify(args):
    store = DocumentStore()
    l, data = store.lambda_module(args.module)
    which = args.cls
    if which == "mon":
        result = cls.in_mon(l)
    elif which == "epi":
        result = cls.in_epi(l)
    elif which == "proj":
        result = cls.projective_by_shape(l)
    elif which == "inj":
        result = cls.injective_by_shape(l)
    elif which in ("delta", "nabla"):
        if not args.spec:
            raise SchemaError(f"classify --class {which} needs --spec")
        u, v = store.class_spec_pair(args.spec, data)
        result = cls.in_delta(l, u, v) if which == "delta" else cls.in_nabla(l, u, v)
    else:  # gp or gi
        cert = cls.GorensteinCertificate(data)
        if not cert.ok:
            raise SchemaError("instance fails the Gorenstein preflight: "
                              + "; ".join(cert.reasons))
        result = cls.gp_member(cert, l) if which == "gp" else cls.gi_member(cert, l)
    _print({"class": which, "member": bool(result)}, args.out)
    return 0


def _ses_to_json(ses, morita_ref):
    return {
        "left": jsonio.lambda_module_to_json(ses.left, morita_ref),
        "middle": jsonio.lambda_module_to_json(ses.middle, morita_ref),
        "right": jsonio.lambda_module_to_json(ses.right, morita_ref),
        "incl": {"a": jsonio.matrix_to_json(ses.incl.field, ses.incl.a),
                 "b": jsonio.matrix_to_json(ses.incl.field, ses.incl.b)},
        "proj": {"a": jsonio.matrix_to_json(ses.proj.field, ses.proj.a),
                 "b": jsonio.matrix_to_json(ses.proj.field, ses.proj.b)},
    }


def cmd_resolve(args):
    store = DocumentStore()
    l, data = store.lambda_module(args.module)
    morita = store.resolve(args.module, store.raw(args.module), "morita_ref")
    kind = args.kind
    if kind == "pq":
        ses = hml.resolution_pq(l)
    elif kind == "ij":
        ses = hml.coresolution_ij(l)
    elif kind == "present":
        ses = hml.lambda_presentation(l)
    else:
        builder = {"approx-c1": hml.approx_c1, "approx-c2": hml.approx_c2,
                   "approx-c3": hml.approx_c3, "approx-c4": hml.approx_c4}[kind]
        ses = builder(l).ses
    out = {"version": 1, "kind": "resolution", "resolution_kind": kind,
           "sequence": _ses_to_json(ses, reference(morita, args.out))}
    _print(out, args.out)
    return 0


def cmd_decompose(args):
    store = DocumentStore()
    l, data = store.lambda_module(args.module)
    u, v = store.class_spec_pair(args.spec, data)
    decompose = cls.delta_decompose if args.kind == "delta" else cls.nabla_decompose
    res = decompose(l, u, v)
    if res is None:
        _print({"decomposes": False}, args.out)
        return 0
    part_a, part_b, iso = res
    out = {
        "decomposes": True,
        "a_part_dim": part_a.dim,
        "b_part_dim": part_b.dim,
        "iso": {"a": jsonio.matrix_to_json(l.field, iso.a),
                "b": jsonio.matrix_to_json(l.field, iso.b)},
    }
    _print(out, args.out)
    return 0


def cmd_sample(args):
    _check_caps(args)
    store = DocumentStore()
    sampler = lab.Sampler(args.seed, args.dim_cap, args.rank_cap)
    written = []
    if args.morita:
        data = store.morita(args.morita)
        for i in range(args.count):
            l = sampler.quadruple(data)
            path = f"{args.out}{i:03d}.json"
            jsonio.emit(jsonio.lambda_module_to_json(l, reference(args.morita, path)), path)
            written.append(path)
    elif args.algebra:
        a = store.algebra(args.algebra)
        for i in range(args.count):
            x = sampler.plain(a)
            path = f"{args.out}{i:03d}.json"
            jsonio.emit(jsonio.module_to_json(x, reference(args.algebra, path)), path)
            written.append(path)
    else:
        raise SchemaError("sample needs --morita or --algebra")
    _print({"written": written})
    return 0


def cmd_enumerate(args):
    store = DocumentStore()
    data = store.morita(args.morita)
    universe = lab.enumerate_small(data, args.max_dim)
    written = []
    for i, l in enumerate(universe):
        path = f"{args.out}{i:03d}.json"
        jsonio.emit(jsonio.lambda_module_to_json(l, reference(args.morita, path)), path)
        written.append(path)
    _print({"count": len(universe), "written": written})
    return 0


def cmd_verify(args):
    _check_caps(args)
    field = field_from_token(args.field)
    inst = lab.catalog(args.instance, field, **_params(args))
    cfg = lab.SampleConfig(seed=args.seed, count=args.count,
                           dim_cap=args.dim_cap, rank_cap=args.rank_cap)
    rep = lab.run_suite(args.suite, inst, cfg)
    doc = rep.to_dict()
    _print(doc, args.out)
    if any(c["verdict"] == "fail" and "preflight" in c["id"] for c in doc["claims"]):
        return 2
    return 0 if doc["passed"] else 1


@functools.cache
def build_parser():
    """The argparse tree, built once per process; parse_args leaves it
    unchanged, so every main call can share it."""
    p = argparse.ArgumentParser(prog="morita-lab",
                                description="exact workbench for modules over "
                                            "Morita rings with zero pairings")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="schema-check any document")
    q.add_argument("file")
    q.set_defaults(fn=cmd_validate)

    q = sub.add_parser("catalog", help="emit a catalog instance as documents")
    q.add_argument("name")
    q.add_argument("--field", required=True, help="a prime p or Q")
    q.add_argument("--param", action="append", help="k=v (examctp4: n,h,i,j)")
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_catalog)

    q = sub.add_parser("functor", help="apply one of the twelve functors")
    q.add_argument("name", help="TA|TB|UA|UB|HA|HB|CA|CB|KA|KB|ZA|ZB")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--morita")
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_functor)

    q = sub.add_parser("ext", help="dimension of an Ext group")
    q.add_argument("--src", required=True)
    q.add_argument("--tgt", required=True)
    q.add_argument("--degree", type=_integer, default=1)
    q.add_argument("--out")
    q.set_defaults(fn=cmd_ext)

    q = sub.add_parser("tor", help="dimension of Tor_1(bimodule, module)")
    q.add_argument("--bimodule", required=True)
    q.add_argument("--module", required=True)
    q.add_argument("--out")
    q.set_defaults(fn=cmd_tor)

    q = sub.add_parser("classify", help="class membership of a quadruple")
    q.add_argument("--module", required=True)
    q.add_argument("--class", dest="cls", required=True,
                   choices=["mon", "epi", "delta", "nabla", "proj", "inj", "gp", "gi"])
    q.add_argument("--spec")
    q.add_argument("--out")
    q.set_defaults(fn=cmd_classify)

    q = sub.add_parser("resolve", help="explicit resolutions and approximations")
    q.add_argument("--module", required=True)
    q.add_argument("--kind", required=True,
                   choices=["pq", "ij", "present",
                            "approx-c1", "approx-c2", "approx-c3", "approx-c4"])
    q.add_argument("--out")
    q.set_defaults(fn=cmd_resolve)

    q = sub.add_parser("decompose", help="splitting-based T/H-sum decomposition")
    q.add_argument("--module", required=True)
    q.add_argument("--kind", required=True, choices=["delta", "nabla"])
    q.add_argument("--spec", required=True)
    q.add_argument("--out")
    q.set_defaults(fn=cmd_decompose)

    q = sub.add_parser("sample", help="seeded random modules")
    q.add_argument("--morita")
    q.add_argument("--algebra")
    q.add_argument("--seed", type=_integer, default=lab.DEFAULT_SEED)
    q.add_argument("--count", type=_integer, default=10)
    q.add_argument("--dim-cap", type=_integer, default=12)
    q.add_argument("--rank-cap", type=_integer, default=4)
    q.add_argument("--out", required=True, help="output file prefix")
    q.set_defaults(fn=cmd_sample)

    q = sub.add_parser("enumerate", help="exhaustive tiny-module universe")
    q.add_argument("--morita", required=True)
    q.add_argument("--max-dim", type=_integer, default=2)
    q.add_argument("--out", required=True, help="output file prefix")
    q.set_defaults(fn=cmd_enumerate)

    q = sub.add_parser("verify", help="run a verification suite")
    q.add_argument("suite", choices=sorted(lab.SUITES))
    q.add_argument("--instance", required=True)
    q.add_argument("--field", required=True, help="a prime p or Q")
    q.add_argument("--param", action="append", help="k=v (examctp4: n,h,i,j)")
    q.add_argument("--seed", type=_integer, default=lab.DEFAULT_SEED)
    q.add_argument("--count", type=_integer, default=100)
    q.add_argument("--dim-cap", type=_integer, default=12)
    q.add_argument("--rank-cap", type=_integer, default=4)
    q.add_argument("--out")
    q.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    """Run one command and return its exit code (see the module docstring).
    Bad arguments raise nothing: argparse prints its usage and error and
    main returns 2 (0 after --help), so a caller may run many commands in
    one process.  Such a caller reuses the definitions kept by
    jsonio._DEFINITIONS; the console script starts each command empty."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        _check_out(args)
        return args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AssertionError as exc:
        sys.stderr.write(f"internal invariant breach: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
