"""The per-layer tracer of perfbench/ wraps package functions by name; a
renamed or bypassed function would break traced runs or hide their work."""

import importlib
import types
from pathlib import Path

from morita_lab import algebras as alg
from morita_lab import morita as mor
from morita_lab.fields import F3

from test_morita import _identity

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SOLVES = ("algebras.intertwiner_constraints.calls", "algebras.solve_matrix_system.calls")


def _fresh_a2():
    """kA2 over F_3, built afresh so that its content memos start empty."""
    return alg.path_algebra(alg.linear_quiver(2), [], F3, name="kA2")


def _assert_counts(tracer, calls, counts):
    """Each call moves the traced counts by its expected amounts, and an
    identical second call is answered from the memos without a solve."""
    t = tracer.Tracer()
    t.install()
    try:
        for call, expected in calls:
            before = t.metrics()
            call()
            after = t.metrics()
            assert tuple(after[k] - before[k] for k in counts) == expected
            call()
            again = t.metrics()
            assert tuple(again[k] - after[k] for k in SOLVES) == (0, 0)
    finally:
        t.uninstall()


def _load_tracer():
    """perfbench/tracer.py as a module, compiled from its source so that no
    bytecode cache is written next to it."""
    mod = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), mod.__dict__)
    return mod


def test_every_traced_path_resolves():
    tracer = _load_tracer()
    for layer, path, _ in tracer.TRACED:
        obj = importlib.import_module(f"morita_lab.{layer}")
        for part in path.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (layer, path)


def test_hom_solvers_route_through_traced_names():
    """The hom-space solvers assemble their rows through the traced
    constraint builder and solve one traced system; extend and lift make one
    traced hom_space (plain) or lambda_hom_space (quadruple) call each, so
    the per-layer trace still sees their work.  A repeated question is a
    memo hit and solves nothing."""
    for layer in ("homology", "classes", "lab", "jsonio", "cli"):
        importlib.import_module(f"morita_lab.{layer}")
    hml = importlib.import_module("morita_lab.homology")
    tracer = _load_tracer()
    a2_f3 = _fresh_a2()
    data = mor.MoritaData(a2_f3, a2_f3, alg.corner_bimodule(a2_f3, "2", "1"),
                          alg.corner_bimodule(a2_f3, "2", "1"))
    p1, p2 = alg.indecomposable_projectives(a2_f3)
    s1 = alg.simples(a2_f3)[0]
    l1, l2 = mor.functor_T(data, "A", p1), mor.functor_T(data, "B", p2)
    pres, lpres = hml.cover_presentation(s1), hml.lambda_presentation(l1)
    counts = ("algebras.intertwiner_constraints.calls", "algebras.solve_matrix_system.calls",
              "algebras.hom_space.calls", "morita.lambda_hom_space.calls")
    calls = [
        (lambda: alg.hom_space(p2, p1), (1, 1, 1, 0)),
        (lambda: mor.lambda_hom_space(l2, l1), (2, 1, 0, 1)),
        (lambda: hml._extend_along(pres.incl, alg.identity_morphism(pres.left)),
         (1, 1, 1, 0)),
        (lambda: hml._lift_along(pres.proj, alg.identity_morphism(s1)), (1, 1, 1, 0)),
        (lambda: hml._extend_along(lpres.incl, _identity(lpres.left)),
         (2, 1, 0, 1)),
        (lambda: hml._lift_along(lpres.proj, _identity(l1)), (2, 1, 0, 1)),
    ]
    _assert_counts(tracer, calls, counts)
    assert alg.hom_space.__name__ == "hom_space" and not hasattr(alg.hom_space, "__wrapped__")


def test_only_the_free_route_solves_for_the_middle_term():
    """ext_dim counts dimensions from constraint rows, with no hom_space or
    lambda_hom_space call.  On a cover or T-cover presentation it counts
    Hom(P, y) by Yoneda, so it builds intertwiner rows for K and x only: a
    later Hom(P, y) still builds its own.  The free route, which
    lambda_ext_dim_flatten takes over the materialized algebra, also builds
    them for the middle term, so a later Hom(P, y) is a memo hit and the
    flattened cross-checks test the closed form.  The presentations are
    built first, so no tensor rows are counted; Hom(S_1, S_2) and its
    flattened copy have an empty support and need no rows.  A repeated
    question is a memo hit and builds nothing."""
    for layer in ("homology", "classes", "lab", "jsonio", "cli"):
        importlib.import_module(f"morita_lab.{layer}")
    hml = importlib.import_module("morita_lab.homology")
    tracer = _load_tracer()
    a2_f3 = _fresh_a2()
    data = mor.MoritaData(a2_f3, a2_f3, alg.corner_bimodule(a2_f3, "2", "1"),
                          alg.corner_bimodule(a2_f3, "2", "1"))
    s1, s2 = alg.simples(a2_f3)
    l1, l2 = mor.lambda_simples(data)[:2]
    middle, l_middle = hml.presentation(s1).middle, hml.presentation(l1).middle
    free_middle, flat_l2 = hml.presentation(mor.flatten(l1)).middle, mor.flatten(l2)
    counts = ("algebras.intertwiner_constraints.calls", "algebras.hom_space.calls",
              "morita.lambda_hom_space.calls")
    calls = [
        # rows for K = S_2 against S_2
        (lambda: hml.ext_dim(s1, s2, 1), (1, 0, 0)),
        (lambda: alg.hom_dim(middle, s2), (1, 0, 0)),
        # rows for the X and Y blocks of K and of x
        (lambda: hml.ext_dim(l1, l2), (4, 0, 0)),
        (lambda: mor.lambda_hom_dim(l_middle, l2), (2, 0, 0)),
        # rows for K and for the free middle term
        (lambda: hml.lambda_ext_dim_flatten(l1, l2), (2, 0, 0)),
        (lambda: alg.hom_dim(free_middle, flat_l2), (0, 0, 0)),
    ]
    _assert_counts(tracer, calls, counts)
