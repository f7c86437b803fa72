"""The per-layer tracer of perfbench/ wraps package functions by name; a
renamed or bypassed function would break traced runs or hide their work."""

import importlib
import types
from pathlib import Path

from morita_lab import algebras as alg
from morita_lab import morita as mor

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_hom_solvers_route_through_traced_names(a2_f3):
    for layer in ("homology", "classes", "lab", "jsonio", "cli"):
        importlib.import_module(f"morita_lab.{layer}")
    tracer = _load_tracer()
    data = mor.MoritaData(a2_f3, a2_f3, alg.corner_bimodule(a2_f3, "2", "1"),
                          alg.corner_bimodule(a2_f3, "2", "1"))
    p1, p2 = alg.indecomposable_projectives(a2_f3)
    l1, l2 = mor.functor_T(data, "A", p1), mor.functor_T(data, "B", p2)
    rows = data.field.zeros(0, p2.dim * p1.dim)
    lambda_rows = data.field.zeros(0, l2.X.dim * l1.X.dim + l2.Y.dim * l1.Y.dim)
    calls = [
        (lambda: alg.hom_space(p2, p1), 1, 1),
        (lambda: alg.solve_hom_equation(p2, p1, [(rows, rows[:, 0])]), 1, 0),
        (lambda: mor.lambda_hom_space(l2, l1), 2, 1),
        (lambda: mor.solve_lambda_hom_equation(l2, l1, [(lambda_rows, lambda_rows[:, 0])]),
         2, 0),
    ]
    t = tracer.Tracer()
    t.install()
    try:
        for call, constraints, systems in calls:
            before = t.metrics()
            call()
            after = t.metrics()
            assert (after["algebras.intertwiner_constraints.calls"]
                    - before["algebras.intertwiner_constraints.calls"]) == constraints
            assert (after["algebras.solve_matrix_system.calls"]
                    - before["algebras.solve_matrix_system.calls"]) == systems
    finally:
        t.uninstall()
    assert alg.hom_space.__name__ == "hom_space" and not hasattr(alg.hom_space, "__wrapped__")
