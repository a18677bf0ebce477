"""The benchmark's tracer (perfbench/tracer.py) wraps the library from outside.

It replaces functions at every name a module binds, counts `Mat`
constructions and field operations through positional-only wrappers, and
wraps `grassmann._cells_between` by name. Results under the tracer must
equal untraced ones, and `uninstall()` must restore every name it patched.
"""

import importlib.util
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import quivergrass  # noqa: F401  (loads every submodule)
from quivergrass import grassmann, hull, quiver, repmod

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload():
    """A small count, enumeration and graded run, called through the module
    namespaces so that the tracer's replacements are the ones that run."""
    a3, a4, a2 = (quiver.line_quiver(n) for n in (3, 4, 2))
    ones3 = {v: 1 for v in a3.vertices}
    poly = grassmann.count_polynomial(a3, ones3, {"1": 1, "2": 2, "3": 1}, [2, 3, 5])
    a4_rep = repmod.reduce_mod(hull.injective_hull(a4, {v: 1 for v in a4.vertices}).rep, 2)
    a4_count = grassmann.count_submodules(a4_rep, {"1": 1, "2": 2, "3": 2, "4": 1})
    model = hull.injective_hull(a2, {"1": 1, "2": 1})
    subs = grassmann.enumerate_submodules(repmod.reduce_mod(model.rep, 3), {"1": 1, "2": 1})
    grading = hull.eigen_grading(model, hull.identity_framing(model), Fraction(2))
    graded = grassmann.graded_submodules(model, grading, {("1", 0): 1, ("2", 1): 1}, 5)
    return (poly, a4_count, [s.key() for s in subs], [s.key() for s in graded])


def _bindings():
    """Every attribute of every package module and package class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "quivergrass" or name.startswith("quivergrass."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if inspect.isclass(obj) and obj.__module__.startswith("quivergrass"):
                    for cattr, cobj in vars(obj).items():
                        out[(obj.__qualname__, obj.__module__, cattr)] = cobj
    return out


def test_traced_results_equal_untraced_and_uninstall_restores_every_name():
    plain = _workload()
    before = _bindings()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert grassmann._cells_between is not before[("quivergrass.grassmann", "_cells_between")]
        traced = _workload()
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert plain[0].counts == ((2, 23), (3, 46), (5, 116), (7, 218))
    assert plain[1] == 425
    assert metrics["grassmann.candidates"] > 0
    assert metrics["grassmann.leaves"] == len(plain[2]) + len(plain[3])
    assert metrics["linalg.mat.built"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
