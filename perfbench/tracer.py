"""Span and counter tracing of quivergrass, installed from outside the library.

`Tracer.install()` replaces each layer module's public functions and the
heavy methods of its classes with wrappers, at every name a caller binds:
the modules import each other with `from .linalg import col_space`, so a
function is patched in every quivergrass namespace that holds it, not only
where it is defined. Each wrapped call appends one span (name, start, end,
parent, job) to flat arrays kept in memory; `uninstall()` restores the
originals. Field operations and `Mat` constructions are only counted, since
they run millions of times.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("linalg", "palg", "hull", "repmod", "grassmann", "weyl", "demazure",
          "geomrep", "acceptance", "cli")

# Cheap accessors stay unwrapped: their spans would cost more than they measure.
SKIP_METHODS = {"map", "dim", "dims", "basis", "total_dim", "dim_vector", "key",
                "col", "is_zero", "to_lists", "block", "length", "degree", "chi",
                "leading", "quiver", "finite", "weights", "status", "passed"}
SPAN_DUNDERS = {"__matmul__", "__add__", "__sub__", "__neg__"}
SUBSPACE_FUNCS = ("col_space", "kernel", "subspace_sum", "subspace_intersect",
                  "preimage", "subspace_contains", "contains_vector")
FIELD_OPS = ("add", "sub", "mul", "neg", "inv")

# Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "fields.q_ops": "count",
    "fields.fp_ops": "count",
    "fields.q_consts": "count",
    "linalg.rref.calls": "count",
    "linalg.rref.cells": "count",
    "linalg.rref.self_s": "s",
    "linalg.matmul.calls": "count",
    "linalg.matmul.self_s": "s",
    "linalg.mat.built": "count",
    "linalg.subspace.calls": "count",
    "linalg.self_s": "s",
    "palg.self_s": "s",
    "hull.injective_hull.calls": "count",
    "hull.injective_hull.self_s": "s",
    "hull.solves": "count",
    "hull.solve.self_s": "s",
    "repmod.make_subrep.calls": "count",
    "repmod.make_subrep.self_s": "s",
    "repmod.reduce_mod.calls": "count",
    "repmod.reduce_mod.self_s": "s",
    "repmod.self_s": "s",
    "grassmann.candidates": "count",
    "grassmann.leaves": "count",
    "grassmann.leaf_ratio": "ratio",
    "grassmann.enumerate.calls": "count",
    "grassmann.enumerate.self_s": "s",
    "grassmann.interpolate.self_s": "s",
    "weyl.self_s": "s",
    "demazure.extend_step.calls": "count",
    "demazure.self_s": "s",
    "geomrep.finite_points.calls": "count",
    "geomrep.self_s": "s",
    "acceptance.c09_s": "s",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.stack = [-1]
        self.current_job = -1
        self.counts: dict = {}
        self._patches: list = []

    # -- recording ---------------------------------------------------------------

    def _cell(self, key: str) -> list:
        return self.counts.setdefault(key, [0])

    def _span_wrapper(self, fn, span_name: str, hook=None):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        names, starts, ends = self.name, self.start, self.end
        parents, jobs, stack = self.parent, self.job, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.current_job)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counting(self, fn, key: str):
        cell = self._cell(key)

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    # -- installation ---------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import quivergrass  # noqa: F401  (loads every submodule)
        from quivergrass import fields, grassmann, linalg

        mods = {n: sys.modules[f"quivergrass.{n}"] for n in LAYERS
                if f"quivergrass.{n}" in sys.modules}
        replace: dict = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if attr.startswith("_") or inspect.isgeneratorfunction(obj):
                        continue
                    replace[obj] = self._span_wrapper(obj, f"{layer}.{attr}",
                                                      self._hook_for(layer, attr))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        cells = self._cell("grassmann.candidates")
        orig_cells = grassmann._cells_between

        @functools.wraps(orig_cells)
        def cells_between(lower, upper, k, counter, cap):
            # The callers share `counter` across their recursion, and the
            # nested calls charge it while this generator is suspended, so
            # only the charge made up to the first yield is this call's own.
            gen = orig_cells(lower, upper, k, counter, cap)
            before = counter[0]
            first = next(gen, None)
            cells[0] += counter[0] - before
            if first is not None:
                yield first
                yield from gen

        replace[orig_cells] = cells_between
        for mod in [m for n, m in sys.modules.items()
                    if n == "quivergrass" or n.startswith("quivergrass.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._set(mod, attr, replace[obj])
        acceptance = mods["acceptance"]
        self._set(acceptance, "_TABLE", [
            (num, name, self._span_wrapper(fn, f"acceptance.criterion_{num:02d}"))
            for num, name, fn in acceptance._TABLE
        ])
        for cls, key in ((fields.Rationals, "fields.q_ops"), (fields.PrimeField, "fields.fp_ops")):
            for op in FIELD_OPS:
                self._set(cls, op, self._counting(cls.__dict__[op], key))
        consts = self._cell("fields.q_consts")
        for const in ("zero", "one"):
            getter = fields.Rationals.__dict__[const].fget

            def counted(self_, _get=getter):
                consts[0] += 1
                return _get(self_)

            self._set(fields.Rationals, const, property(counted))
        built = self._cell("linalg.mat.built")
        init = linalg.Mat.__dict__["__init__"]

        @functools.wraps(init)
        def mat_init(*args):
            built[0] += 1
            init(*args)

        self._set(linalg.Mat, "__init__", mat_init)

    def _wrap_class(self, layer: str, cls) -> None:
        if layer == "fields":
            return
        for attr, obj in list(cls.__dict__.items()):
            if attr in SKIP_METHODS:
                continue
            if attr.startswith("_") and attr not in SPAN_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._span_wrapper(obj.__func__, name)))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                self._set(cls, attr, self._span_wrapper(obj, name))

    def _hook_for(self, layer: str, attr: str):
        if (layer, attr) == ("linalg", "rref"):
            cells = self._cell("linalg.rref.cells")

            def hook(args, result):
                cells[0] += args[0].rows * args[0].cols

            return hook
        if layer == "grassmann" and attr in ("enumerate_submodules", "graded_submodules"):
            leaves = self._cell("grassmann.leaves")

            def hook(args, result):
                leaves[0] += len(result)

            return hook
        return None

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------------

    def reset(self) -> None:
        for arr in (self.name, self.start, self.end, self.parent, self.job):
            del arr[:]
        for cell in self.counts.values():
            cell[0] = 0

    def dump(self, path: Path) -> None:
        """Write the spans as flat binary arrays after a JSON header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name:I", "start:d", "end:d", "parent:q", "job:q"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.start, self.end, self.parent, self.job):
                arr.tofile(fh)

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_t = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            incl[nid] += dur[i]
            self_t[nid] += dur[i] - child[i]
        return {nm: (calls[k], incl[k], self_t[k]) for k, nm in enumerate(self.names) if calls[k]}

    def layer_metrics(self) -> dict:
        """The per-layer metrics this tracer can see (all but startup and overhead)."""
        agg = self.aggregate()

        def calls(name):
            return agg.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return agg.get(name, (0, 0.0, 0.0))[2]

        def layer_self(layer):
            return sum(v[2] for k, v in agg.items() if k.split(".", 1)[0] == layer)

        count = {k: c[0] for k, c in self.counts.items()}
        solves = ("hull.extend_to_injective", "hull.induced_automorphism")
        m = {
            "fields.q_ops": count.get("fields.q_ops", 0),
            "fields.fp_ops": count.get("fields.fp_ops", 0),
            "fields.q_consts": count.get("fields.q_consts", 0),
            "linalg.rref.calls": calls("linalg.rref"),
            "linalg.rref.cells": count.get("linalg.rref.cells", 0),
            "linalg.rref.self_s": self_s("linalg.rref"),
            "linalg.matmul.calls": calls("linalg.Mat.__matmul__"),
            "linalg.matmul.self_s": self_s("linalg.Mat.__matmul__"),
            "linalg.mat.built": count.get("linalg.mat.built", 0),
            "linalg.subspace.calls": sum(calls(f"linalg.{f}") for f in SUBSPACE_FUNCS),
            "hull.injective_hull.calls": calls("hull.injective_hull"),
            "hull.injective_hull.self_s": self_s("hull.injective_hull"),
            "hull.solves": sum(calls(s) for s in solves),
            "hull.solve.self_s": sum(self_s(s) for s in solves),
            "repmod.make_subrep.calls": calls("repmod.make_subrep"),
            "repmod.make_subrep.self_s": self_s("repmod.make_subrep"),
            "repmod.reduce_mod.calls": calls("repmod.reduce_mod"),
            "repmod.reduce_mod.self_s": self_s("repmod.reduce_mod"),
            "grassmann.candidates": count.get("grassmann.candidates", 0),
            "grassmann.leaves": count.get("grassmann.leaves", 0),
            "grassmann.enumerate.calls": calls("grassmann.enumerate_submodules"),
            "grassmann.enumerate.self_s": self_s("grassmann.enumerate_submodules"),
            "grassmann.interpolate.self_s": self_s("grassmann.count_polynomial"),
            "demazure.extend_step.calls": calls("demazure.extend_step"),
            "geomrep.finite_points.calls": calls("geomrep.finite_points"),
            "acceptance.c09_s": agg.get("acceptance.criterion_09", (0, 0.0, 0.0))[1],
        }
        for layer in ("linalg", "palg", "repmod", "weyl", "demazure", "geomrep", "cli"):
            m[f"{layer}.self_s"] = layer_self(layer)
        return m


def finish_metrics(m: dict) -> dict:
    """Add the derived ratio and fill metrics no span reached with zero."""
    out = {k: m.get(k, 0) for k in PER_LAYER}
    cand = out["grassmann.candidates"]
    out["grassmann.leaf_ratio"] = out["grassmann.leaves"] / cand if cand else 0.0
    return out
