"""Span tracing of symdef from outside the package.

``install`` wraps the engine's layer boundaries without editing ``src/``:
methods are patched on their classes, and each module-level function is
replaced in *every* ``symdef.*`` module that binds the same object (for
example ``cohomology`` binds ``super_lie_derivative_op`` at import, while it
imports ``matrix_rank`` inside function bodies, which then resolves through
``kernel``).  A target that cannot be found, or a binding left unwrapped,
raises instead of silently producing zero counts.

Spans are kept in memory as ``[name id, parent index, start, end, a, b]``
(``a``/``b`` are per-call counters such as cache misses or matrix cells)
and written out as JSON when the traced process ends.  ``geometry``
(``Poly``/``SuperPoly``) is deliberately not wrapped: its calls are
sub-microsecond and number in the millions, so spans would swamp the run;
its cost shows up as the self time of ``operators`` and ``deformation``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# ---------------------------------------------------------------------------
# Per-layer metrics: the wrapped span, the statistics reported for it, and
# where the span must (or must not) do work.  (span, stats, nonzero on,
# zero on)
# ---------------------------------------------------------------------------

DIM, DEFORM, CERTIFY = "dim-cold", "deform-cold", "certify-warm"
COLD = (DIM, DEFORM)
ALL = (DIM, DEFORM, CERTIFY)

LAYERS = (
    ("cohomology.act_monomial", ("calls", "misses", "hit_ratio", "s"), COLD, ()),
    ("cohomology.AlgebraContext.act", ("calls", "s"), COLD, ()),
    ("operators.lie_derivative", ("calls", "s"), COLD, ()),
    ("kernel.matrix_rank", ("calls", "s", "cells", "nnz"), (DIM,), (DEFORM, CERTIFY)),
    ("cohomology.cohomology_dim", ("calls", "s", "self_s"), (DIM,), (DEFORM, CERTIFY)),
    ("kernel.SolvedSystem.build", ("calls", "s", "cells"), (DEFORM, CERTIFY), (DIM,)),
    ("kernel.SolvedSystem.solve", ("calls", "s"), (DEFORM, CERTIFY), (DIM,)),
    ("cohomology.coboundary_solve", ("calls", "s"), (DEFORM,), (DIM,)),
    ("deformation.bracket_defect", ("calls", "s"), (DEFORM, CERTIFY), (DIM,)),
    ("operators.GradedOp.compose", ("calls", "s", "self_s"), (DEFORM, CERTIFY), (DIM,)),
    ("kernel.ParamScalar.mul", ("calls", "s"), (DEFORM, CERTIFY), (DIM,)),
    ("deformation.build_infinitesimal", ("s",), (DEFORM, CERTIFY), (DIM,)),
    ("deformation.obstruction_classes", ("s", "self_s"), (DEFORM, CERTIFY), (DIM,)),
    ("deformation.verify_reassembly", ("s",), (DEFORM, CERTIFY), (DIM,)),
    ("deformation.verify_homomorphism", ("s",), (DEFORM, CERTIFY), (DIM,)),
    ("cohomology.d1", ("calls", "s"), ALL, ()),
    ("cohomology.d2", ("calls", "s"), ALL, ()),
    ("catalog.build_cocycle", ("calls", "s"), ALL, ()),
    ("catalog.calibrate_convention", ("s",), ALL, ()),
    ("cli.import", ("s",), ALL, ()),
    ("cli.run", ("s",), COLD, (CERTIFY,)),
    ("cli.render", ("s",), COLD, (CERTIFY,)),
)

UNITS = {"calls": "count", "misses": "count", "cells": "count", "nnz": "count",
         "hit_ratio": "ratio", "s": "s", "self_s": "s"}

# Metrics of the traced run itself, next to the layer metrics.
RUN_METRICS = (("trace.wall_s", "s"), ("trace.overhead_s", "s"))


def metric_names() -> list[tuple[str, str]]:
    out = [(f"{span}.{stat}", UNITS[stat]) for span, stats, _, _ in LAYERS for stat in stats]
    return out + list(RUN_METRICS)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (e.g. around an import)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._id(name), parent, start, end, 0, 0])

    def open(self, name: str) -> list:
        rec = [self._id(name), self._stack[-1] if self._stack else -1, 0.0, 0.0, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, func, counters=None):
        """`func` wrapped in a span; `counters(*args)` gives (a, b) per call."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            a, b = counters(*args, **kwargs) if counters else (0, 0)
            rec = self.open(name)
            rec[4], rec[5] = a, b
            try:
                return func(*args, **kwargs)
            finally:
                self.close(rec)

        wrapper.perfbench_original = func
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _cells_nnz(rows, ncols, *_):
    return len(rows) * ncols, sum(1 for row in rows for x in row if x)


def _act_miss(cache, gen, mon):
    return (int((gen, mon) not in cache._act), 0)


def install(tracer: Tracer) -> int:
    """Wrap every layer boundary; returns the number of bindings patched."""
    import symdef.catalog as catalog
    import symdef.cli as cli
    import symdef.cohomology as cohomology
    import symdef.deformation as deformation
    import symdef.kernel as kernel
    import symdef.operators as operators

    methods = (
        (cohomology.BlockCache, "act_monomial", "cohomology.act_monomial", _act_miss),
        (cohomology.AlgebraContext, "act", "cohomology.AlgebraContext.act", None),
        (kernel.SolvedSystem, "__init__", "kernel.SolvedSystem.build",
         lambda self, rows, ncols: _cells_nnz(rows, ncols)),
        (kernel.SolvedSystem, "solve", "kernel.SolvedSystem.solve", None),
        (operators.GradedOp, "compose", "operators.GradedOp.compose", None),
        (kernel.ParamScalar, "__mul__", "kernel.ParamScalar.mul", None),
        (deformation.ObstructionReport, "verify_reassembly", "deformation.verify_reassembly", None),
    )
    functions = (
        (kernel, "matrix_rank", "kernel.matrix_rank", _cells_nnz),
        (operators, "lie_derivative_op", "operators.lie_derivative", None),
        (operators, "super_lie_derivative_op", "operators.lie_derivative", None),
        (cohomology, "cohomology_dim", "cohomology.cohomology_dim", None),
        (cohomology, "coboundary_solve", "cohomology.coboundary_solve", None),
        (cohomology, "d1", "cohomology.d1", None),
        (cohomology, "d2", "cohomology.d2", None),
        (catalog, "build_cocycle", "catalog.build_cocycle", None),
        (catalog, "calibrate_convention", "catalog.calibrate_convention", None),
        (deformation, "bracket_defect", "deformation.bracket_defect", None),
        (deformation, "build_infinitesimal", "deformation.build_infinitesimal", None),
        (deformation, "obstruction_classes", "deformation.obstruction_classes", None),
        (deformation, "verify_homomorphism", "deformation.verify_homomorphism", None),
        (cli, "run", "cli.run", None),
        (cli, "render", "cli.render", None),
    )
    modules = [mod for name, mod in sorted(sys.modules.items())
               if mod is not None and (name == "symdef" or name.startswith("symdef."))]
    patched = 0
    for cls, attr, name, counters in methods:
        original = cls.__dict__.get(attr)
        if original is None or hasattr(original, "perfbench_original"):
            raise RuntimeError(f"cannot wrap {cls.__name__}.{attr}")
        setattr(cls, attr, tracer.wrap(name, original, counters))
        patched += 1
    originals = []
    for module, attr, name, counters in functions:
        original = getattr(module, attr, None)
        if original is None or hasattr(original, "perfbench_original"):
            raise RuntimeError(f"cannot wrap {module.__name__}.{attr}")
        originals.append(original)
        wrapper = tracer.wrap(name, original, counters)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched += 1
    for mod in modules:
        for key, value in vars(mod).items():
            if any(value is original for original in originals):
                raise RuntimeError(f"{mod.__name__}.{key} still binds an unwrapped function")
    return patched


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def summarize(trace: dict) -> dict[str, dict]:
    """Per span name: calls, inclusive s, self_s and the summed counters.

    Inclusive time counts only the outermost span of a name, so recursion
    is not counted twice; self time is a span's duration minus the time
    its child spans cover (children of one span never overlap here, since
    the engine is single-threaded)."""
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for nid, parent, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for idx, (nid, parent, start, end, a, b) in enumerate(spans):
        stats = out.setdefault(names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0, "a": 0, "b": 0})
        stats["calls"] += 1
        stats["self_s"] += (end - start) - child[idx]
        stats["a"] += a
        stats["b"] += b
        up = parent
        while up >= 0 and spans[up][0] != nid:
            up = spans[up][1]
        if up < 0:
            stats["s"] += end - start
    return out


def merge(into: dict, summary: dict) -> dict:
    for name, stats in summary.items():
        acc = into.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "a": 0, "b": 0})
        for key in acc:
            acc[key] += stats[key]
    return into


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metric values of one pass, zero where a span never ran."""
    out = {}
    for span, stats, _, _ in LAYERS:
        got = summary.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "a": 0, "b": 0})
        for stat in stats:
            if stat in ("calls", "s", "self_s"):
                value = got[stat]
            elif stat in ("misses", "cells"):
                value = got["a"]
            elif stat == "nnz":
                value = got["b"]
            else:  # hit_ratio
                value = (got["calls"] - got["a"]) / got["calls"] if got["calls"] else 0.0
            out[f"{span}.{stat}"] = value
    return out


def expectation_failures(workload: str, metrics: dict[str, float]) -> list[str]:
    """Layer metrics that are zero where work is predicted, or nonzero where
    none is."""
    failures = []
    for span, stats, nonzero_on, zero_on in LAYERS:
        for stat in stats:
            value = metrics[f"{span}.{stat}"]
            if workload in nonzero_on and not value:
                failures.append(f"{span}.{stat} is 0 on {workload}")
            if workload in zero_on and value:
                failures.append(f"{span}.{stat} is {value} on {workload}, predicted 0")
    return failures


def children_under(trace: dict, root_name: str) -> dict[str, float]:
    """Inclusive time per span name over everything nested in `root_name`
    spans (outermost occurrence of each name only)."""
    names, spans = trace["names"], trace["spans"]
    out: dict[str, float] = {}
    for nid, parent, start, end, _, _ in spans:
        up, nested_same, inside = parent, False, False
        while up >= 0:
            if spans[up][0] == nid:
                nested_same = True
            if names[spans[up][0]] == root_name:
                inside = True
            up = spans[up][1]
        if inside and not nested_same:
            out[names[nid]] = out.get(names[nid], 0.0) + (end - start)
    return out


def direct_children(trace: dict, parent_name: str) -> dict[str, float]:
    """Summed duration per name of the spans directly under `parent_name`."""
    names, spans = trace["names"], trace["spans"]
    out: dict[str, float] = {}
    for nid, parent, start, end, _, _ in spans:
        if parent >= 0 and names[spans[parent][0]] == parent_name:
            out[names[nid]] = out.get(names[nid], 0.0) + (end - start)
    return out
