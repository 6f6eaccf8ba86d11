"""Span recording for the traced benchmark run.

While ``installed(recorder)`` is active, the module attributes through
which shapeopt's layers call each other are replaced by wrappers that
record one span per call: name, start, end, parent span, op id and the
name of the exception that ended it (None on return).  Probes of the
exact line search are counted by wrapping the decrease function that
``mso_step_objective`` returns, and the harness's file writes are counted
in bytes through an ``open`` placed in the harness modules' namespaces.
On exit every attribute is restored, so untraced ops run the package
exactly as shipped.

Spans stay in memory; ``write_jsonl`` writes them out once the run ends.
"""

import builtins
import json
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import shapeopt.curve as curve
import shapeopt.functional as functional
import shapeopt.metric as metric
import shapeopt.solver as solver
from shapeopt.harness import experiment, svg

# (module, attribute, span name).  Each attribute is the name a caller in
# another layer (or the same module, for check_simple and inner) looks up
# at call time, so replacing it puts the span at that layer boundary.
TARGETS = (
    (solver, "optimize", "solver.optimize"),
    (experiment, "optimize", "solver.optimize"),
    (solver, "step_direction", "solver.step_direction"),
    (solver, "line_search_exact", "solver.line_search"),
    (solver, "solve_hessian", "calculus.solve_hessian"),
    (solver, "retract", "curve.retract"),
    (curve, "check_simple", "curve.check_simple"),
    (solver, "boundary_kernel", "functional.boundary_kernel"),
    (functional, "evaluate_mso", "functional.evaluate"),
    (functional, "evaluate_general", "functional.evaluate"),
    (solver, "distance_bar", "functional.distance"),
    (solver, "distance_tilde", "functional.distance"),
    (solver, "riesz_gradient", "metric.riesz_gradient"),
    (solver, "norm", "metric.norm"),
    (metric, "inner", "metric.inner"),
    (experiment, "_write_csv", "harness.io.csv"),
    (experiment, "render_curves", "harness.io.svg"),
)
IO_MODULES = (experiment, svg)
PROBES = "solver.line_search.probes"
IO_BYTES = "harness.io.bytes"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.error = None


class Recorder:
    """Spans and counters of one traced run.  ``op`` is the id that new
    spans carry; the benchmark sets it before each traced op."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []

    def begin(self, name):
        span = Span(name, self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def end(self, span, error=None):
        span.end = perf_counter()
        span.error = error
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(span, type(exc).__name__)
                raise
            self.end(span)
            return result
        return traced

    def write_jsonl(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "op": s.op, "error": s.error}) + "\n")


class _CountedFile:
    """File handle that ends its span and counts its size on close."""

    def __init__(self, fh, recorder, span):
        self._fh = fh
        self._recorder = recorder
        self._span = span

    def close(self):
        if self._span is not None:
            self._fh.flush()
            self._recorder.counts[IO_BYTES] += os.fstat(self._fh.fileno()).st_size
            self._fh.close()
            self._recorder.end(self._span)
            self._span = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


@contextmanager
def installed(recorder):
    """Swap the wrappers in for the duration of the block."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
    saved.append((solver, "mso_step_objective", solver.mso_step_objective))
    original_objective = solver.mso_step_objective

    def counted_objective(*args, **kwargs):
        phi = original_objective(*args, **kwargs)

        def probe(t):
            recorder.counts[PROBES] += 1
            return phi(t)
        return probe

    def counted_open(file, mode="r", *args, **kwargs):
        span = recorder.begin("harness.io.file")
        try:
            fh = builtins.open(file, mode, *args, **kwargs)
        except BaseException as exc:
            recorder.end(span, type(exc).__name__)
            raise
        return _CountedFile(fh, recorder, span)

    try:
        for mod, attr, name in TARGETS:
            setattr(mod, attr, recorder.wrap(name, getattr(mod, attr)))
        solver.mso_step_objective = counted_objective
        for mod in IO_MODULES:
            mod.open = counted_open
        yield recorder
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
        for mod in IO_MODULES:
            mod.__dict__.pop("open", None)


def children_time(spans):
    """Per span index, the summed duration of its direct children.
    Calls run on one thread and children nest inside their parent, so
    the sum equals the part of the parent's interval they cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return covered


def _layer(name):
    for prefix in ("metric.", "harness.io."):
        if name.startswith(prefix):
            return prefix[:-1]
    return name


def _unit(name):
    return "s" if name.endswith(".s") else "bytes" if name.endswith(".bytes") else "count"


def layer_metrics(recorder, n_ops):
    """Per-layer metrics from the spans and counts of n_ops traced ops.
    Times are self times.  Every value is a mean per traced op, except
    probes_per_step, which is probes per line search."""
    spans = recorder.spans
    covered = children_time(spans)
    self_s, calls, errors = Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        layer = _layer(s.name)
        self_s[layer] += (s.end - s.start) - covered[i]
        calls[s.name] += 1
        errors[s.name] += s.error is not None
    op_s = sum(s.end - s.start for s in spans if s.parent is None)
    probes = recorder.counts[PROBES]
    totals = {
        "curve.check_simple.s": self_s["curve.check_simple"],
        "curve.check_simple.calls": calls["curve.check_simple"],
        "curve.retract.s": self_s["curve.retract"],
        "curve.retract.calls": calls["curve.retract"],
        "curve.retract.rejected": errors["curve.retract"],
        "solver.line_search.s": self_s["solver.line_search"],
        "solver.line_search.probes": probes,
        "solver.line_search.failed": errors["solver.line_search"],
        "solver.step_direction.s": self_s["solver.step_direction"],
        "solver.iterations": calls["solver.step_direction"],
        "solver.optimize.s": self_s["solver.optimize"],
        "calculus.solve_hessian.s": self_s["calculus.solve_hessian"],
        "calculus.solve_hessian.calls": calls["calculus.solve_hessian"],
        "functional.evaluate.s": self_s["functional.evaluate"],
        "functional.boundary_kernel.s": self_s["functional.boundary_kernel"],
        "functional.distance.s": self_s["functional.distance"],
        "metric.s": self_s["metric"],
        "harness.io.s": self_s["harness.io"],
        "harness.io.bytes": recorder.counts[IO_BYTES],
        "op.s": op_s,
    }
    values = {name: total / n_ops for name, total in totals.items()}
    searches = calls["solver.line_search"]
    values["solver.line_search.probes_per_step"] = probes / searches if searches else 0.0
    return {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
