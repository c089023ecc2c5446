"""Span recorder for the traced benchmark run.

Spans are recorded around the public calls into each ``ecogrid`` module by
replacing the module attributes from outside; no file under ``src/`` is
touched. A span has a name (``<layer>.<function>``), a start, an end, the
span that caused it and the id of the benchmark operation it belongs to.
Spans stay in memory until the run ends.

A call made on a worker thread whose own stack is empty takes as parent the
innermost open span of the thread that created the tracer: that thread is
blocked in the call that handed out the work (``evaluate_all``).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) pairs wrapped in the traced run; the span name is
# "<module>.<attribute>" and the layer is the module.
TRACED_CALLS = (
    ("caseio", "parse_case"),
    ("model", "validate"),
    ("model", "apply_outage"),
    ("model", "connected_components"),
    ("powerflow", "build_admittance"),
    ("powerflow", "solve"),
    ("powerflow", "branch_flows"),
    ("ecomatrix", "build_eco_matrix"),
    ("ecometrics", "metrics"),
    ("stats", "flow_stats"),
    ("stats", "case_report"),
    ("contingency", "enumerate_contingencies"),
    ("contingency", "evaluate"),
    ("contingency", "evaluate_all"),
    ("cli", "main"),
)
LAYERS = ("caseio", "model", "powerflow", "ecomatrix", "ecometrics", "stats", "contingency", "cli")
# counters taken from a call's result are timed, after the call's span has
# closed, as a span of this name beside it, so the work of taking them is
# charged to no ecogrid layer
COUNTER_SPAN = "trace.counters"


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "info")

    def __init__(self, name, parent, run):
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        self.info = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_info(args, kwargs, result):
    return {"converged": result.converged, "iterations": result.iterations}


def _evaluate_info(args, kwargs, result):
    return {"status": result.status}


def _matrix_info(args, kwargs, result):
    flow = kwargs.get("flow", args[2] if len(args) > 2 else None)
    mode = kwargs.get("mode", args[3] if len(args) > 3 else None)
    return {"flow": flow.name.lower(), "mode": mode.value, "dim": result.values.shape[0]}


def _metrics_info(args, kwargs, result):
    # nnz is counted here, after scoring: counting it when the matrix is built
    # would make the first pass over freshly allocated pages, and so take their
    # page faults away from ecometrics.metrics
    import numpy as np

    matrix = args[0] if args else kwargs["T"]
    values = matrix.values if hasattr(matrix, "values") else matrix
    return {"dim": len(values), "nnz": int(np.count_nonzero(values))}


_INFO = {
    "powerflow.solve": _solve_info,
    "contingency.evaluate": _evaluate_info,
    "ecomatrix.build_eco_matrix": _matrix_info,
    "ecometrics.metrics": _metrics_info,
}


class Tracer:
    """Collects spans; `run` labels the operation the next spans belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = None
        self._local = threading.local()
        self._owner_stack: list[Span] = []
        self._local.stack = self._owner_stack

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack[-1:]
            parent = owner[0] if owner else None
        span = Span(name, parent, self.run)
        self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        describe = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if describe is not None:
                with self.span(COUNTER_SPAN):
                    span.info = describe(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced call in every loaded ecogrid module, then restore."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ecogrid" or n.startswith("ecogrid."))]
        patched = []
        for mod_name, attr in TRACED_CALLS:
            original = getattr(sys.modules[f"ecogrid.{mod_name}"], attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        try:
            yield self
        finally:
            for mod, key, original in patched:
                setattr(mod, key, original)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it covered by child spans."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            lo = s.start
            for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
                c_start, c_end = max(c.start, lo), min(c.end, s.end)
                if c_end > c_start:
                    covered += c_end - c_start
                    lo = c_end
            out[id(s)] = s.duration - covered
        return out

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        rows = [
            {"id": i, "name": s.name, "start_s": s.start - t0, "end_s": s.end - t0,
             "parent": index.get(id(s.parent)), "run": s.run, "info": s.info}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n")
