"""Spans and counts around the calls into each homricci module.

The program is not modified.  ``install`` replaces public functions at the
name their caller looks them up by (modules import functions by name, so
patching the defining module alone would miss the call), and returns a
function that restores the originals.  Spans stay in memory and are written
out when the run ends.

Hot calls (``is_bracket_closed``, ``TermSystem`` evaluations) are counted and
timed into per-thread totals instead of spans, because a span each would
cost more than the call and hold hundreds of thousands of objects.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

REQUEST = "cli.request"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "attrs")

    def __init__(self, id, name, start, end=None, parent=None, request=None, attrs=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request, **self.attrs}


class Tracer:
    """Span and counter store for one run.

    One request is in flight at a time.  A span opened on a thread with no
    open span of its own (a sweep worker) is a child of that request's span.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.warnings: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._totals: list[defaultdict] = []
        self._lock = threading.Lock()
        self._request: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def totals(self) -> defaultdict:
        """This thread's counters; merged by :meth:`counts`."""
        mine = getattr(self._local, "totals", None)
        if mine is None:
            mine = self._local.totals = defaultdict(float)
            with self._lock:
                self._totals.append(mine)
        return mine

    def counts(self) -> dict[str, float]:
        merged: defaultdict = defaultdict(float)
        with self._lock:
            for part in self._totals:
                for key, value in part.items():
                    merged[key] += value
        return dict(merged)

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = None if self._request is None else self._request.id
        request = None if self._request is None else self._request.request
        span = Span(next(self._ids), name, perf_counter(), parent=parent, request=request)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def begin_request(self, request_id: int, warnings: list) -> Span:
        self.warnings = warnings
        span = self.open(REQUEST)
        span.request = request_id
        self._request = span
        return span

    def end_request(self, span: Span) -> None:
        self.close(span)
        self._request = None

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
            handle.write(json.dumps({"counts": self.counts()}) + "\n")


# (module, attribute looked up by the caller, span name)
SPANNED = (
    ("homricci.cli", "builtin_space", "space_model.load"),
    ("homricci.cli", "load_space_spec", "space_model.load"),
    ("homricci.cli", "existence_check", "sigma_apical.check"),
    ("homricci.cli", "intermediate_subalgebras", "subalgebras.enumerate"),
    ("homricci.cli", "maximize_S_on_MT", "solver.solve"),
    ("homricci.cli", "verify_prescribed_ricci", "solver.verify"),
    ("homricci.cli", "scalar_curvature", "curvature.scalar"),
    ("homricci.sigma_apical", "intermediate_subalgebras", "subalgebras.enumerate"),
    ("homricci.sigma_apical", "maximal_within", "subalgebras.maximal_within"),
    ("homricci.sigma_apical", "maximize_hatS_on_slice", "solver.slice"),
    ("homricci.sigma_apical", "sigma_irreducible", "sigma_apical.closed_form"),
    ("homricci.solver", "slice_term_system", "curvature.compile"),
    ("homricci.solver", "ricci_coefficients", "curvature.ricci"),
)
SOLVER_CALLS = ("solver.slice", "solver.solve")
# a SigmaContext.sigma call with a child of these kinds computed its value;
# one without was served from the memo
SIGMA_WORK = ("solver.slice", "sigma_apical.closed_form")
CLOSURE_CALLERS = ("homricci.subalgebras", "homricci.sigma_apical")
EVALS = ("value_log", "gradient_log", "hessian_log")


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        seen = len(tracer.warnings)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        stack = tracer._stack()
        if name in SIGMA_WORK and stack:
            stack[-1].attrs["computed"] = True
        if name in SOLVER_CALLS:
            span.attrs["iterations"] = result.iterations
            span.attrs["outcome"] = (
                "converged" if result.converged else "escaped" if result.escaped else "stalled"
            )
            span.attrs["warnings"] = len(tracer.warnings) - seen
        return result

    return wrapper


def _counted(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.totals()["subalgebras.closure_tests"] += 1
        return fn(*args, **kwargs)

    return wrapper


def _timed_eval(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(system, w):
        start = perf_counter()
        result = fn(system, w)
        totals = tracer.totals()
        totals["curvature.eval_s"] += perf_counter() - start
        totals["curvature.evals"] += 1
        totals["curvature.terms"] += system.exponents.size
        return result

    return wrapper


def install(tracer: Tracer):
    """Patch the program and return a function that undoes every patch."""
    undo = []

    def patch(owner, attribute, replacement):
        undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    for module_name, attribute, name in SPANNED:
        module = importlib.import_module(module_name)
        patch(module, attribute, _spanned(tracer, name, getattr(module, attribute)))
    sigma_apical = importlib.import_module("homricci.sigma_apical")
    context = sigma_apical.SigmaContext
    patch(context, "sigma", _spanned(tracer, "sigma_apical.sigma", context.sigma))
    for module_name in CLOSURE_CALLERS:
        module = importlib.import_module(module_name)
        patch(module, "is_bracket_closed", _counted(tracer, module.is_bracket_closed))
    system = importlib.import_module("homricci.curvature").TermSystem
    for attribute in EVALS:
        patch(system, attribute, _timed_eval(tracer, getattr(system, attribute)))

    def uninstall():
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it its children cover.

    Children may overlap (sweep workers run side by side), so their
    intervals are clipped to the parent and merged before subtracting.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration - covered
    return out


def layer_metrics(tracer: Tracer, batches: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers per traced batch, plus ``cli.self_ms`` per request."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    own = self_times(tracer.spans)
    counts = tracer.counts()

    def calls(name):
        return len(by_name[name]) / batches

    def seconds(name):
        return sum(span.duration for span in by_name[name]) / batches

    requests = by_name[REQUEST]
    solver = by_name["solver.slice"] + by_name["solver.solve"]
    outcomes = defaultdict(int)
    for span in solver:
        outcomes[span.attrs["outcome"]] += 1
    iterations = sum(span.attrs["iterations"] for span in solver)
    sigma_calls = by_name["sigma_apical.sigma"]
    hits = sum(1 for span in sigma_calls if not span.attrs.get("computed"))
    sigma_self = sum(own[span.id] for span in tracer.spans if span.name.startswith("sigma_apical."))
    evals = counts.get("curvature.evals", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "cli.self_ms": (1000.0 * ratio(sum(own[span.id] for span in requests), len(requests)), "ms"),
        "space_model.load.calls": (calls("space_model.load"), "count"),
        "space_model.load_s": (seconds("space_model.load"), "s"),
        "subalgebras.enumerate.calls": (calls("subalgebras.enumerate"), "count"),
        "subalgebras.enumerate_s": (seconds("subalgebras.enumerate"), "s"),
        "subalgebras.closure_tests": (counts.get("subalgebras.closure_tests", 0.0) / batches, "count"),
        "subalgebras.maximal_within.calls": (calls("subalgebras.maximal_within"), "count"),
        "subalgebras.maximal_within_s": (seconds("subalgebras.maximal_within"), "s"),
        "curvature.compile.calls": (calls("curvature.compile"), "count"),
        "curvature.compile_s": (seconds("curvature.compile"), "s"),
        "curvature.evals": (evals / batches, "count"),
        "curvature.eval_s": (counts.get("curvature.eval_s", 0.0) / batches, "s"),
        "curvature.terms_per_eval": (ratio(counts.get("curvature.terms", 0.0), evals), "count"),
        "curvature.ricci_s": (seconds("curvature.ricci"), "s"),
        "solver.slice.calls": (calls("solver.slice"), "count"),
        "solver.slice_s": (seconds("solver.slice"), "s"),
        "solver.solve.calls": (calls("solver.solve"), "count"),
        "solver.solve_s": (seconds("solver.solve"), "s"),
        "solver.iterations": (iterations / batches, "count"),
        "solver.iterations_per_call": (ratio(iterations, len(solver)), "count"),
        "solver.converged": (outcomes["converged"] / batches, "count"),
        "solver.escaped": (outcomes["escaped"] / batches, "count"),
        "solver.stalled": (outcomes["stalled"] / batches, "count"),
        "solver.converged_ratio": (ratio(outcomes["converged"], len(solver)), "ratio"),
        "solver.verify_s": (seconds("solver.verify"), "s"),
        "solver.overflow_warnings": (sum(span.attrs["warnings"] for span in solver) / batches, "count"),
        "sigma_apical.check.calls": (calls("sigma_apical.check"), "count"),
        "sigma_apical.check_s": (seconds("sigma_apical.check"), "s"),
        "sigma_apical.self_s": (sigma_self / batches, "s"),
        "sigma_apical.sigma.calls": (calls("sigma_apical.sigma"), "count"),
        "sigma_apical.memo_hit_ratio": (ratio(hits, len(sigma_calls)), "ratio"),
    }
