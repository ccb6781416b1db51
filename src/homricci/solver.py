"""Constrained maximization of the curvature functionals on trace slices.

The search space for a slice J is {y > 0 : sum_{i in J} d_i z_i / y_i = 1}.
Work happens in logarithmic coordinates w = log y, where the constraint can
be restored exactly after any step by the uniform shift w + log C(w), i.e.
the scaling y -> C(w) y.  Each restart runs projected ascent with a
backtracking line search, switching to an equality-constrained Newton step
once the projected gradient is small; restarts start from a Halton grid over
log-coefficients in [-3, 3] so the whole procedure is deterministic for a
fixed seed and independent of evaluation order.

A run that drives the coordinate spread past the escape ratio is classified
as divergence to the slice boundary and reported as non-attainment evidence
rather than a maximum.  The spread check runs before the convergence check:
along an escaping path the objective flattens, so a small gradient there
must not be mistaken for an interior stationary point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    metric_trace_of_T,
    ricci_coefficients,
    scalar_curvature,
    slice_term_system,
)
from .space_model import (
    HomogeneousSpaceSpec,
    SubalgebraIndexSet,
    coefficients_array,
)
from .subalgebras import check_summand_count

__all__ = [
    "SolverError",
    "SolverOptions",
    "OptimizationReport",
    "VerificationResult",
    "project_slice_coefficients",
    "maximize_hatS_on_slice",
    "maximize_S_on_MT",
    "verify_prescribed_ricci",
    "escape_curve_S",
]

GRADIENT_TOLERANCE = 1e-9      # reported convergence threshold
INNER_GRADIENT_TARGET = 1e-12  # iteration keeps polishing down to this
STEP_TOLERANCE = 1e-12
ESCAPE_RATIO = 1e8             # max/min coordinate ratio marking boundary escape
NEWTON_GATE = 1e-3
VALUE_TIE = 1e-9               # near-optimal stationary points kept within this

# one prime per slice coordinate, up to MAX_EXHAUSTIVE_SUMMANDS
_HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


class SolverError(RuntimeError):
    """Numerical failure that must not pass silently."""


@dataclass(frozen=True)
class SolverOptions:
    seed: int = 0
    restarts: int = 16
    max_iterations: int = 10_000
    start_box: float = 3.0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of a multistart maximization.

    ``converged`` means some restart reached an interior stationary point;
    ``argmax``/``value`` then describe the best one.  Otherwise they hold the
    best iterate seen, which only bounds the supremum from below.  Distinct
    stationary points whose values tie the best within 1e-9 are listed in
    ``stationary_points``.
    """

    argmax: tuple[float, ...]
    value: float
    iterations: int
    restarts_used: int
    converged: bool
    first_order_residual: float
    escaped: bool = False
    escape_direction: tuple[float, ...] | None = None
    stationary_points: tuple[tuple[float, ...], ...] = field(default=())
    diagnostics: str = ""


@dataclass(frozen=True)
class VerificationResult:
    """Fit of the Ricci coefficients against c times the prescribed tensor."""

    c: float
    residual: float
    positive: bool

    @property
    def verified(self) -> bool:
        return self.residual < 1e-8


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def _resolve_slice(spec: HomogeneousSpaceSpec, indices) -> tuple[int, ...]:
    if isinstance(indices, SubalgebraIndexSet):
        out = indices.sorted
    else:
        out = tuple(sorted(set(int(i) for i in indices)))
    for i in out:
        if not 1 <= i <= spec.s:
            raise ValueError(f"index {i} out of range 1..{spec.s}")
    return out


def project_slice_coefficients(spec: HomogeneousSpaceSpec, indices, z, y) -> tuple[float, ...]:
    """Scale y onto the unit-trace slice: y -> lambda y with
    lambda = sum d_i z_i / y_i.  Exact and idempotent up to rounding."""
    resolved = _resolve_slice(spec, indices)
    ys = coefficients_array(y, len(resolved), "y")
    zs = coefficients_array(z, spec.s, "z")
    lam = sum(spec.d[i - 1] * zs[i - 1] / ys[p] for p, i in enumerate(resolved))
    return tuple(lam * v for v in ys)


class _SliceProblem:
    """hatS and the trace constraint on one slice, in log-coordinates."""

    def __init__(self, spec: HomogeneousSpaceSpec, indices: tuple[int, ...], z: tuple[float, ...]):
        self.system = slice_term_system(spec, indices)
        self.cz = np.array([spec.d[i - 1] * z[i - 1] for i in indices])
        self.log_cz = np.log(self.cz)
        self.k = len(indices)

    def project(self, w: np.ndarray) -> np.ndarray:
        # log of the constraint value, computed stably
        shifted = self.log_cz - w
        peak = shifted.max()
        log_c = peak + math.log(np.exp(shifted - peak).sum())
        return w + log_c

    def value(self, w: np.ndarray) -> float:
        return self.system.value_log(w)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return self.system.gradient_log(w)

    def constraint_normal(self, w: np.ndarray) -> np.ndarray:
        return -self.cz * np.exp(-w)

    def projected_gradient(self, w: np.ndarray, g: np.ndarray) -> np.ndarray:
        n = self.constraint_normal(w)
        return g - (g @ n) / (n @ n) * n

    def newton_step(self, w: np.ndarray, g: np.ndarray) -> np.ndarray | None:
        n = self.constraint_normal(w)
        lam = (g @ n) / (n @ n)
        hess = self.system.hessian_log(w) - lam * np.diag(self.cz * np.exp(-w))
        kkt = np.zeros((self.k + 1, self.k + 1))
        kkt[: self.k, : self.k] = hess
        kkt[: self.k, self.k] = -n
        kkt[self.k, : self.k] = n
        rhs = np.zeros(self.k + 1)
        rhs[: self.k] = -(g - lam * n)
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        step = sol[: self.k]
        if not np.all(np.isfinite(step)):
            return None
        return step


@dataclass
class _RestartResult:
    w: np.ndarray
    value: float
    residual: float
    iterations: int
    converged: bool
    escaped: bool


def _run_restart(problem: _SliceProblem, w0: np.ndarray, max_iterations: int) -> _RestartResult:
    log_escape = math.log(ESCAPE_RATIO)
    w = problem.project(w0)
    f = problem.value(w)
    if not math.isfinite(f):
        raise SolverError("objective overflowed at a projected start point")
    g = problem.gradient(w)
    alpha = 1.0
    residual = math.inf
    escaped = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        if w.max() - w.min() > log_escape:
            escaped = True
            break
        gp = problem.projected_gradient(w, g)
        residual = float(np.linalg.norm(gp))
        if residual < INNER_GRADIENT_TARGET:
            break

        moved = False
        if residual < NEWTON_GATE:
            step = problem.newton_step(w, g)
            if step is not None:
                w_try = problem.project(w + step)
                f_try = problem.value(w_try)
                if math.isfinite(f_try):
                    g_try = problem.gradient(w_try)
                    gp_try = problem.projected_gradient(w_try, g_try)
                    if np.linalg.norm(gp_try) < 0.9 * residual:
                        w, f, g = w_try, f_try, g_try
                        moved = True
        if not moved:
            gp_sq = residual * residual
            step_alpha = alpha
            while step_alpha > 1e-18:
                w_try = problem.project(w + step_alpha * gp)
                f_try = problem.value(w_try)
                if math.isfinite(f_try) and f_try >= f + 1e-4 * step_alpha * gp_sq:
                    break
                step_alpha *= 0.5
            else:
                break  # line search exhausted; residual stands as reported
            if float(np.linalg.norm(w_try - w)) < STEP_TOLERANCE:
                w, f = w_try, f_try
                g = problem.gradient(w)
                break
            w, f = w_try, f_try
            g = problem.gradient(w)
            alpha = min(step_alpha * 2.0, 4.0)

    if not escaped:
        gp = problem.projected_gradient(w, problem.gradient(w))
        residual = float(np.linalg.norm(gp))
    converged = (not escaped) and residual < GRADIENT_TOLERANCE
    return _RestartResult(w=w, value=f, residual=residual, iterations=iterations,
                          converged=converged, escaped=escaped)


def _distinct(points: list[tuple[float, ...]], candidate: tuple[float, ...]) -> bool:
    for point in points:
        scale = max(1.0, max(abs(v) for v in point))
        if max(abs(a - b) for a, b in zip(point, candidate)) < 1e-6 * scale:
            return False
    return True


def _maximize(spec: HomogeneousSpaceSpec, indices: tuple[int, ...], z, options: SolverOptions) -> OptimizationReport:
    check_summand_count(len(indices))
    zs = coefficients_array(z, spec.s, "z")
    problem = _SliceProblem(spec, indices, zs)
    k = problem.k
    primes = _HALTON_PRIMES[:k]

    results: list[_RestartResult] = []
    total_iterations = 0
    for r in range(options.restarts):
        start_index = options.seed * options.restarts + r + 1
        u = np.array([_halton(start_index, p) for p in primes])
        w0 = options.start_box * (2.0 * u - 1.0)
        result = _run_restart(problem, w0, options.max_iterations)
        results.append(result)
        total_iterations += result.iterations

    converged = [r for r in results if r.converged]
    if converged:
        def key(r: _RestartResult):
            return (-r.value, tuple(np.exp(r.w)))
        best = min(converged, key=key)
        best_y = tuple(float(v) for v in np.exp(best.w))
        near_optimal: list[tuple[float, ...]] = []
        for r in sorted(converged, key=key):
            if r.value >= best.value - VALUE_TIE * max(1.0, abs(best.value)):
                y = tuple(float(v) for v in np.exp(r.w))
                if _distinct(near_optimal, y):
                    near_optimal.append(y)
        return OptimizationReport(
            argmax=best_y,
            value=best.value,
            iterations=total_iterations,
            restarts_used=options.restarts,
            converged=True,
            first_order_residual=best.residual,
            escaped=False,
            stationary_points=tuple(near_optimal),
        )

    # no restart found an interior stationary point
    best = max(results, key=lambda r: r.value)
    escaped_any = any(r.escaped for r in results)
    direction = None
    if escaped_any:
        best_escape = max((r for r in results if r.escaped), key=lambda r: r.value)
        centred = best_escape.w - best_escape.w.mean()
        direction = tuple(float(v) for v in centred / np.linalg.norm(centred))
    n_escaped = sum(1 for r in results if r.escaped)
    diagnostics = (
        f"{n_escaped}/{len(results)} restarts escaped toward the slice boundary"
        if escaped_any
        else "all restarts stalled before reaching the gradient tolerance"
    )
    return OptimizationReport(
        argmax=tuple(float(v) for v in np.exp(best.w)),
        value=best.value,
        iterations=total_iterations,
        restarts_used=options.restarts,
        converged=False,
        first_order_residual=min(r.residual for r in results if not r.escaped)
        if n_escaped < len(results) else math.inf,
        escaped=escaped_any,
        escape_direction=direction,
        diagnostics=diagnostics,
    )


def maximize_hatS_on_slice(spec: HomogeneousSpaceSpec, J, z,
                           options: SolverOptions | None = None) -> OptimizationReport:
    """Maximize hatS over the unit-trace slice of the subalgebra J.

    Requires at least two summands in J; a single summand makes the slice one
    exactly determined point and needs no search.
    """
    indices = _resolve_slice(spec, J)
    if len(indices) < 2:
        raise ValueError("slice maximization needs at least two summands in J")
    return _maximize(spec, indices, z, options or SolverOptions())


def maximize_S_on_MT(spec: HomogeneousSpaceSpec, z,
                     options: SolverOptions | None = None) -> OptimizationReport:
    """Maximize the scalar curvature over all metrics with unit tensor trace."""
    zs = coefficients_array(z, spec.s, "z")
    if spec.s == 1:
        y = (spec.d[0] * zs[0],)
        return OptimizationReport(
            argmax=y,
            value=scalar_curvature(spec, y),
            iterations=0,
            restarts_used=0,
            converged=True,
            first_order_residual=0.0,
        )
    return _maximize(spec, tuple(spec.summand_indices()), zs, options or SolverOptions())


def verify_prescribed_ricci(spec: HomogeneousSpaceSpec, x, z) -> VerificationResult:
    """Best proportionality constant c with Ric = c T and the residual of the fit.

    c minimises sum_i d_i (R_i - c z_i)^2 / x_i^2, which weighs components by
    the natural inner product and keeps the estimate insensitive to rounding
    in any single coordinate.
    """
    xs = coefficients_array(x, spec.s, "x")
    zs = coefficients_array(z, spec.s, "z")
    ricci = ricci_coefficients(spec, xs)
    numerator = sum(spec.d[i] * ricci.R[i] * zs[i] / (xs[i] * xs[i]) for i in range(spec.s))
    denominator = sum(spec.d[i] * zs[i] * zs[i] / (xs[i] * xs[i]) for i in range(spec.s))
    c = numerator / denominator
    residual = max(
        abs(ricci.R[i] - c * zs[i]) / max(1.0, abs(c * zs[i])) for i in range(spec.s)
    )
    return VerificationResult(c=float(c), residual=float(residual), positive=c > 0)


def escape_curve_S(spec: HomogeneousSpaceSpec, J, y, z, t: float) -> float:
    """Scalar curvature along the curve that blows up the complement of J.

    The curve keeps the metric on the slice proportional to y (rescaled by
    phi(t) = t / (t - tr), tr being the tensor trace over the complement) and
    sets every complement coefficient to t, staying on the unit-trace slice
    for every admissible t.  As t grows the value approaches hatS(y).
    """
    indices = _resolve_slice(spec, J)
    zs = coefficients_array(z, spec.s, "z")
    complement = [i for i in spec.summand_indices() if i not in set(indices)]
    tr = sum(spec.d[i - 1] * zs[i - 1] for i in complement)
    if not t > tr:
        raise ValueError(f"t must exceed the pole at {tr}, got {t}")

    ys = coefficients_array(y, len(indices), "y")
    slice_trace = sum(spec.d[i - 1] * zs[i - 1] / ys[p] for p, i in enumerate(indices))
    if abs(slice_trace - 1.0) > 1e-8:
        raise ValueError(f"y is not on the unit-trace slice (trace = {slice_trace})")
    ys = project_slice_coefficients(spec, indices, zs, ys)

    phi = t / (t - tr)
    x_full = [0.0] * spec.s
    for p, i in enumerate(indices):
        x_full[i - 1] = phi * ys[p]
    for i in complement:
        x_full[i - 1] = t
    full_trace = metric_trace_of_T(spec, None, x_full, zs)
    if abs(full_trace - 1.0) > 1e-12:
        raise SolverError(f"curve left the unit-trace slice (trace = {full_trace})")
    return scalar_curvature(spec, x_full)
