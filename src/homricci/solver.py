"""Constrained maximization of the curvature functionals on trace slices.

The search space for a slice J is {y > 0 : sum_{i in J} d_i z_i / y_i = 1}.
Work happens in logarithmic coordinates w = log y, where the constraint can
be restored exactly after any step by the uniform shift w + log C(w), i.e.
the scaling y -> C(w) y.  Restarts start from a Halton grid over
log-coefficients in [-3, 3], so the whole procedure is deterministic for a
fixed seed.

All restarts of a slice advance together as the rows of one (R, k) array.
Each iteration takes a modified-Newton ascent step from the first
iteration on: the Lagrangian Hessian is reduced to the tangent space of the
constraint, its eigenvalues are mirrored to negative values with a floor
relative to the largest, the step is capped in length, and every row
backtracks on its own Armijo test.  A row that finishes stays frozen in the
array, so its arithmetic never depends on when the others finished.

A run that drives the coordinate spread past the escape ratio is classified
as divergence to the slice boundary and reported as non-attainment evidence
rather than a maximum.  The spread check runs before the convergence check:
along an escaping path the objective flattens, so a small gradient there
must not be mistaken for an interior stationary point.  Every restart ends
converged, escaped, out of budget or stalled in the line search, and the
report counts each outcome.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    _resolve_indices,
    metric_trace_of_T,
    ricci_coefficients,
    scalar_curvature,
    slice_term_system,
)
from .space_model import HomogeneousSpaceSpec, coefficients_array
from .subalgebras import check_summand_count

__all__ = [
    "SolverError",
    "SolverOptions",
    "OptimizationReport",
    "RestartOutcomes",
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
NEWTON_GATE = 1e-3             # below this a full step may also pass on gradient decrease
MAX_LOG_STEP = 2.0             # longest step in log-coordinates
EIGEN_FLOOR = 1e-13            # |eigenvalue| floor, relative to the largest of the row
ARMIJO = 1e-4                  # sufficient-increase constant of the line search
VALUE_TIE = 1e-9               # near-optimal stationary points kept within this
_TINY = np.finfo(float).tiny

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
class RestartOutcomes:
    """How many restarts ended each way.

    A restart escapes (coordinate spread past ESCAPE_RATIO) or else
    converges (projected gradient below GRADIENT_TOLERANCE where it
    stopped); one that does neither ran out of its iteration budget, or
    stalled: the line search found no acceptable step, or the accepted
    step was shorter than STEP_TOLERANCE.
    """

    converged: int = 0
    escaped: int = 0
    out_of_budget: int = 0
    stalled: int = 0

    @property
    def total(self) -> int:
        return self.converged + self.escaped + self.out_of_budget + self.stalled

    def describe(self, max_iterations: int) -> str:
        """One clause per nonzero count, e.g. '4/16 restarts escaped ...'."""
        phrases = {
            "converged": "converged",
            "escaped": "escaped toward the slice boundary",
            "out_of_budget": f"ran out of the {max_iterations}-iteration budget",
            "stalled": "stalled in the line search",
        }
        return "; ".join(
            f"{getattr(self, name)}/{self.total} restarts {phrase}"
            for name, phrase in phrases.items() if getattr(self, name)
        )


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of a multistart maximization.

    ``converged`` means some restart reached an interior stationary point;
    ``argmax``/``value`` then describe the best one.  Otherwise they hold the
    best iterate seen, which only bounds the supremum from below.  Distinct
    stationary points whose values tie the best within 1e-9 are listed in
    ``stationary_points``.  ``outcomes`` counts how each restart ended and
    ``diagnostics`` names every nonzero count.
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
    outcomes: RestartOutcomes = RestartOutcomes()
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


def project_slice_coefficients(spec: HomogeneousSpaceSpec, indices, z, y) -> tuple[float, ...]:
    """Scale y onto the unit-trace slice: y -> lambda y with
    lambda = sum d_i z_i / y_i.  Exact and idempotent up to rounding."""
    resolved = _resolve_indices(spec, indices)
    ys = coefficients_array(y, len(resolved), "y")
    zs = coefficients_array(z, spec.s, "z")
    lam = sum(spec.d[i - 1] * zs[i - 1] / ys[p] for p, i in enumerate(resolved))
    return tuple(lam * v for v in ys)


def _row_norms(X: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", X, X))


class _SliceProblem:
    """hatS and the trace constraint on one slice, in log-coordinates.

    Every method takes an (R, k) array with one point per row.  The
    constraint is h(w) = sum cz e^-w = 1, with gradient -cz e^-w and Hessian
    diag(cz e^-w); ``normal`` below is cz e^-w.
    """

    def __init__(self, spec: HomogeneousSpaceSpec, indices: tuple[int, ...], z: tuple[float, ...]):
        self.system = slice_term_system(spec, indices)
        self.cz = np.array([spec.d[i - 1] * z[i - 1] for i in indices])
        self.log_cz = np.log(self.cz)
        self.k = len(indices)
        self._tangent_axes = np.eye(self.k)[:, : self.k - 1]

    def project(self, W: np.ndarray) -> np.ndarray:
        # log of the constraint value, computed stably
        shifted = self.log_cz - W
        peak = shifted.max(axis=1, keepdims=True)
        return W + peak + np.log(np.exp(shifted - peak).sum(axis=1, keepdims=True))

    def evaluate(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values, gradients and term weights at each row."""
        weights = self.system.log_weights(W)
        return weights.sum(axis=1), weights @ self.system.exponents, weights

    def tangent(self, W: np.ndarray, G: np.ndarray):
        """Projected gradient, unit normal and normal length of each row."""
        normal = self.cz * np.exp(-W)
        size = _row_norms(normal)
        u = normal / size[:, None]
        return G - np.einsum("ij,ij->i", G, u)[:, None] * u, u, size

    def ascent_direction(self, G, gp, u, size, weights, active) -> np.ndarray:
        """Modified-Newton ascent step on the tangent space of each row.

        The Lagrangian Hessian is reduced to the tangent space through a
        Householder basis, and its eigenvalues are mirrored to
        -max(|mu|, EIGEN_FLOOR * max|mu|), which makes the Newton step an
        ascent direction that stays second order near a maximum.  The floor
        is relative: along an escape curve the decisive eigenvalue can be
        as small as 3e-10, and an absolute floor above it (1e-8, say) cuts
        the escaping step to a crawl.  The step is capped at MAX_LOG_STEP.  Rows whose
        reduced Hessian is not finite take the projected gradient; inactive
        rows get a step that is never used.
        """
        E = self.system.exponents
        # Lagrangian Hessian hess f - lam diag(normal), lam being the
        # least-squares multiplier of G = lam * grad h = -lam * normal
        lam = -np.einsum("ij,ij->i", G, u) / size
        hessian = np.matmul(E.T, weights[:, :, None] * E)
        diagonal = np.arange(self.k)
        hessian[:, diagonal, diagonal] -= lam[:, None] * size[:, None] * u
        # Householder reflection taking u to minus the last axis; its first
        # k - 1 columns are an orthonormal basis of the tangent space
        v = u.copy()
        v[:, -1] += 1.0
        basis = self._tangent_axes - (
            (2.0 / np.einsum("ij,ij->i", v, v))[:, None, None] * v[:, :, None] * v[:, None, : self.k - 1])
        reduced = np.matmul(basis.transpose(0, 2, 1), np.matmul(hessian, basis))
        # -I makes the step below the projected gradient
        reduced[~(active & np.isfinite(reduced).all(axis=(1, 2)))] = -np.eye(self.k - 1)
        mu, vectors = np.linalg.eigh(reduced)
        magnitude = np.abs(mu)
        curvature = np.maximum(magnitude, EIGEN_FLOOR * magnitude.max(axis=1, keepdims=True))
        axes = np.matmul(basis, vectors)
        coordinates = np.einsum("rk,rkj->rj", G, axes) / np.maximum(curvature, _TINY)
        D = np.einsum("rkj,rj->rk", axes, coordinates)
        fallback = active & ~np.isfinite(D).all(axis=1)
        D[fallback] = gp[fallback]
        return D * np.minimum(1.0, MAX_LOG_STEP / np.maximum(_row_norms(D), _TINY))[:, None]


@dataclass
class _RestartResult:
    w: np.ndarray
    value: float
    residual: float
    iterations: int
    outcome: str                      # a field name of RestartOutcomes

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"

    @property
    def escaped(self) -> bool:
        return self.outcome == "escaped"


def _line_search(problem: _SliceProblem, W, F, G, weights, D, residual, pending):
    """Backtrack every pending row on its own Armijo test.

    Returns the new (W, F, G, weights), the rows that moved, and the rows
    whose trial step fell below STEP_TOLERANCE without being accepted.  A
    trial whose value is not finite is rejected like any other.  The first
    trial is the capped full step; below NEWTON_GATE it is also accepted
    when it lowers the projected-gradient norm, because near the maximum f
    stops changing at rounding level and Armijo alone would stall there.
    """
    W, F, G, weights = W.copy(), F.copy(), G.copy(), weights.copy()
    slope = np.einsum("ij,ij->i", G, D)
    length = _row_norms(D)
    alpha = np.ones(len(W))
    moved = np.zeros(len(W), dtype=bool)
    exhausted = np.zeros(len(W), dtype=bool)
    first = True
    while pending.any():
        W_try = problem.project(W + alpha[:, None] * D)
        F_try, G_try, weights_try = problem.evaluate(W_try)
        finite = pending & np.isfinite(F_try)
        accept = finite & (F_try >= F + ARMIJO * alpha * slope)
        if first:
            first = False
            gated = finite & (residual < NEWTON_GATE)
            if gated.any():
                gp_try = problem.tangent(W_try, G_try)[0]
                accept |= gated & (_row_norms(gp_try) < 0.9 * residual)
        W[accept], F[accept], G[accept], weights[accept] = (
            W_try[accept], F_try[accept], G_try[accept], weights_try[accept])
        moved |= accept
        pending = pending & ~accept
        alpha[pending] *= 0.5
        stop = pending & (alpha * length < STEP_TOLERANCE)
        exhausted |= stop
        pending &= ~stop
    return W, F, G, weights, moved, exhausted


def _run_restarts(problem: _SliceProblem, W0: np.ndarray, max_iterations: int) -> list[_RestartResult]:
    """Advance every restart together, one row of an (R, k) array each.

    A row that finishes stays frozen in place, so the arrays keep their
    shape and a row's arithmetic never depends on when the others finished.
    Trial points far out on an escape path may overflow; those values are
    rejected by the line search, so the warnings are silenced here.
    """
    log_escape = math.log(ESCAPE_RATIO)
    R = len(W0)
    with np.errstate(over="ignore", invalid="ignore"):
        W = problem.project(W0)
        F, G, weights = problem.evaluate(W)
        if not np.isfinite(F).all():
            raise SolverError("objective overflowed at a projected start point")
        active = np.ones(R, dtype=bool)
        escaped = np.zeros(R, dtype=bool)
        stalled = np.zeros(R, dtype=bool)
        iterations = np.full(R, max_iterations)

        for iteration in range(1, max_iterations + 1):
            finished = active & (W.max(axis=1) - W.min(axis=1) > log_escape)
            escaped |= finished
            gp, u, size = problem.tangent(W, G)
            residual = _row_norms(gp)
            finished |= active & (residual < INNER_GRADIENT_TARGET)
            iterations[finished] = iteration
            active &= ~finished
            if not active.any():
                break
            D = problem.ascent_direction(G, gp, u, size, weights, active)
            W_new, F, G, weights, moved, exhausted = _line_search(
                problem, W, F, G, weights, D, residual, active)
            finished = exhausted | (moved & (_row_norms(W_new - W) < STEP_TOLERANCE))
            W = W_new
            stalled |= finished
            iterations[finished] = iteration
            active &= ~finished

        residual = _row_norms(problem.tangent(W, G)[0])
    results = []
    for r in range(R):
        if escaped[r]:
            outcome = "escaped"
        elif residual[r] < GRADIENT_TOLERANCE:
            outcome = "converged"
        elif stalled[r]:
            outcome = "stalled"
        else:
            outcome = "out_of_budget"
        results.append(_RestartResult(w=W[r], value=float(F[r]), residual=float(residual[r]),
                                      iterations=int(iterations[r]), outcome=outcome))
    return results


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
    primes = _HALTON_PRIMES[: problem.k]

    starts = np.array([
        [_halton(options.seed * options.restarts + r + 1, p) for p in primes]
        for r in range(options.restarts)
    ])
    results = _run_restarts(problem, options.start_box * (2.0 * starts - 1.0), options.max_iterations)
    total_iterations = sum(r.iterations for r in results)
    outcomes = RestartOutcomes(**Counter(r.outcome for r in results))
    diagnostics = outcomes.describe(options.max_iterations)

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
            outcomes=outcomes,
            diagnostics=diagnostics,
        )

    # no restart found an interior stationary point
    best = max(results, key=lambda r: r.value)
    escaped_any = outcomes.escaped > 0
    direction = None
    if escaped_any:
        best_escape = max((r for r in results if r.escaped), key=lambda r: r.value)
        centred = best_escape.w - best_escape.w.mean()
        direction = tuple(float(v) for v in centred / np.linalg.norm(centred))
    return OptimizationReport(
        argmax=tuple(float(v) for v in np.exp(best.w)),
        value=best.value,
        iterations=total_iterations,
        restarts_used=options.restarts,
        converged=False,
        first_order_residual=min(r.residual for r in results if not r.escaped)
        if outcomes.escaped < len(results) else math.inf,
        escaped=escaped_any,
        escape_direction=direction,
        outcomes=outcomes,
        diagnostics=diagnostics,
    )


def maximize_hatS_on_slice(spec: HomogeneousSpaceSpec, J, z,
                           options: SolverOptions | None = None) -> OptimizationReport:
    """Maximize hatS over the unit-trace slice of the subalgebra J.

    Requires at least two summands in J; a single summand makes the slice one
    exactly determined point and needs no search.
    """
    indices = _resolve_indices(spec, J)
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
    indices = _resolve_indices(spec, J)
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
