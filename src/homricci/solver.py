"""Constrained maximization of the curvature functionals on trace slices.

The search space for a slice J is {y > 0 : sum_{i in J} d_i z_i / y_i = 1}.
Work happens in logarithmic coordinates w = log y, where the constraint can
be restored exactly after any step by the uniform shift w + log C(w), i.e.
the scaling y -> C(w) y.  Restarts start from a Halton grid over
log-coefficients in [-3, 3], so the whole procedure is deterministic for a
fixed seed.

All restarts of all slices of one dimension k advance together as the
rows of one (n R, k) array, R rows per slice, and each slice may be taken
for its own tensor.  Each iteration takes a modified-Newton ascent step
from the first iteration on: the Lagrangian Hessian is reduced to the
tangent space of the constraint, its eigenvalues are mirrored to negative
values with a floor relative to the largest, the step is capped in length,
and in the same pass every row backtracks on its own Armijo test; when every
row takes its full step, as most passes do, the pass backtracks nowhere.
A row that finishes stays frozen in the array, so its arithmetic never
depends on when the others finished.  A slice's report does not depend on
its group either: each slice keeps its own terms, padded at the end with
terms of weight exactly zero, and its value is summed in term order, so
the padding only adds exact zeros after the slice's own terms.

A run that drives the coordinate spread past the escape ratio is classified
as divergence to the slice boundary and reported as non-attainment evidence
rather than a maximum.  The spread check runs before the convergence check:
along an escaping path the objective flattens, so a small gradient there
must not be mistaken for an interior stationary point.  Every restart ends
converged, escaped, out of budget or stalled in the line search, and the
report counts each outcome; a restart still running when its budget ends is
out of budget even if its gradient is already small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    TermSystem,
    metric_trace_of_T,
    ricci_coefficients,
    scalar_curvature,
    slice_term_system,
)
from .space_model import HomogeneousSpaceSpec, coefficients_array, resolve_indices
from .subalgebras import check_summand_count

__all__ = [
    "SolverError",
    "SolverOptions",
    "OptimizationReport",
    "RestartOutcomes",
    "VerificationResult",
    "project_slice_coefficients",
    "maximize_hatS_on_slice",
    "maximize_hatS_on_slices",
    "maximize_S_on_MT",
    "verify_prescribed_ricci",
    "polish_prescribed_ricci",
    "fit_prescribed_ricci",
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
MAX_BATCH_ENTRIES = 1 << 20    # rows x terms x k of one batch, bounding its work arrays
POLISH_STEPS = 3               # Newton steps on Ric = c T after a fit that misses
START_BOX = 3.0                # restarts start in [-START_BOX, START_BOX]^k in w = log y
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

    def __post_init__(self):
        # the restart grid starts at Halton index seed * restarts + 1, and
        # every index below 1 is the same corner
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    lam = metric_trace_of_T(spec, indices, y, z)
    return tuple(lam * float(v) for v in y)


def _row_norms(X: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", X, X))


class _SliceProblem:
    """hatS and the trace constraint on n slices of equal dimension k, in
    log-coordinates.

    Every method takes an (n * R, k) array with one point per row, slice by
    slice: rows j * R to (j + 1) * R - 1 belong to slice j.  Each slice keeps
    its own tensor zs[j] and its own terms, its coefficients padded with
    zeros to the longest term list, so a padded term weighs exactly zero.
    The constraint of a row is h(w) = sum cz e^-w = 1, with gradient
    -cz e^-w and Hessian diag(cz e^-w); ``normal`` below is cz e^-w.
    """

    def __init__(self, spec: HomogeneousSpaceSpec, systems: list[TermSystem],
                 zs: list[tuple[float, ...]], restarts: int):
        self.k = systems[0].dimension
        m = max(len(system.coefficients) for system in systems)
        self.coefficients = np.zeros((len(systems), 1, m))
        self.exponents = np.zeros((len(systems), m, self.k))
        for j, system in enumerate(systems):
            self.coefficients[j, 0, : len(system.coefficients)] = system.coefficients
            self.exponents[j, : len(system.coefficients)] = system.exponents
        self._exponents_T = self.exponents.transpose(0, 2, 1)
        self.cz = np.repeat([[spec.d[i - 1] * z[i - 1] for i in system.indices]
                             for system, z in zip(systems, zs)], restarts, axis=0)
        self.log_cz = np.log(self.cz)
        self._tangent_axes = np.eye(self.k)[:, : self.k - 1]

    def _by_slice(self, X: np.ndarray) -> np.ndarray:
        return X.reshape(len(self.exponents), -1, X.shape[-1])

    def project(self, W: np.ndarray) -> np.ndarray:
        # log of the constraint value, computed stably
        shifted = self.log_cz - W
        peak = shifted.max(axis=1, keepdims=True)
        return W + peak + np.log(np.exp(shifted - peak).sum(axis=1, keepdims=True))

    def evaluate(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values, gradients and term weights c * exp(e . w) at each row.

        The value is a running sum in term order, which the zero padding
        at the end leaves exact; a pairwise sum would regroup the terms by
        the padded length.
        """
        weights = self.coefficients * np.exp(np.matmul(self._by_slice(W), self._exponents_T))
        gradients = np.matmul(weights, self.exponents).reshape(W.shape)
        weights = weights.reshape(len(W), -1)
        return np.cumsum(weights, axis=1)[:, -1], gradients, weights

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
        # Lagrangian Hessian hess f - lam diag(normal), lam being the
        # least-squares multiplier of G = lam * grad h = -lam * normal
        lam = -np.einsum("ij,ij->i", G, u) / size
        weighted = self._by_slice(weights)[:, :, :, None] * self.exponents[:, None]
        hessian = np.matmul(self._exponents_T[:, None], weighted).reshape(-1, self.k * self.k)
        hessian[:, :: self.k + 1] -= lam[:, None] * size[:, None] * u
        hessian = hessian.reshape(-1, self.k, self.k)
        # Householder reflection taking u to minus the last axis; its first
        # k - 1 columns are an orthonormal basis of the tangent space
        v = u.copy()
        v[:, -1] += 1.0
        basis = self._tangent_axes - (
            (2.0 / np.einsum("ij,ij->i", v, v))[:, None, None] * v[:, :, None] * v[:, None, : self.k - 1])
        reduced = np.matmul(basis.transpose(0, 2, 1), np.matmul(hessian, basis))
        # -I makes the step below the projected gradient
        unusable = ~(active & np.isfinite(reduced).all(axis=(1, 2)))
        if unusable.any():
            reduced[unusable] = -np.eye(self.k - 1)
        mu, vectors = np.linalg.eigh(reduced)
        magnitude = np.abs(mu)
        curvature = np.maximum(magnitude, EIGEN_FLOOR * magnitude.max(axis=1, keepdims=True))
        axes = np.matmul(basis, vectors)
        coordinates = np.einsum("rk,rkj->rj", G, axes) / np.maximum(curvature, _TINY)
        D = np.einsum("rkj,rj->rk", axes, coordinates)
        fallback = active & ~np.isfinite(D).all(axis=1)
        if fallback.any():
            D[fallback] = gp[fallback]
        return D * np.minimum(1.0, MAX_LOG_STEP / np.maximum(_row_norms(D), _TINY))[:, None]


def _run_restarts(problem: _SliceProblem, W0: np.ndarray, max_iterations: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance every restart of every slice together, one row each, and
    return, row by row, the final point W, its value F, its projected-gradient
    norm, the iterations it ran and its outcome code: the position of the
    outcome's field in :class:`RestartOutcomes` (0 converged, 1 escaped,
    2 out of budget, 3 stalled).

    Each pass takes one ascent step on every active row, and the row
    backtracks on its own Armijo test.  A trial whose value is not finite is
    rejected like any other.  The first trial is the capped full step; below
    NEWTON_GATE it is also accepted when it lowers the projected-gradient
    norm, because near the maximum f stops changing at rounding level and
    Armijo alone would stall there.  A row stops when its trial step falls
    below STEP_TOLERANCE unaccepted, or its accepted step is that short.

    A row that finishes stays frozen in place, so the arrays keep their
    shape and a row's arithmetic never depends on when the others finished.
    Trial points far out on an escape path may overflow; those values are
    rejected by the line search, so the warnings are silenced here.  The
    escape test runs once more after the last pass; a row still active then
    ran out of its budget, whatever its gradient, because an escaping row's
    gradient flattens before its spread reaches the escape ratio.
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
        iterations = np.full(R, max_iterations)

        for iteration in range(1, max_iterations + 1):
            finished = active & (np.ptp(W, axis=1) > log_escape)
            escaped |= finished
            gp, u, size = problem.tangent(W, G)
            residual = _row_norms(gp)
            finished |= active & (residual < INNER_GRADIENT_TARGET)
            iterations[finished] = iteration
            active &= ~finished
            if not active.any():
                break
            D = problem.ascent_direction(G, gp, u, size, weights, active)
            slope, length = np.einsum("ij,ij->i", G, D), _row_norms(D)
            start, alpha, pending, first = W, np.ones(R), active, True
            moved, exhausted = np.zeros(R, dtype=bool), np.zeros(R, dtype=bool)
            while pending.any():
                W_try = problem.project(start + alpha[:, None] * D)
                F_try, G_try, weights_try = problem.evaluate(W_try)
                finite = pending & np.isfinite(F_try)
                accept = finite & (F_try >= F + ARMIJO * alpha * slope)
                if first:
                    first = False
                    gated = finite & (residual < NEWTON_GATE)
                    if gated.any():
                        accept |= gated & (_row_norms(problem.tangent(W_try, G_try)[0]) < 0.9 * residual)
                rows = accept[:, None]
                W, F = np.where(rows, W_try, W), np.where(accept, F_try, F)
                G, weights = np.where(rows, G_try, G), np.where(rows, weights_try, weights)
                moved |= accept
                pending = pending & ~accept
                alpha[pending] *= 0.5
                stop = pending & (alpha * length < STEP_TOLERANCE)
                exhausted |= stop
                pending &= ~stop
            finished = exhausted | (moved & (_row_norms(W - start) < STEP_TOLERANCE))
            iterations[finished] = iteration
            active &= ~finished
        else:
            finished = active & (np.ptp(W, axis=1) > log_escape)
            escaped |= finished
            active &= ~finished

        residual = _row_norms(problem.tangent(W, G)[0])
    outcome = np.select([escaped, active, residual < GRADIENT_TOLERANCE], [1, 2, 0], 3)
    return W, F, residual, iterations, outcome


def _distinct(points: list[tuple[float, ...]], candidate: tuple[float, ...]) -> bool:
    for point in points:
        scale = max(1.0, max(abs(v) for v in point))
        if max(abs(a - b) for a, b in zip(point, candidate)) < 1e-6 * scale:
            return False
    return True


def _maximize(spec: HomogeneousSpaceSpec, slices: list[tuple[int, ...]], zs: list[tuple[float, ...]],
              options: SolverOptions) -> list[OptimizationReport]:
    """Maximize hatS on every slice, slice j on the unit-trace slice of the
    checked tensor zs[j].

    Slices of equal dimension advance together, as many to a batch as
    MAX_BATCH_ENTRIES allows.
    """
    groups: dict[int, list[int]] = {}
    for position, indices in enumerate(slices):
        check_summand_count(len(indices))
        groups.setdefault(len(indices), []).append(position)
    R = options.restarts
    reports: list[OptimizationReport | None] = [None] * len(slices)
    for k, positions in groups.items():
        systems = [slice_term_system(spec, slices[p]) for p in positions]
        terms = max(len(system.coefficients) for system in systems)
        per_batch = max(1, MAX_BATCH_ENTRIES // (R * terms * k))
        starts = START_BOX * (2.0 * np.array([
            [_halton(options.seed * R + r + 1, p) for p in _HALTON_PRIMES[:k]]
            for r in range(R)
        ]) - 1.0)
        for first in range(0, len(positions), per_batch):
            batch = positions[first: first + per_batch]
            problem = _SliceProblem(spec, systems[first: first + per_batch],
                                    [zs[p] for p in batch], R)
            arrays = _run_restarts(problem, np.tile(starts, (len(batch), 1)), options.max_iterations)
            for j, p in enumerate(batch):
                reports[p] = _report(*(a[j * R: (j + 1) * R] for a in arrays), options)
    return reports


def _report(W: np.ndarray, F: np.ndarray, residual: np.ndarray, iterations: np.ndarray,
            outcome: np.ndarray, options: SolverOptions) -> OptimizationReport:
    """One slice's report from the rows of :func:`_run_restarts` that ran
    on it.  Converged rows rank by value, then by coordinates, which picks
    the argmax and orders the stationary points."""
    outcomes = RestartOutcomes(*np.bincount(outcome, minlength=4).tolist())
    diagnostics = outcomes.describe(options.max_iterations)
    Y, values = np.exp(W), F.tolist()

    converged = np.flatnonzero(outcome == 0).tolist()
    if converged:
        ranked = sorted(converged, key=lambda r: (-values[r], tuple(Y[r])))
        best = ranked[0]
        near_optimal: list[tuple[float, ...]] = []
        for r in ranked:
            if values[r] >= values[best] - VALUE_TIE * max(1.0, abs(values[best])):
                y = tuple(Y[r].tolist())
                if _distinct(near_optimal, y):
                    near_optimal.append(y)
        return OptimizationReport(
            argmax=near_optimal[0],
            value=values[best],
            iterations=int(iterations.sum()),
            restarts_used=options.restarts,
            converged=True,
            first_order_residual=float(residual[best]),
            escaped=False,
            stationary_points=tuple(near_optimal),
            outcomes=outcomes,
            diagnostics=diagnostics,
        )

    # no restart found an interior stationary point; argmax picks the first best row
    best = int(np.argmax(F))
    escaped = outcome == 1
    direction = None
    if outcomes.escaped:
        rows = np.flatnonzero(escaped)
        w = W[rows[np.argmax(F[rows])]]
        centred = w - w.mean()
        direction = tuple((centred / np.linalg.norm(centred)).tolist())
    return OptimizationReport(
        argmax=tuple(Y[best].tolist()),
        value=values[best],
        iterations=int(iterations.sum()),
        restarts_used=options.restarts,
        converged=False,
        first_order_residual=float(residual[~escaped].min()) if outcomes.escaped < len(F) else math.inf,
        escaped=bool(outcomes.escaped),
        escape_direction=direction,
        outcomes=outcomes,
        diagnostics=diagnostics,
    )


def maximize_hatS_on_slices(spec: HomogeneousSpaceSpec, Js, zs,
                            options: SolverOptions | None = None) -> tuple[OptimizationReport, ...]:
    """Maximize hatS over the unit-trace slice of each subalgebra in Js, the
    slice of Js[j] being taken for the tensor zs[j].

    Slices of equal dimension are solved together, and each report is the
    one :func:`maximize_hatS_on_slice` gives for that slice and tensor
    alone.  Every J needs at least two summands.
    """
    slices = [resolve_indices(spec, J) for J in Js]
    tensors = [coefficients_array(z, spec.s, "z") for z in zs]
    if len(tensors) != len(slices):
        raise ValueError(f"expected one z per slice, got {len(tensors)} for {len(slices)} slices")
    if any(len(indices) < 2 for indices in slices):
        raise ValueError("slice maximization needs at least two summands in J")
    return tuple(_maximize(spec, slices, tensors, options or SolverOptions()))


def maximize_hatS_on_slice(spec: HomogeneousSpaceSpec, J, z,
                           options: SolverOptions | None = None) -> OptimizationReport:
    """Maximize hatS over the unit-trace slice of the subalgebra J.

    Requires at least two summands in J; a single summand makes the slice one
    exactly determined point and needs no search.
    """
    return maximize_hatS_on_slices(spec, (J,), (z,), options)[0]


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
    return _maximize(spec, [tuple(spec.summand_indices())], [zs], options or SolverOptions())[0]


def verify_prescribed_ricci(spec: HomogeneousSpaceSpec, x, z) -> VerificationResult:
    """Best proportionality constant c with Ric = c T and the residual of the fit.

    c minimises sum_i d_i (R_i - c z_i)^2 / x_i^2, which weighs components by
    the natural inner product and keeps the estimate insensitive to rounding
    in any single coordinate.  Neither Ric nor the residual changes when x
    or z is scaled, so the fit is made at unit maximum of both, where no
    square overflows, and c is scaled back at the end.
    """
    xs = np.array(coefficients_array(x, spec.s, "x"))
    zs = np.array(coefficients_array(z, spec.s, "z"))
    scale = zs.max()
    ux, uz = (xs / xs.max()).tolist(), (zs / scale).tolist()
    R = ricci_coefficients(spec, ux).R
    numerator = sum(spec.d[i] * R[i] * uz[i] / (ux[i] * ux[i]) for i in range(spec.s))
    denominator = sum(spec.d[i] * uz[i] * uz[i] / (ux[i] * ux[i]) for i in range(spec.s))
    c = numerator / denominator
    residual = max(abs(R[i] - c * uz[i]) / max(1.0, abs(c * uz[i])) for i in range(spec.s))
    return VerificationResult(c=float(c / scale), residual=float(residual), positive=c > 0)


def polish_prescribed_ricci(spec: HomogeneousSpaceSpec, x, z) -> tuple[tuple[float, ...], VerificationResult]:
    """Up to POLISH_STEPS Newton steps on Ric(x) = c T from x, holding the
    tensor trace sum d_i z_i / x_i fixed; returns whichever of x and the
    steps fits best, with its fit.

    In log-coordinates w, R_m = -(x_m / d_m) g_m with g the gradient of S,
    so dR_m/dw_n = -(x_m / d_m)(delta_mn g_m + H_mn) with H the Hessian of
    S; both come from the full term system.  Ric does not change when x is
    scaled, so this Jacobian is singular along (1, ..., 1); the trace
    condition removes that direction, and c is the extra unknown.  The steps
    run at unit maximum of x and z, like :func:`verify_prescribed_ricci`.
    A step that leaves the positive finite coefficients ends the polish.
    """
    xs = np.array(coefficients_array(x, spec.s, "x"))
    zs = np.array(coefficients_array(z, spec.s, "z"))
    best_x, best = tuple(xs.tolist()), verify_prescribed_ricci(spec, xs, zs)
    system = slice_term_system(spec)
    s, d = spec.s, np.array(spec.d, dtype=float)
    w, uz = np.log(xs / xs.max()), zs / zs.max()
    trace = (d * uz) @ np.exp(-w)
    c = best.c * zs.max()
    jacobian = np.zeros((s + 1, s + 1))
    jacobian[:s, s] = -uz
    # a diverging step may overflow; the checks below reject what it gives
    with np.errstate(all="ignore"):
        for _ in range(POLISH_STEPS):
            ux = np.exp(w)
            g = system.gradient_log(w)
            jacobian[:s, :s] = -(ux / d)[:, None] * (np.diag(g) + system.hessian_log(w))
            jacobian[s, :s] = -d * uz / ux
            rhs = -np.append(-(ux / d) * g - c * uz, (d * uz) @ (1.0 / ux) - trace)
            try:
                step = np.linalg.solve(jacobian, rhs)
            except np.linalg.LinAlgError:
                break
            w, c = w + step[:s], c + step[s]
            candidate = np.exp(w) * xs.max()
            if not (np.isfinite(candidate).all() and (candidate > 0).all()):
                break
            fit = verify_prescribed_ricci(spec, candidate, zs)
            if fit.residual < best.residual:
                best_x, best = tuple(candidate.tolist()), fit
    return best_x, best


def fit_prescribed_ricci(spec: HomogeneousSpaceSpec, report: OptimizationReport, z
                         ) -> tuple[tuple[float, ...], VerificationResult | None, str]:
    """The metric that ``report``, a maximisation of S for the tensor z,
    offers as a solution of Ric = c T, and its Ricci fit, Newton-polished
    when the fit at the maximiser misses.  The last item is empty when the
    metric is a verified solution, and otherwise says why there is none; the
    metric and the fit are then not to be printed."""
    if not report.converged:
        return report.argmax, None, f"solver did not converge: {report.diagnostics}"
    verification = verify_prescribed_ricci(spec, report.argmax, z)
    if verification.verified:
        return report.argmax, verification, ""
    x, polished = polish_prescribed_ricci(spec, report.argmax, z)
    if polished.verified:
        return x, polished, ""
    return x, polished, (
        f"solver did not converge: the Ricci fit at the maximiser has residual "
        f"{verification.residual:.4g}, and {polished.residual:.4g} after Newton polish")


def escape_curve_S(spec: HomogeneousSpaceSpec, J, y, z, t: float) -> float:
    """Scalar curvature along the curve that blows up the complement of J.

    The curve keeps the metric on the slice proportional to y (rescaled by
    phi(t) = t / (t - tr), tr being the tensor trace over the complement) and
    sets every complement coefficient to t, staying on the unit-trace slice
    for every admissible t.  As t grows the value approaches hatS(y).
    """
    indices = resolve_indices(spec, J)
    zs = coefficients_array(z, spec.s, "z")
    complement = [i for i in spec.summand_indices() if i not in set(indices)]
    tr = sum(spec.d[i - 1] * zs[i - 1] for i in complement)
    if not t > tr:
        raise ValueError(f"t must exceed the pole at {tr}, got {t}")

    slice_trace = metric_trace_of_T(spec, indices, y, zs)
    if abs(slice_trace - 1.0) > 1e-8:
        raise ValueError(f"y is not on the unit-trace slice (trace = {slice_trace})")
    ys = tuple(slice_trace * float(v) for v in y)

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
