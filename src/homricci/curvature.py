"""Scalar curvature of diagonal invariant metrics and related quantities.

For coefficients x_i > 0 the scalar curvature is

    S(x) = 1/2 sum_i d_i b_i / x_i  -  1/4 sum_{i,j,k} [ijk] x_k / (x_i x_j),

the triple sum running over all ordered index triples.  Its extension to a
subalgebra slice J adds a mixed penalty for brackets leaking into the
complement Jc:

    hatS(y) = 1/2 sum_{i in J} d_i b_i / y_i
            - 1/2 sum_{i in J} sum_{j,k in Jc} [ijk] / y_i
            - 1/4 sum_{i,j,k in J} [ijk] y_k / (y_i y_j).

Both are sums of signed monomials in the coefficients with exponents in
{-2, -1, 0, 1}; ``slice_term_system`` compiles that sparse representation
once per (spec, index set) and every evaluator here shares it, so the full
index set reproduces S exactly.

Slice coefficient vectors are always ordered by ascending summand index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space_model import (
    HomogeneousSpaceSpec,
    SubalgebraIndexSet,
    coefficients_array,
    memoize_per_spec,
)

__all__ = [
    "TermSystem",
    "slice_term_system",
    "scalar_curvature",
    "hat_scalar_curvature",
    "metric_trace_of_T",
    "scalar_gradient",
    "ricci_coefficients",
    "RicciCoefficients",
]


@dataclass(frozen=True)
class TermSystem:
    """Signed-monomial form of hatS on a slice: value(y) = sum c * prod y**e."""

    indices: tuple[int, ...]          # ascending summand indices of the slice
    coefficients: np.ndarray          # shape (m,)
    exponents: np.ndarray             # shape (m, k), integer-valued

    @property
    def dimension(self) -> int:
        return len(self.indices)

    def value(self, y: np.ndarray) -> float:
        return float(self.coefficients @ np.prod(np.asarray(y, dtype=float) ** self.exponents, axis=1))

    def log_weights(self, w: np.ndarray) -> np.ndarray:
        """Signed terms c * exp(e . w) at log-coordinates w = log y.

        ``w`` is one point (k,) or a batch (R, k), giving (m,) or (R, m).
        Value, gradient and Hessian are all formed from these weights, so a
        point costs one exp however many of them are needed.
        """
        return self.coefficients * np.exp(w @ self.exponents.T)

    # single-point views of log_weights; bench/trace.py patches them by name
    def value_log(self, w: np.ndarray) -> float:
        return float(self.log_weights(w).sum())

    def gradient_log(self, w: np.ndarray) -> np.ndarray:
        """Gradient with respect to log-coordinates w = log y."""
        return self.log_weights(w) @ self.exponents

    def hessian_log(self, w: np.ndarray) -> np.ndarray:
        return (self.exponents.T * self.log_weights(w)) @ self.exponents


def _resolve_indices(spec: HomogeneousSpaceSpec, indices) -> tuple[int, ...]:
    if indices is None:
        return tuple(spec.summand_indices())
    if isinstance(indices, SubalgebraIndexSet):
        out = indices.sorted
    else:
        out = tuple(sorted(set(int(i) for i in indices)))
    if not out:
        raise ValueError("index set must be non-empty")
    for i in out:
        if not 1 <= i <= spec.s:
            raise ValueError(f"index {i} out of range 1..{spec.s}")
    return out


def _compile(spec: HomogeneousSpaceSpec, indices: tuple[int, ...]) -> TermSystem:
    member = set(indices)
    pos = {i: p for p, i in enumerate(indices)}
    k = len(indices)
    terms: dict[tuple[int, ...], float] = {}

    def add(exponent: tuple[int, ...], coefficient: float) -> None:
        terms[exponent] = terms.get(exponent, 0.0) + coefficient

    for i in indices:
        cross = 0.0
        for (a, b, c), value in spec.triples.ordered_entries:
            if a == i and b not in member and c not in member:
                cross += value
        exponent = tuple(-1 if p == pos[i] else 0 for p in range(k))
        add(exponent, 0.5 * spec.d[i - 1] * spec.b[i - 1] - 0.5 * cross)

    for (a, b, c), value in spec.triples.ordered_entries:
        if a in member and b in member and c in member:
            exponent = [0] * k
            exponent[pos[c]] += 1
            exponent[pos[a]] -= 1
            exponent[pos[b]] -= 1
            add(tuple(exponent), -0.25 * value)

    exps = np.array(sorted(terms), dtype=float).reshape(len(terms), k)
    coefs = np.array([terms[tuple(int(e) for e in row)] for row in exps], dtype=float)
    return TermSystem(indices=indices, coefficients=coefs, exponents=exps)


@memoize_per_spec
def _term_systems(spec: HomogeneousSpaceSpec) -> dict[tuple[int, ...], TermSystem]:
    """Compiled slices of one spec, by index tuple."""
    return {}


def _term_system_cached(spec: HomogeneousSpaceSpec, indices: tuple[int, ...]) -> TermSystem:
    systems = _term_systems(spec)
    system = systems.get(indices)
    if system is None:
        system = systems.setdefault(indices, _compile(spec, indices))
    return system


def slice_term_system(spec: HomogeneousSpaceSpec, indices=None) -> TermSystem:
    """Compiled monomial form of hatS on the given slice (full set by default)."""
    return _term_system_cached(spec, _resolve_indices(spec, indices))


def hat_scalar_curvature(spec: HomogeneousSpaceSpec, indices, y) -> float:
    """Extension of the scalar curvature to a subalgebra slice.

    ``y`` lists the slice coefficients by ascending summand index.  On the
    full index set this coincides with :func:`scalar_curvature` exactly.
    """
    resolved = _resolve_indices(spec, indices)
    ys = coefficients_array(y, len(resolved), "y")
    system = _term_system_cached(spec, resolved)
    return system.value(np.array(ys))


def scalar_curvature(spec: HomogeneousSpaceSpec, x) -> float:
    """Scalar curvature of the diagonal metric with coefficients x."""
    xs = coefficients_array(x, spec.s, "x")
    system = _term_system_cached(spec, tuple(spec.summand_indices()))
    return system.value(np.array(xs))


def metric_trace_of_T(spec: HomogeneousSpaceSpec, indices, y, z) -> float:
    """Trace of the prescribed tensor with respect to the slice scalar
    product: sum of d_i z_i / y_i over the slice.  The full index set gives
    the normalisation constraint defining the search slice."""
    resolved = _resolve_indices(spec, indices)
    ys = coefficients_array(y, len(resolved), "y")
    zs = coefficients_array(z, spec.s, "z")
    return float(sum(spec.d[i - 1] * zs[i - 1] / ys[p] for p, i in enumerate(resolved)))


def scalar_gradient(spec: HomogeneousSpaceSpec, x) -> np.ndarray:
    """Partial derivatives of S with respect to each metric coefficient.

    dS/dx_m = -d_m b_m / (2 x_m^2) - 1/4 sum_{i,j} [ijm] / (x_i x_j)
              + 1/2 sum_{j,k} [mjk] x_k / (x_m^2 x_j)
    """
    xs = np.array(coefficients_array(x, spec.s, "x"))
    grad = np.array([-spec.d[m] * spec.b[m] / (2.0 * xs[m] * xs[m]) for m in range(spec.s)])
    for (a, b, c), value in spec.triples.ordered_entries:
        ia, ib, ic = a - 1, b - 1, c - 1
        grad[ic] -= 0.25 * value / (xs[ia] * xs[ib])
        grad[ia] += 0.5 * value * xs[ic] / (xs[ia] * xs[ia] * xs[ib])
    return grad


@dataclass(frozen=True)
class RicciCoefficients:
    """Diagonal Ricci data: tensor coefficients R_i and eigenvalues r_i = R_i / x_i."""

    R: tuple[float, ...]
    r: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.R)


def ricci_coefficients(spec: HomogeneousSpaceSpec, x) -> RicciCoefficients:
    """Ricci curvature of the diagonal metric, in the same diagonal coordinates.

    Closed form for the eigenvalues:

        r_m = b_m / (2 x_m) + 1/(4 d_m) sum_{j,k} [mjk] x_m / (x_j x_k)
            - 1/(2 d_m) sum_{j,k} [mjk] x_k / (x_m x_j)

    which satisfies R_m = -(x_m^2 / d_m) dS/dx_m identically; the gradient
    route is kept as an independent cross-check in the test suite.
    """
    xs = np.array(coefficients_array(x, spec.s, "x"))
    r = np.array([spec.b[m] / (2.0 * xs[m]) for m in range(spec.s)])
    for (a, b, c), value in spec.triples.ordered_entries:
        ia, ib, ic = a - 1, b - 1, c - 1
        dm = spec.d[ia]
        r[ia] += 0.25 * value * xs[ia] / (dm * xs[ib] * xs[ic])
        r[ia] -= 0.5 * value * xs[ic] / (dm * xs[ia] * xs[ib])
    R = r * xs
    return RicciCoefficients(R=tuple(float(v) for v in R), r=tuple(float(v) for v in r))
