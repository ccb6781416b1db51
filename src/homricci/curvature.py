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
    coefficients_array,
    memoize_per_spec,
    resolve_indices,
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

    # single-point views of log_weights; scalar_gradient calls gradient_log,
    # and bench/trace.py patches all three by name
    def value_log(self, w: np.ndarray) -> float:
        return float(self.log_weights(w).sum())

    def gradient_log(self, w: np.ndarray) -> np.ndarray:
        """Gradient with respect to log-coordinates w = log y."""
        return self.log_weights(w) @ self.exponents

    def hessian_log(self, w: np.ndarray) -> np.ndarray:
        return (self.exponents.T * self.log_weights(w)) @ self.exponents


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
    return _term_system_cached(spec, resolve_indices(spec, indices))


def hat_scalar_curvature(spec: HomogeneousSpaceSpec, indices, y) -> float:
    """Extension of the scalar curvature to a subalgebra slice.

    ``y`` lists the slice coefficients by ascending summand index.  On the
    full index set this coincides with :func:`scalar_curvature` exactly.
    """
    resolved = resolve_indices(spec, indices)
    ys = coefficients_array(y, len(resolved), "y")
    system = _term_system_cached(spec, resolved)
    return system.value(np.array(ys))


def scalar_curvature(spec: HomogeneousSpaceSpec, x) -> float:
    """Scalar curvature of the diagonal metric with coefficients x."""
    xs = coefficients_array(x, spec.s, "x")
    return slice_term_system(spec).value(np.array(xs))


def metric_trace_of_T(spec: HomogeneousSpaceSpec, indices, y, z) -> float:
    """Trace of the prescribed tensor with respect to the slice scalar
    product: sum of d_i z_i / y_i over the slice.  The full index set gives
    the normalisation constraint defining the search slice."""
    resolved = resolve_indices(spec, indices)
    ys = coefficients_array(y, len(resolved), "y")
    zs = coefficients_array(z, spec.s, "z")
    return float(sum(spec.d[i - 1] * zs[i - 1] / ys[p] for p, i in enumerate(resolved)))


def scalar_gradient(spec: HomogeneousSpaceSpec, x) -> np.ndarray:
    """Partial derivatives of S with respect to each metric coefficient,
    dS/dx_m = (dS/dw_m) / x_m with w = log x, from the full term system."""
    xs = np.array(coefficients_array(x, spec.s, "x"))
    return slice_term_system(spec).gradient_log(np.log(xs)) / xs


@dataclass(frozen=True)
class RicciCoefficients:
    """Diagonal Ricci data: tensor coefficients R_i and eigenvalues r_i = R_i / x_i."""

    R: tuple[float, ...]
    r: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.R)


def ricci_coefficients(spec: HomogeneousSpaceSpec, x) -> RicciCoefficients:
    """Ricci curvature of the diagonal metric, in the same diagonal coordinates.

    Ric is the gradient of S on the diagonal metrics: R_m = -(x_m^2 / d_m)
    dS/dx_m.  It does not change when x is scaled, so R is evaluated at
    x / max(x), where no power of a coefficient overflows or underflows.
    The closed form of r_m = R_m / x_m,

        r_m = b_m / (2 x_m) + 1/(4 d_m) sum_{j,k} [mjk] x_m / (x_j x_k)
            - 1/(2 d_m) sum_{j,k} [mjk] x_k / (x_m x_j),

    is kept as an independent check in the test suite.
    """
    xs = np.array(coefficients_array(x, spec.s, "x"))
    unit = xs / xs.max()
    R = -(unit * unit / np.array(spec.d)) * scalar_gradient(spec, unit)
    return RicciCoefficients(R=tuple(float(v) for v in R), r=tuple(float(v) for v in R / xs))
