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
index set reproduces S exactly.  A slice is compiled from the spec's array
of ordered entries (:func:`~homricci.subalgebras.ordered_entries`) by index
masks, and like terms are added in entry order.

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
from .subalgebras import ordered_entries

__all__ = [
    "TermSystem",
    "slice_term_system",
    "singleton_coefficients",
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
    a, b, c, values = ordered_entries(spec)
    k, own = len(indices), np.array(indices) - 1
    pos = np.full(spec.s, -1)
    pos[own] = np.arange(k)
    pa, pb, pc = pos[a], pos[b], pos[c]
    leaks = (pa >= 0) & (pb < 0) & (pc < 0)
    cross = np.bincount(pa[leaks], weights=values[leaks], minlength=k)
    linear = 0.5 * np.array(spec.d)[own] * np.array(spec.b)[own] - 0.5 * cross
    inside = (pa >= 0) & (pb >= 0) & (pc >= 0)
    pa, pb, pc = pa[inside], pb[inside], pc[inside]
    # a term's exponent e_c - e_a - e_b is keyed (lo, hi, top) = (a, b, c) up
    # to the order of a and b; one where c cancels a or b is the -e_p of the
    # remaining p, keyed (p, p, p) like the linear term of p
    cancels, p = (pc == pa) | (pc == pb), pa + pb - pc
    lo, hi, top = (np.where(cancels, p, q) for q in (np.minimum(pa, pb), np.maximum(pa, pb), pc))
    keys = np.concatenate([np.arange(k) * (k * k + k + 1), (lo * k + hi) * k + top])
    # bincount adds in order: each linear term first, then the triples in entry order
    sums = np.bincount(keys, weights=np.concatenate([linear, -0.25 * values[inside]]), minlength=k ** 3)
    used = np.flatnonzero(np.bincount(keys, minlength=k ** 3))
    axes = np.eye(k)
    exps = axes[used % k] - axes[used // (k * k)] - axes[used // k % k]
    terms = exps.tolist()
    order = sorted(range(len(terms)), key=terms.__getitem__)
    return TermSystem(indices=indices, coefficients=sums[used[order]], exponents=exps[order])


@memoize_per_spec
def singleton_coefficients(spec: HomogeneousSpaceSpec) -> np.ndarray:
    """The coefficient c of the one term c / y of hatS on each slice {i},
    added as :func:`slice_term_system` adds it, for all i at once."""
    a, b, c, values = ordered_entries(spec)
    leaks, own = (b != a) & (c != a), (b == a) & (c == a)
    cross = np.bincount(a[leaks], weights=values[leaks], minlength=spec.s)
    linear = 0.5 * np.array(spec.d) * np.array(spec.b) - 0.5 * cross
    return np.bincount(np.concatenate([np.arange(spec.s), a[own]]),
                       weights=np.concatenate([linear, -0.25 * values[own]]), minlength=spec.s)


@memoize_per_spec
def _term_systems(spec: HomogeneousSpaceSpec) -> dict[tuple[int, ...], TermSystem]:
    """Compiled slices of one spec, by index tuple."""
    return {}


def slice_term_system(spec: HomogeneousSpaceSpec, indices=None) -> TermSystem:
    """Compiled monomial form of hatS on the given slice (full set by default)."""
    indices, systems = resolve_indices(spec, indices), _term_systems(spec)
    system = systems.get(indices)
    if system is None:
        system = systems.setdefault(indices, _compile(spec, indices))
    return system


def hat_scalar_curvature(spec: HomogeneousSpaceSpec, indices, y) -> float:
    """Extension of the scalar curvature to a subalgebra slice.

    ``y`` lists the slice coefficients by ascending summand index.  On the
    full index set this coincides with :func:`scalar_curvature` exactly.
    """
    resolved = resolve_indices(spec, indices)
    ys = coefficients_array(y, len(resolved), "y")
    return slice_term_system(spec, resolved).value(np.array(ys))


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
