"""Slice suprema, pivotal subalgebras, and the existence verdict.

For an intermediate subalgebra J the quantity sigma(J, T) is the supremum of
hatS over the unit-trace slice.  A single summand makes the slice one point
and sigma has a closed form.  The nonzero [ijk] inside J split it into
bracket-connected components.  A disconnected J needs no solve: its slice
is the convex hull of its components' slices in u = 1/y, so sigma is their
largest sigma.  Nor does a connected pair: hatS is strictly concave on its
slice, and attains its supremum inside unless it leaves a closed singleton
face with a slope within the attainment band.  A larger connected J compares
an interior maximization with the bound, the largest sigma strictly inside J,
unless no nonzero [ijk] of three distinct members lies in J: hatS is then
concave in u = 1/y, and a certificate on the face of the attained set at the
bound can show the supremum unattained without a solve.  So every sigma is
a function of the connected closed sets, the atoms: a table settles only
the atoms inside what it is asked for, and the pivot descent reads the
maximal closed subsets of a disconnected set off its components.

The pivot of the existence test is a proper subalgebra whose sigma is
attained and dominates the sigma of every maximal intermediate subalgebra.
The verdict compares sigma times the tensor trace over the complement
against a constant built from the complement alone; a strictly positive
margin guarantees an invariant metric g with Ric g = c T, c > 0.  The test
is sufficient, not necessary, so a failed inequality is reported as
inconclusive, never as non-existence.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .curvature import singleton_coefficients, slice_term_system
from .solver import (
    OptimizationReport,
    SolverError,
    SolverOptions,
    maximize_hatS_on_slice,  # noqa: F401  (bench/trace.py patches it by name)
    maximize_hatS_on_slices,
)
from .space_model import (
    HomogeneousSpaceSpec,
    SubalgebraIndexSet,
    coefficients_array,
    trace_Q_restricted,
    wallach_space,
)
from .subalgebras import (
    SubalgebraLattice,
    intermediate_subalgebras,
    is_bracket_closed,
    maximal_within,
    ordered_entries,
)

__all__ = [
    "SigmaSource",
    "SigmaResult",
    "VerdictStatus",
    "ExistenceVerdict",
    "SigmaContext",
    "solve_together",
    "sigma_irreducible",
    "existence_check",
    "existence_verdict",
    "wallach_existence_check",
    "NoProperSubalgebraError",
    "STRICTNESS_TOLERANCE",
    "ATTAINMENT_TOLERANCE",
]

# |margin| below this (relative to max(1, |rhs|)) is reported as "boundary":
# the decisive inequality is strict and exact equality is left undecided.
STRICTNESS_TOLERANCE = 1e-10
# interior maximum vs boundary recursion comparison; ties count as attained
# and keep the interior witness, which is the usable scalar product.
ATTAINMENT_TOLERANCE = 1e-9
# sigma values this close (relative) are treated as tied when picking a pivot
TIE_TOLERANCE = 1e-9
# a converged witness whose coordinate spread comes within a decade of the
# escape ratio, while gaining nothing over the boundary recursion, is the
# degenerate-threshold signature of a supremum that is really a boundary
# limit; treating it as attained would certify the existence inequality
# through the wrong pivot
BOUNDARY_ADJACENT_RATIO = 1e7


class NoProperSubalgebraError(ValueError):
    """The isotropy algebra is maximal; the pivot construction does not apply."""


class SigmaSource(str, enum.Enum):
    CLOSED_FORM_IRREDUCIBLE = "closed_form_irreducible"
    INTERIOR_MAXIMUM = "interior_maximum"
    BOUNDARY_RECURSION = "boundary_recursion"


@dataclass(frozen=True)
class SigmaResult:
    """Value of sigma on one subalgebra with attainment information."""

    J: SubalgebraIndexSet
    value: float
    attained: bool
    witness: tuple[float, ...] | None
    source: SigmaSource

    def as_dict(self) -> dict:
        return {
            "J": list(self.J.sorted),
            "value": self.value,
            "attained": self.attained,
            "witness": None if self.witness is None else list(self.witness),
            "source": self.source.value,
        }


class VerdictStatus(str, enum.Enum):
    GUARANTEED = "guaranteed"
    INCONCLUSIVE = "inconclusive"
    DEGENERATE_CONSTANT_RICCI = "degenerate_constant_ricci"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class ExistenceVerdict:
    """Outcome of the existence test.

    ``lhs`` is sigma times the tensor trace over the complement of the pivot,
    ``rhs`` the complement constant, ``margin`` their difference.  All pivot
    candidates surviving the tie tolerance are listed in ``candidates``;
    ``apical``/``sigma`` describe the deterministic primary choice.  The
    degenerate status (no nonzero structure constants, so every metric has
    the same Ricci tensor) carries no pivot and no inequality data.
    """

    status: VerdictStatus
    apical: SubalgebraIndexSet | None = None
    sigma: SigmaResult | None = None
    lhs: float | None = None
    rhs: float | None = None
    margin: float | None = None
    candidates: tuple[SigmaResult, ...] = field(default=())

    def as_dict(self) -> dict:
        return {
            "status": self.status.value,
            "apical": None if self.apical is None else list(self.apical.sorted),
            "sigma": None if self.sigma is None else self.sigma.as_dict(),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "candidates": [c.as_dict() for c in self.candidates],
        }


def sigma_irreducible(spec: HomogeneousSpaceSpec, i: int, z) -> SigmaResult:
    """Closed-form sigma for a single-summand subalgebra.

    The slice is the single point y = d_i z_i, and hatS on it is one term
    c / y with c = d_i b_i / 2 - [iii] / 4 - 1/2 sum_{j,k != i} [ijk], so
    the supremum is attained there and equals c / (d_i z_i), the value a
    sigma fill stores for {i}.
    """
    ctx = SigmaContext(spec, z)
    J = SubalgebraIndexSet.of(i)
    if not is_bracket_closed(spec, J):
        raise ValueError(f"summand {i} does not span a subalgebra")
    return ctx.closed_sigmas([J])[0]


class SigmaContext:
    """Memoised sigma evaluations for one (spec, tensor) pair.

    Asking for J stores J and every atom (connected closed set) inside J
    not known yet, the atoms smallest first in lattice order (size, then
    lexicographic), so an atom finds its bound, the largest sigma strictly
    inside it, already stored, and a disconnected J takes the largest of
    its components'.  The slices that need a solve are solved in one
    :func:`maximize_hatS_on_slices` call; :func:`solve_together` fills the
    existence tests of several contexts with one such call.  Not safe to
    share across threads.

    The table and the pivot descent read the frame z 2^-e, with e chosen so
    that the largest coordinate lies in [1, 2), or 0 where that would push a
    coordinate out of the normal float range.  T and 2^k T share the frame,
    so every tolerance decides alike for both.  sigma scales as 1/T, so each
    result leaves the context with its value times 2^-e and its witness
    times 2^e, which is exact.
    """

    def __init__(self, spec: HomogeneousSpaceSpec, z, options: SolverOptions | None = None):
        self.spec = spec
        self.z = coefficients_array(z, spec.s, "z")
        self.options = options or SolverOptions()
        self._memo: dict[int, SigmaResult] = {}  # by mask
        self._exponent = math.frexp(max(self.z))[1] - 1
        self._frame = tuple(math.ldexp(v, -self._exponent) for v in self.z)
        if any(math.ldexp(v, self._exponent) != x for v, x in zip(self._frame, self.z)):
            self._exponent, self._frame = 0, self.z

    def sigma(self, J) -> SigmaResult:
        return self.sigmas([J])[0]

    def sigmas(self, Js) -> list[SigmaResult]:
        """sigma of each J, with every slice they need solved in one call."""
        Jsets = [SubalgebraIndexSet.from_iterable(J) for J in Js]
        for J in Jsets:
            if J.mask not in self._memo and not is_bracket_closed(self.spec, J):
                raise ValueError(f"index set {J} is not bracket-closed")
        return self.closed_sigmas(Jsets)

    def closed_sigmas(self, Js: Sequence[SubalgebraIndexSet]) -> list[SigmaResult]:
        """:meth:`sigmas` of sets known to be bracket-closed, such as lattice
        members, without testing their closure again."""
        return [self._unframe(result) for result in self._framed(Js)]

    def _framed(self, Js: Sequence[SubalgebraIndexSet]) -> list[SigmaResult]:
        """sigma of closed sets in the frame; sets all stored already are
        answered from the memo without a fill."""
        try:
            return [self._memo[J.mask] for J in Js]
        except KeyError:
            _fill([self], Js)
            return [self._memo[J.mask] for J in Js]

    def _unframe(self, result: SigmaResult) -> SigmaResult:
        """``result`` out of the frame; ValueError where that overflows."""
        e = self._exponent
        if not e:
            return result
        try:
            witness = None if result.witness is None else tuple(math.ldexp(y, e) for y in result.witness)
            return SigmaResult(result.J, math.ldexp(result.value, -e), result.attained, witness, result.source)
        except OverflowError:
            raise ValueError(f"sigma of {result.J} overflows a float at this tensor") from None


def _sigma_composite(J: SubalgebraIndexSet, report: OptimizationReport, bound: float | None) -> SigmaResult:
    """sigma of a composite J from its slice report and ``bound``, the largest
    sigma strictly inside J (None when no closed set lies inside it)."""
    if not report.converged and bound is None:
        raise SolverError(
            f"interior maximization failed on {J} and it has no proper "
            f"subalgebra to recurse into: {report.diagnostics}"
        )
    boundary_adjacent = (
        report.converged
        and bound is not None
        and max(report.argmax) / min(report.argmax) > BOUNDARY_ADJACENT_RATIO
        and report.value <= bound + ATTAINMENT_TOLERANCE * max(1.0, abs(bound))
    )
    if report.converged and not boundary_adjacent and (
        bound is None
        or report.value >= bound - ATTAINMENT_TOLERANCE * max(1.0, abs(bound))
    ):
        value = report.value if bound is None else max(report.value, bound)
        return SigmaResult(J, value, True, report.argmax, SigmaSource.INTERIOR_MAXIMUM)
    return SigmaResult(J, bound, False, None, SigmaSource.BOUNDARY_RECURSION)


def _sigma_split(J: SubalgebraIndexSet, parts: Sequence[SigmaResult]) -> SigmaResult:
    """sigma of a closed J from the sigmas of its m > 1 components: the
    largest, attained only when every component is attained and ties at the
    top.  The witness is then the component witnesses each scaled by m, the
    point of weight 1/m on each in u = 1/y."""
    top = max(r.value for r in parts)
    tol = ATTAINMENT_TOLERANCE * max(1.0, abs(top))
    if not all(r.attained and r.value >= top - tol for r in parts):
        return SigmaResult(J, top, False, None, SigmaSource.BOUNDARY_RECURSION)
    coords = {i: len(parts) * y for r in parts for i, y in zip(r.J.sorted, r.witness)}
    return SigmaResult(J, top, True, tuple(coords[i] for i in J.sorted), SigmaSource.INTERIOR_MAXIMUM)


def _concave_terms(system) -> tuple[list[float], list[list[float]]] | None:
    """alpha and P with hatS = sum alpha_i u_i - sum P_ij u_i^2 / u_j on the
    slice of ``system`` in u = 1/y, positions i, j within the slice; None
    where a term has three distinct indices, the one kind with two -1
    exponents.  Every slice keeps a linear term for each member, and P >= 0
    because the constants are."""
    k = len(system.indices)
    alpha, P = [0.0] * k, [[0.0] * k for _ in range(k)]
    for exponent, coefficient in zip(system.exponents.tolist(), system.coefficients.tolist()):
        if exponent.count(-1.0) > 1:
            return None
        low, high = exponent.index(min(exponent)), exponent.index(max(exponent))
        if exponent[high] == 0.0:
            alpha[low] = coefficient
        else:
            P[low][high] = -coefficient
    return alpha, P


def _pair_maximum(alpha: float, beta: float, p: float, q: float, a: float, b: float) -> tuple[float, float]:
    """The interior maximum of f(t) = A t + B (1-t) - P t^2/(1-t) - Q (1-t)^2/t,
    hatS = alpha u_i + beta u_j - p u_i^2/u_j - q u_j^2/u_i on the segment
    a u_i + b u_j = 1 with t = a u_i, and the ratio r = u_i / u_j = y_j / y_i
    where it lies.  f'(t) = C - P/(1-t)^2 + Q/t^2, C = A - B + P - Q,
    strictly decreases, and the caller has checked that it changes sign:
    C > P with Q = 0, or C < -Q with P = 0.  The root is found in r, which
    stays moderate however unevenly a and b are scaled; f' has the sign of
    h(r) below, with c = alpha b - beta a."""
    c = alpha * b - beta * a
    if q == 0.0:  # the root of p a r^2 + 2 p b r = c > 0, that is t = 1 - sqrt(P / C)
        r = c / (p * b + math.hypot(p * b, math.sqrt(p * a * c)))
    elif p == 0.0:  # the root of -c r^2 = 2 q a r + q b, c < 0, that is t = sqrt(Q / -C)
        r = (q * a + math.hypot(q * a, math.sqrt(-c * q * b))) / -c
    else:  # safeguarded Newton on h in log r, bisecting where a step leaves the bracket or stalls
        lo = math.log(min((q * b / (3.0 * p * a)) ** 0.25, (q / (6.0 * p)) ** (1 / 3),
                          math.sqrt(q * b / (-3.0 * c)) if c < 0.0 else math.inf))
        hi = math.log(max((3.0 * q * b / (p * a)) ** 0.25, (6.0 * q / p) ** (1 / 3),
                          math.sqrt(3.0 * c / (p * a)) if c > 0.0 else 0.0))
        w, moved = 0.5 * (lo + hi), hi - lo
        for _ in range(100):
            r = math.exp(w)
            h = c - p * a * r * r - 2.0 * p * b * r + 2.0 * q * a / r + q * b / (r * r)
            lo, hi = (w, hi) if h > 0.0 else (lo, w)
            step = h / (2.0 * (p * a * r * r + p * b * r + q * a / r + q * b / (r * r)))
            if abs(step) <= 1e-12 * max(1.0, abs(w)):  # converging quadratically: the last step
                w += step
                break
            if not (lo < w + step < hi and 2.0 * abs(step) < moved):
                step = 0.5 * (lo + hi) - w
            w, moved = w + step, abs(step)
        r = math.exp(w)
    return (alpha * r + beta - p * r * r - q / r) / (a * r + b), r


def _sigma_pair(spec: HomogeneousSpaceSpec, K: SubalgebraIndexSet, point: Sequence[float],
                bound: float | None) -> SigmaResult:
    """sigma of a connected pair K = {i, j} from the points a = d_i z_i,
    b = d_j z_j and ``bound``.  hatS on its slice is the strictly concave
    f of :func:`_pair_maximum`, with P, Q >= 0.  With Q = 0 the face t -> 0
    is the closed {j}, and K is attained only when f'(0+) = A - B exceeds
    the band; P = 0 mirrors it at t -> 1."""
    (alpha, beta), P = _concave_terms(slice_term_system(spec, K.sorted))
    a, b = (point[i - 1] for i in K.sorted)
    p, q = P[0][1], P[1][0]
    band = ATTAINMENT_TOLERANCE * max(1.0, abs(alpha / a), abs(beta / b))
    if (q == 0.0 and alpha / a - beta / b <= band) or (p == 0.0 and beta / b - alpha / a <= band):
        return SigmaResult(K, bound, False, None, SigmaSource.BOUNDARY_RECURSION)
    value, r = _pair_maximum(alpha, beta, p, q, a, b)
    value = value if bound is None else max(value, bound)
    return SigmaResult(K, value, True, (a + b / r, a * r + b), SigmaSource.INTERIOR_MAXIMUM)


def _face_supremum(alpha: Sequence[float], P: Sequence[Sequence[float]], c: Sequence[float]) -> float:
    """An upper bound on the supremum of g(w) = sum alpha_j w_j -
    sum P_ij w_i^2 / w_j over w >= 0 with sum c_j w_j = 1: alpha_j / c_j for
    one member, the exact maximum for two, and max_j alpha_j / c_j, which
    drops the P terms, for more."""
    if len(c) != 2:
        return max(x / y for x, y in zip(alpha, c))
    (alpha_i, beta), (a, b), p, q = alpha, c, P[0][1], P[1][0]
    if (q == 0.0 and alpha_i * b <= beta * a) or (p == 0.0 and alpha_i * b >= beta * a):
        return max(alpha_i / a, beta / b)  # f' keeps one sign: the larger end
    try:
        return _pair_maximum(alpha_i, beta, p, q, a, b)[0]
    except (ArithmeticError, ValueError):  # scales past the float range: no bound
        return math.inf


def _sigma_face(spec: HomogeneousSpaceSpec, J: SubalgebraIndexSet, point: Sequence[float],
                bound: float, K: SubalgebraIndexSet) -> SigmaResult | None:
    """sigma of a connected J whose hatS is concave in u = 1/y, from the one
    attained closed K inside J at its bound b, where a certificate shows
    that the supremum stays on the face of K; None where it does not.

    Each term of hatS on the slice sum c_i u_i = 1, c_i = d_i z_i, is then
    alpha_i u_i or -P_ij u_i^2 / u_j.  With O = J - K, no term has i in K
    and j in O, since K is closed, so on the face u_O = 0 hatS is hatS_K,
    whose maximum b is stationary with multiplier b.  Leaving the face
    along w >= 0 on O changes hatS at the rate g(w) - b sum c_j w_j, g of
    :func:`_face_supremum` over O.  By concavity hatS stays below b on the
    whole open slice when sup g < b, here by more than the attainment band:
    the supremum b is unattained."""
    terms = _concave_terms(slice_term_system(spec, J.sorted))
    if terms is None:
        return None
    alpha, P = terms
    outside = [p for p, i in enumerate(J.sorted) if i not in K.indices]
    supremum = _face_supremum([alpha[i] for i in outside], [[P[i][j] for j in outside] for i in outside],
                              [point[J.sorted[i] - 1] for i in outside])
    if supremum < bound - ATTAINMENT_TOLERANCE * max(1.0, abs(bound)):
        return SigmaResult(J, bound, False, None, SigmaSource.BOUNDARY_RECURSION)
    return None


def _finite(result: SigmaResult) -> SigmaResult:
    """``result``, or ValueError where its value or witness is not a finite float."""
    if math.isfinite(result.value) and (result.witness is None or all(map(math.isfinite, result.witness))):
        return result
    raise ValueError(f"sigma of {result.J} overflows a float at this tensor")


def _fill(contexts: Sequence[SigmaContext], Js: Sequence[SubalgebraIndexSet]) -> None:
    """Store in each context the sigma of every closed set of ``Js`` that it
    does not know yet; the contexts share one spec and one set of solver
    options, and every J is closed.

    Only atoms, the connected closed sets, are settled: those inside a
    component of a J that some context does not know yet, smallest first in
    lattice order.  A singleton takes its closed form from the points
    d_i z_i and ratios c_i / (d_i z_i) divided once per fill, and singletons
    alone need no lattice.  A larger atom's bound is the largest atom sigma
    strictly inside it.  A connected pair takes :func:`_sigma_pair`,
    unattained when its slope off a closed singleton face is within the
    attainment band.  A larger atom takes :func:`_sigma_face` where that
    certificate closes: its bound is known before the solve, one attained
    closed set inside it, and no other, reaches the bound, and its hatS is
    concave.  The rest share one slice solve, and what depends on them is
    settled after it.  Last, each disconnected J takes :func:`_sigma_split`
    of its components.

    A stored sigma is its bound or more, so sigma never decreases along
    inclusion.  sigma of a disconnected set is the largest over its
    components, so the largest atom sigma strictly inside an atom is the
    largest sigma of any closed set there.  An atom is stored only after
    every atom inside it, so a context that knows a component knows every
    atom inside it.
    """
    asked = {J.mask: J for J in Js if any(J.mask not in ctx._memo for ctx in contexts)}
    if not asked:
        return
    if all(len(J) == 1 for J in asked.values()):
        _settle(contexts, sorted(asked.values(), key=lambda J: J.sorted), None, None)
        return
    lattice, full = intermediate_subalgebras(contexts[0].spec), (1 << contexts[0].spec.s) - 1
    parts = {mask: lattice.components(mask) for mask in asked}
    unknown = {C for Cs in parts.values() for C in Cs if any(C not in ctx._memo for ctx in contexts)}
    if unknown:
        masks, atoms = lattice.atom_masks, lattice.atoms
        if full in unknown:  # the full set, connected
            masks, atoms = np.append(masks, full), atoms + (asked[full],)
        inside = np.zeros(len(masks), dtype=bool)
        for C in unknown:
            inside |= (masks & C) == masks
        _settle(contexts, [atoms[p] for p in np.flatnonzero(inside).tolist()], masks[inside], lattice)
    for ctx in contexts:
        for mask, J in asked.items():
            if mask not in ctx._memo:
                ctx._memo[mask] = _finite(_sigma_split(J, [ctx._memo[C] for C in parts[mask]]))


def _settle(contexts: Sequence[SigmaContext], atoms: Sequence[SubalgebraIndexSet], masks: np.ndarray | None,
            lattice: SubalgebraLattice | None) -> None:
    """Store in each context the sigma of every atom of ``atoms``, which is
    in lattice order with their ``masks``, that it does not know yet; all
    atoms inside each are among them.  ``masks`` and ``lattice`` are None
    where every atom is a singleton."""
    spec, options = contexts[0].spec, contexts[0].options
    coefficients = singleton_coefficients(spec).tolist()

    def settle(ctx, values, point, ratio, p, reports) -> SigmaResult | None:
        """sigma of atoms[p] from the values stored before it; None while one
        of them waits for the solve, or while, before it, atoms[p] needs one."""
        K = atoms[p]
        if len(K) == 1:
            i = K.sorted[0] - 1
            return SigmaResult(K, ratio[i], True, (point[i],), SigmaSource.CLOSED_FORM_IRREDUCIBLE)
        inside = (masks[:p] & masks[p]) == masks[:p]
        below = values[:p][inside]
        bound = float(below.max()) if below.size else None
        if bound is not None and math.isnan(bound):  # the max of values still waiting is nan
            return None
        if len(K) == 2:
            return _sigma_pair(spec, K, point, bound)
        if reports is not None:
            return _sigma_composite(K, next(reports), bound)
        if bound is None:
            return None
        below_masks = masks[:p][inside].tolist()
        top = [m for m, v in zip(below_masks, below.tolist())
               if v >= bound - ATTAINMENT_TOLERANCE * max(1.0, abs(bound))]
        faces = [m for m in top if ctx._memo[m].attained]
        if len(faces) != 1 or _tied_union(ctx, lattice, below_masks, faces[0]):
            return None
        return _sigma_face(spec, K, point, bound, ctx._memo[faces[0]].J)

    waiting = []  # (context, point, ratio, values, positions left for after the solve)
    for ctx, values in zip(contexts, np.full((len(contexts), len(atoms)), np.nan)):
        # in Python floats, what overflows is inf, and refused as it is stored
        point = [d * x for d, x in zip(spec.d, ctx._frame)]
        ratio = [c / y for c, y in zip(coefficients, point)]
        left = []
        for p, K in enumerate(atoms):
            result = ctx._memo.get(K.mask)
            if result is None:
                result = settle(ctx, values, point, ratio, p, None)
                if result is None:
                    left.append(p)
                    continue
                ctx._memo[K.mask] = _finite(result)
            values[p] = result.value
        waiting.append((ctx, point, ratio, values, left))
    composite = [(ctx, atoms[p]) for ctx, *_, left in waiting for p in left]
    reports = iter(maximize_hatS_on_slices(spec, [K for _, K in composite],
                                           [ctx._frame for ctx, _ in composite], options) if composite else ())
    for ctx, point, ratio, values, left in waiting:
        for p in left:
            result = ctx._memo[atoms[p].mask] = _finite(settle(ctx, values, point, ratio, p, reports))
            values[p] = result.value


def _tied_union(ctx: SigmaContext, lattice: SubalgebraLattice, inside: Sequence[int], face: int) -> bool:
    """Whether a disconnected closed set strictly inside the atom being
    settled is attained at its bound as well as ``face``, the one attained
    atom there; ``inside`` holds the masks of the atoms strictly inside the
    one being settled.  Such a set has ``face`` as a component, the top one,
    and every other component attained and tied with it in the band of its
    value (:func:`_sigma_split`)."""
    top = ctx._memo[face].value
    tol = ATTAINMENT_TOLERANCE * max(1.0, abs(top))
    tied = {m for m in inside if ctx._memo[m].attained and ctx._memo[m].value >= top - tol}
    if len(tied) == 1:  # the face alone
        return False
    union, masks = 0, lattice.masks
    for mask in tied:
        union |= mask
    unions = masks[((masks & union) == masks) & ((masks & face) == face) & (masks != face)].tolist()
    return any(face in parts and set(parts) <= tied for parts in map(lattice.components, unions))


def solve_together(contexts: Sequence[SigmaContext]) -> None:
    """Fill, with one slice solve, the sigma table that the existence test of
    each context needs.

    The contexts share one spec and one set of solver options, and each
    sigma is the one its context would compute alone.  If the fill fails,
    the contexts keep what it stored before the failure and fill the rest
    when asked, so the failure stays with the tensor that caused it.
    """
    if not contexts:
        return
    spec, options = contexts[0].spec, contexts[0].options
    if any(ctx.spec != spec or ctx.options != options for ctx in contexts):
        raise ValueError("contexts solved together must share the spec and the solver options")
    if not len(ordered_entries(spec)[0]):
        return  # the verdict is degenerate and solves nothing
    try:
        _fill(contexts, intermediate_subalgebras(spec).maximal)
    except (SolverError, ValueError):
        return


def _tie_break(results: Sequence[SigmaResult]) -> SigmaResult:
    # prefer more summands, then the lexicographically smallest index set
    return min(results, key=lambda r: (-len(r.J), r.J.sorted))


def _tied_subset(results: Sequence[SigmaResult]) -> list[SigmaResult]:
    best = max(r.value for r in results)
    tol = TIE_TOLERANCE * max(1.0, abs(best))
    return [r for r in results if r.value >= best - tol]


def _descend(ctx: SigmaContext, lattice: SubalgebraLattice, J: SubalgebraIndexSet) -> SubalgebraIndexSet:
    """The maximal closed proper subset of J that the pivot descent takes:
    of those whose sigma ties the largest, the one of most summands, then
    lexicographically first.  Those of an atom are :func:`maximal_within`,
    those of a disconnected J follow from its components
    (:meth:`SubalgebraLattice.subsets`).  sigma of each is the largest of
    its components' (:func:`_sigma_split`), which the table holds with J."""
    if len(lattice.components(J.mask)) == 1:
        subsets = [K.mask for K in maximal_within(ctx.spec, J)]
    else:
        subsets = lattice.subsets(J.mask)
    if not subsets:  # unattained sigma always has somewhere to descend
        raise SolverError(f"descent stuck on {J} with no subalgebras")
    values = [max(ctx._memo[C].value for C in lattice.components(K)) for K in subsets]
    best = max(values)
    tol = TIE_TOLERANCE * max(1.0, abs(best))
    # of two sets of one size, the lexicographically first holds the
    # smallest member where they differ: its mask is the larger bit-reversed
    tied = (K for K, value in zip(subsets, values) if value >= best - tol)
    return SubalgebraIndexSet.from_mask(min(tied, key=lambda K: (-K.bit_count(), -int(f"{K:016b}"[::-1], 2))))


def _apical_search(ctx: SigmaContext) -> tuple[SigmaResult, tuple[SigmaResult, ...]]:
    """The pivot and every tied candidate, in the frame of ``ctx``.

    From each maximal subalgebra whose sigma ties the largest, the walk
    descends, while the supremum is unattained, to the tied subalgebra of
    most summands, then lexicographically first; single summands always
    attain, so it ends.  The pivot is the candidate first in that order.
    """
    lattice = intermediate_subalgebras(ctx.spec)
    if not lattice.masks.size:
        raise NoProperSubalgebraError(
            "the isotropy algebra is maximal: no proper intermediate subalgebra "
            "exists, and this existence test does not cover that case"
        )
    maximal_results = ctx._framed(lattice.maximal)
    candidates: list[SigmaResult] = []
    for start in _tied_subset(maximal_results):
        current = start
        while not current.attained:
            current = ctx._framed([_descend(ctx, lattice, current.J)])[0]
        if all(current.J.mask != c.J.mask for c in candidates):
            candidates.append(current)
    candidates.sort(key=lambda r: (-len(r.J), r.J.sorted))
    return _tie_break(candidates), tuple(candidates)


def _complement_constant(spec: HomogeneousSpaceSpec, complement: frozenset[int]) -> float:
    linear = sum(spec.d[i - 1] * spec.b[i - 1] for i in sorted(complement))
    a, b, c, values = ordered_entries(spec)
    outside = np.zeros(spec.s, dtype=bool)
    outside[[i - 1 for i in complement]] = True
    # a running sum adds the values in entry order
    triple = np.cumsum(np.append(0.0, values[outside[a] & outside[b] & outside[c]]))[-1]
    return 0.5 * linear - 0.25 * float(triple)


def _classify(margin: float, rhs: float) -> VerdictStatus:
    band = STRICTNESS_TOLERANCE * max(1.0, abs(rhs))
    if margin > band:
        return VerdictStatus.GUARANTEED
    if abs(margin) <= band:
        return VerdictStatus.BOUNDARY
    return VerdictStatus.INCONCLUSIVE


def existence_check(spec: HomogeneousSpaceSpec, z, options: SolverOptions | None = None) -> ExistenceVerdict:
    """Decide whether the variational criterion guarantees Ric g = c T, c > 0.

    With every structure constant zero the Ricci tensor is the same for all
    invariant metrics and the verdict is degenerate.  Otherwise the pivot
    subalgebra is located and the strict inequality

        sigma(J, T) * sum_{i not in J} d_i z_i  <
            1/2 sum_{i not in J} d_i b_i - 1/4 sum_{i,j,k not in J} [ijk]

    is evaluated; margins inside the strictness band are reported as
    boundary because the criterion says nothing about equality.
    """
    return existence_verdict(SigmaContext(spec, z, options))


def existence_verdict(ctx: SigmaContext) -> ExistenceVerdict:
    """:func:`existence_check` for the spec and tensor of ``ctx``, reusing
    every slice the context has already solved."""
    spec = ctx.spec
    if not len(ordered_entries(spec)[0]):  # no bracket reaches anything
        return ExistenceVerdict(VerdictStatus.DEGENERATE_CONSTANT_RICCI)
    primary, candidates = _apical_search(ctx)
    complement = primary.J.complement(spec.s)
    lhs = primary.value * trace_Q_restricted(spec, ctx._frame, complement)  # the same in any frame
    if not math.isfinite(lhs):
        raise ValueError(f"sigma of {primary.J} times the trace of T over its complement "
                         f"overflows a float at this tensor")
    rhs = _complement_constant(spec, complement)
    margin = rhs - lhs
    return ExistenceVerdict(_classify(margin, rhs), primary.J, ctx._unframe(primary), lhs, rhs, margin,
                            tuple(map(ctx._unframe, candidates)))


def wallach_existence_check(d: Sequence[int], a, z) -> ExistenceVerdict:
    """Fast existence test for three-summand spaces whose only bracket
    interaction is the fully mixed one with strength ``a``.

    Picks the summand p maximising (d_p - 2a) / (2 d_p z_p) (ties toward the
    smallest index, matching the generic tie-break on singletons) and checks
    the same inequality as :func:`existence_check`, which here reduces to

        (d_p - 2a) * sum_{i != p} d_i z_i  <  (d - d_p) * d_p * z_p.
    """
    spec = wallach_space(d, a)
    dims, strength = spec.d, spec.constant(1, 2, 3)
    zs = coefficients_array(z, 3, "z")
    if strength == 0.0:
        return ExistenceVerdict(VerdictStatus.DEGENERATE_CONSTANT_RICCI)

    values = [(dims[p] - 2.0 * strength) / (2.0 * dims[p] * zs[p]) for p in range(3)]
    best = max(values)
    tol = TIE_TOLERANCE * max(1.0, abs(best))
    tied = [p for p in range(3) if values[p] >= best - tol]
    p = min(tied)

    candidates = tuple(SigmaResult(SubalgebraIndexSet.of(q + 1), values[q], True, (dims[q] * zs[q],),
                                   SigmaSource.CLOSED_FORM_IRREDUCIBLE) for q in tied)
    primary = candidates[tied.index(p)]
    lhs = values[p] * sum(dims[i] * zs[i] for i in range(3) if i != p)
    rhs = 0.5 * (sum(dims) - dims[p])
    margin = rhs - lhs
    return ExistenceVerdict(_classify(margin, rhs), primary.J, primary, lhs, rhs, margin, candidates)
