"""Slice suprema, pivotal subalgebras, and the existence verdict.

For an intermediate subalgebra J the quantity sigma(J, T) is the supremum of
hatS over the unit-trace slice.  A single summand makes the slice one point
and sigma has a closed form.  The nonzero [ijk] inside J split it into
bracket-connected components.  On a connected J an interior maximization
is compared with the bound, the largest sigma strictly inside J, to decide
attainment.  A disconnected J needs no solve: its slice is the convex hull
of its components' slices in u = 1/y, so sigma is their largest sigma.

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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .curvature import singleton_coefficients
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
    _as_index_set,
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
    "sigma",
    "find_T_apical",
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
    apical: SubalgebraIndexSet | None
    sigma: SigmaResult | None
    lhs: float | None
    rhs: float | None
    margin: float | None
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

    The table is filled smallest-first: asking for J stores every closed
    set inside J not known yet in lattice order (size, then lexicographic),
    so a composite set finds its bound, the largest sigma strictly inside
    it, already stored.  Their slices are solved in one
    :func:`maximize_hatS_on_slices` call; :func:`solve_together` fills the
    existence tests of several contexts with one such call.  Not safe to
    share across threads.
    """

    def __init__(self, spec: HomogeneousSpaceSpec, z, options: SolverOptions | None = None):
        self.spec = spec
        self.z = coefficients_array(z, spec.s, "z")
        self.options = options or SolverOptions()
        self._memo: dict[frozenset[int], SigmaResult] = {}

    def sigma(self, J) -> SigmaResult:
        return self.sigmas([J])[0]

    def sigmas(self, Js) -> list[SigmaResult]:
        """sigma of each J, with every slice they need solved in one call."""
        Jsets = [_as_index_set(J) for J in Js]
        for J in Jsets:
            if J.indices not in self._memo and not is_bracket_closed(self.spec, J):
                raise ValueError(f"index set {J} is not bracket-closed")
        return self.closed_sigmas(Jsets)

    def closed_sigmas(self, Js: Sequence[SubalgebraIndexSet]) -> list[SigmaResult]:
        """:meth:`sigmas` of sets known to be bracket-closed, such as lattice
        members, without testing their closure again."""
        _fill([self], Js)
        return [self._memo[J.indices] for J in Js]


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
        return SigmaResult(
            J=J,
            value=value,
            attained=True,
            witness=report.argmax,
            source=SigmaSource.INTERIOR_MAXIMUM,
        )
    return SigmaResult(
        J=J,
        value=bound,
        attained=False,
        witness=None,
        source=SigmaSource.BOUNDARY_RECURSION,
    )


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


def _first_components(spec: HomogeneousSpaceSpec, masks: np.ndarray) -> np.ndarray:
    """For each closed set of ``masks``, the mask of its component holding
    its lowest member, grown by every nonzero [ijk] inside the set that
    touches it until none does (at most s rounds)."""
    a, b, c, _ = ordered_entries(spec)
    brackets = (1 << a | 1 << b | 1 << c)[(a <= b) & (b <= c)]
    links = np.where((masks[:, None] & brackets) == brackets, brackets, 0)
    grown, wider = np.zeros_like(masks), masks & -masks
    while (wider != grown).any():
        grown = wider
        wider = grown | np.bitwise_or.reduce(np.where(links & grown[:, None], links, 0), axis=1)
    return grown


def _fill(contexts: Sequence[SigmaContext], Js: Sequence[SubalgebraIndexSet]) -> None:
    """Store in each context, smallest first, the sigma of every closed set
    inside one of ``Js`` that it does not know yet; the contexts share one
    spec and one set of solver options, and every J is closed.  Singletons
    alone need no lattice; each takes its closed form from the points
    d_i z_i and ratios c_i / (d_i z_i) divided once per fill.  A composite
    set split into components by its internal brackets takes
    :func:`_sigma_split` of theirs, stored earlier in lattice order; the
    connected ones share one slice solve.

    A stored sigma is its bound or more, so sigma never decreases along
    inclusion, and a set's bound, the largest sigma stored strictly inside
    it, equals the largest over its maximal subalgebras.
    """
    spec, options = contexts[0].spec, contexts[0].options
    asked = {J.indices: J for J in Js if any(J.indices not in ctx._memo for ctx in contexts)}
    if not asked:
        return
    split: dict[int, list[int]] = {}  # position of a disconnected set -> its components'
    if all(len(J) == 1 for J in asked.values()):
        closed, solved = sorted(asked.values(), key=lambda J: J.sorted), []
    else:  # the lattice holds every closed set but the full one
        closed = intermediate_subalgebras(spec).all_proper + tuple(
            J for J in asked.values() if len(J) == spec.s)
        masks = np.array([K.mask for K in closed], dtype=np.int64)
        inside = np.zeros(len(closed), dtype=bool)
        for J in asked.values():
            inside |= (masks & J.mask) == masks
        closed, masks = [K for K, keep in zip(closed, inside) if keep], masks[inside]
        several = np.flatnonzero(masks & (masks - 1))
        first = _first_components(spec, masks[several])
        cut = first != masks[several]
        if cut.any():
            position = {K.mask: p for p, K in enumerate(closed)}
            for p, low in zip(several[cut].tolist(), first[cut].tolist()):
                rest = position[closed[p].mask & ~low]  # earlier: it has fewer members
                split[p] = [position[low]] + split.get(rest, [rest])
        solved = several[~cut].tolist()

    points = np.array(spec.d) * np.array([ctx.z for ctx in contexts])
    ratios = singleton_coefficients(spec) / points
    composite = [(ctx, closed[p]) for ctx in contexts for p in solved if closed[p].indices not in ctx._memo]
    reports = iter(maximize_hatS_on_slices(spec, [K for _, K in composite],
                                           [ctx.z for ctx, _ in composite], options) if composite else ())
    for ctx, point, ratio in zip(contexts, points.tolist(), ratios.tolist()):
        values = np.empty(len(closed))
        for p, K in enumerate(closed):
            result = ctx._memo.get(K.indices)
            if result is None:
                if len(K) == 1:
                    i = K.sorted[0] - 1
                    result = SigmaResult(K, ratio[i], True, (point[i],), SigmaSource.CLOSED_FORM_IRREDUCIBLE)
                elif p in split:
                    result = _sigma_split(K, [ctx._memo[closed[q].indices] for q in split[p]])
                else:
                    below = values[:p][(masks[:p] & masks[p]) == masks[:p]]
                    result = _sigma_composite(K, next(reports), float(below.max()) if below.size else None)
                ctx._memo[K.indices] = result
            values[p] = result.value


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


def sigma(spec: HomogeneousSpaceSpec, J, z, options: SolverOptions | None = None) -> SigmaResult:
    """sigma(J, T) with attainment analysis; see :class:`SigmaContext`."""
    return SigmaContext(spec, z, options).sigma(J)


def _tie_break(results: Sequence[SigmaResult]) -> SigmaResult:
    # prefer more summands, then the lexicographically smallest index set
    return min(results, key=lambda r: (-len(r.J), r.J.sorted))


def _tied_subset(results: Sequence[SigmaResult]) -> list[SigmaResult]:
    best = max(r.value for r in results)
    tol = TIE_TOLERANCE * max(1.0, abs(best))
    return [r for r in results if r.value >= best - tol]


def _apical_search(ctx: SigmaContext) -> tuple[SigmaResult, tuple[SigmaResult, ...]]:
    lattice = intermediate_subalgebras(ctx.spec)
    if not lattice.all_proper:
        raise NoProperSubalgebraError(
            "the isotropy algebra is maximal: no proper intermediate subalgebra "
            "exists, and this existence test does not cover that case"
        )
    maximal_results = ctx.closed_sigmas(lattice.maximal)
    candidates: list[SigmaResult] = []
    for start in _tied_subset(maximal_results):
        current = start
        while not current.attained:
            subs = maximal_within(ctx.spec, current.J)
            if not subs:  # unattained sigma always has somewhere to descend
                raise SolverError(f"descent stuck on {current.J} with no subalgebras")
            current = _tie_break(_tied_subset([ctx.sigma(Jp) for Jp in subs]))
        if all(current.J.indices != c.J.indices for c in candidates):
            candidates.append(current)
    candidates.sort(key=lambda r: (-len(r.J), r.J.sorted))
    return _tie_break(candidates), tuple(candidates)


def find_T_apical(spec: HomogeneousSpaceSpec, z, options: SolverOptions | None = None) -> SigmaResult:
    """A proper subalgebra with attained sigma dominating every maximal one.

    Starts from the maximal subalgebra with the largest sigma and, while the
    supremum is unattained, descends to the sub-subalgebra with the largest
    sigma; single summands always attain, so the walk terminates.  Ties are
    broken toward more summands, then lexicographically.
    """
    primary, _ = _apical_search(SigmaContext(spec, z, options))
    return primary


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


def _degenerate_verdict() -> ExistenceVerdict:
    return ExistenceVerdict(
        status=VerdictStatus.DEGENERATE_CONSTANT_RICCI,
        apical=None,
        sigma=None,
        lhs=None,
        rhs=None,
        margin=None,
    )


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
        return _degenerate_verdict()
    primary, candidates = _apical_search(ctx)
    complement = primary.J.complement(spec.s)
    lhs = primary.value * trace_Q_restricted(spec, ctx.z, complement)
    rhs = _complement_constant(spec, complement)
    margin = rhs - lhs
    return ExistenceVerdict(
        status=_classify(margin, rhs),
        apical=primary.J,
        sigma=primary,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        candidates=candidates,
    )


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
        return _degenerate_verdict()

    values = [(dims[p] - 2.0 * strength) / (2.0 * dims[p] * zs[p]) for p in range(3)]
    best = max(values)
    tol = TIE_TOLERANCE * max(1.0, abs(best))
    tied = [p for p in range(3) if values[p] >= best - tol]
    p = min(tied)

    candidates = tuple(
        SigmaResult(
            J=SubalgebraIndexSet.of(q + 1),
            value=values[q],
            attained=True,
            witness=(dims[q] * zs[q],),
            source=SigmaSource.CLOSED_FORM_IRREDUCIBLE,
        )
        for q in tied
    )
    primary = candidates[tied.index(p)]
    lhs = values[p] * sum(dims[i] * zs[i] for i in range(3) if i != p)
    rhs = 0.5 * (sum(dims) - dims[p])
    margin = rhs - lhs
    return ExistenceVerdict(
        status=_classify(margin, rhs),
        apical=primary.J,
        sigma=primary,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        candidates=candidates,
    )
