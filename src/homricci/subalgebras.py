"""Enumeration of intermediate subalgebras as bracket-closed index sets.

With pairwise inequivalent isotropy summands, a sum of summands (plus the
isotropy algebra) is a subalgebra exactly when no bracket of two member
summands leaks into the complement: [jkl] = 0 whenever j, k are in the set
and l is not.  The test is an exact zero test on the stored constants, which
either vanish identically or are bounded away from zero.  Both the single
test and the exhaustive scan read one table per spec, :func:`bracket_reach`:
J is closed exactly when the summands reached from pairs inside J lie in J.

The lattice depends on the spec alone, so it is scanned once per spec and
kept until the spec itself is garbage collected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .space_model import HomogeneousSpaceSpec, SubalgebraIndexSet, memoize_per_spec, resolve_indices

__all__ = [
    "SubalgebraLattice",
    "bracket_reach",
    "ordered_entries",
    "is_bracket_closed",
    "intermediate_subalgebras",
    "maximal_within",
    "check_summand_count",
]

# The exhaustive scan holds one uint16 mask per index set, and the solver's
# Halton restart grid has one prime per coordinate; both stop at 16.
MAX_EXHAUSTIVE_SUMMANDS = 16


def check_summand_count(s: int) -> None:
    """Reject spaces with more summands than the scan and the solver cover."""
    if s > MAX_EXHAUSTIVE_SUMMANDS:
        raise ValueError(
            f"homricci supports at most {MAX_EXHAUSTIVE_SUMMANDS} summands, got {s}"
        )


# the six orderings of (a, b, c); for a <= b <= c they come out sorted
_PERMUTATIONS = list(permutations(range(3)))


@memoize_per_spec
def ordered_entries(spec: HomogeneousSpaceSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every distinct ordered triple carrying a nonzero constant, as
    zero-based index arrays ``a, b, c`` and the ``values``, computed once per
    spec.  Multisets keep their order in the table and each expands to its
    1, 3 or 6 orderings in lexicographic order."""
    nonzero = spec.triples.nonzero_multisets()
    multisets = np.array([m for m, _ in nonzero], dtype=np.intp).reshape(-1, 3) - 1
    orderings = multisets[:, _PERMUTATIONS]
    same = (orderings[:, :, None] == orderings[:, None]).all(axis=3)
    first = ~np.tril(same, -1).any(axis=2)  # not a repeat of an earlier ordering
    a, b, c = orderings[first].T
    return a, b, c, np.repeat([v for _, v in nonzero], first.sum(axis=1))


@memoize_per_spec
def bracket_reach(spec: HomogeneousSpaceSpec) -> tuple[tuple[int, ...], ...]:
    """``reach[a][b]``: the summands c with [abc] != 0 as a mask (bit c-1),
    for the zero-based pair (a, b), computed once per spec."""
    a, b, c, _ = ordered_entries(spec)
    reach = np.zeros((spec.s, spec.s), dtype=np.int64)
    np.bitwise_or.at(reach, (a, b), np.left_shift(1, c))
    return tuple(map(tuple, reach.tolist()))


def is_bracket_closed(spec: HomogeneousSpaceSpec, J) -> bool:
    """True when the summands named by J span a subalgebra: no bracket of
    two members reaches a summand outside J."""
    members = resolve_indices(spec, J)
    outside = ~SubalgebraIndexSet.from_iterable(members).mask
    reach = bracket_reach(spec)
    return not any(reach[a - 1][b - 1] & outside for a in members for b in members)


@dataclass(frozen=True)
class SubalgebraLattice:
    """All proper intermediate subalgebras and the maximal ones among them.

    Both listings are sorted by size then lexicographically, so iteration
    order is reproducible.  ``masks`` holds the mask of each member of
    ``all_proper``, in its order, as one read-only int64 array.
    """

    all_proper: tuple[SubalgebraIndexSet, ...]
    maximal: tuple[SubalgebraIndexSet, ...]
    masks: np.ndarray = field(compare=False, repr=False)


def _sort_key(J: SubalgebraIndexSet):
    return (len(J), J.sorted)


def _maximal(members) -> list[SubalgebraIndexSet]:
    """Members not strictly inside another member.  ``members`` is sorted
    by size, then lexicographically, and the result keeps that order.

    Scanning from the largest down, a member strictly inside any other lies
    strictly inside one already kept, so only the kept ones are compared;
    none of them is J or smaller, so J lies strictly inside one it fits in.
    """
    kept: list[SubalgebraIndexSet] = []
    for J in reversed(members):
        if not any(J.mask & K.mask == J.mask for K in kept):
            kept.append(J)
    kept.reverse()
    return kept


def _closed_masks(spec: HomogeneousSpaceSpec) -> list[int]:
    """Masks of every non-empty proper closed set, in increasing order.

    ``reach[m]``, the union of :func:`bracket_reach` over the pairs inside
    mask m, is filled by doubling: the masks with top bit t are the masks m
    below 2^t plus t, whose new pairs are (t, t) and (a, t) for a in m; the
    union over those, ``across[m]``, doubles over a the same way.  m is
    closed when ``reach[m]`` lies inside m.
    """
    table = np.array(bracket_reach(spec), dtype=np.uint16)
    reach = np.zeros(1 << spec.s, dtype=np.uint16)
    across = np.empty(reach.size >> 1, dtype=np.uint16)
    for t in range(spec.s):
        across[0] = table[t, t]
        for a in range(t):
            np.bitwise_or(across[:1 << a], table[a, t], out=across[1 << a:2 << a])
        np.bitwise_or(reach[:1 << t], across[:1 << t], out=reach[1 << t:2 << t])
    masks = np.arange(reach.size, dtype=np.uint16)
    closed = np.bitwise_or(reach, masks, out=reach) == masks
    return (np.flatnonzero(closed[1:-1]) + 1).tolist()


@memoize_per_spec
def _lattice(spec: HomogeneousSpaceSpec) -> SubalgebraLattice:
    closed = sorted(map(SubalgebraIndexSet.from_mask, _closed_masks(spec)), key=_sort_key)
    masks = np.array([J.mask for J in closed], dtype=np.int64)
    masks.flags.writeable = False
    return SubalgebraLattice(all_proper=tuple(closed), maximal=tuple(_maximal(closed)), masks=masks)


def intermediate_subalgebras(spec: HomogeneousSpaceSpec) -> SubalgebraLattice:
    """Exhaustive scan of all non-empty proper index sets for closure,
    computed once per spec."""
    check_summand_count(spec.s)
    return _lattice(spec)


def maximal_within(spec: HomogeneousSpaceSpec, J) -> list[SubalgebraIndexSet]:
    """Bracket-closed proper non-empty subsets of J, maximal under inclusion.

    The subsets are read off the spec's lattice by one test on its mask
    array, and the same test decides that J is closed: J is the full set
    or the last (largest) lattice member inside J.
    """
    Jset = SubalgebraIndexSet.from_iterable(resolve_indices(spec, J))
    lattice, mask = intermediate_subalgebras(spec), Jset.mask
    inside = [lattice.all_proper[p] for p in np.flatnonzero((lattice.masks | mask) == mask).tolist()]
    if mask != (1 << spec.s) - 1 and (not inside or inside.pop().mask != mask):
        raise ValueError(f"index set {Jset} is not bracket-closed")
    return _maximal(inside)
