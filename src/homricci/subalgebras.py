"""Enumeration of intermediate subalgebras as bracket-closed index sets.

With pairwise inequivalent isotropy summands, a sum of summands (plus the
isotropy algebra) is a subalgebra exactly when no bracket of two member
summands leaks into the complement: [jkl] = 0 whenever j, k are in the set
and l is not.  The test is an exact zero test on the stored constants, which
either vanish identically or are bounded away from zero.  Both the single
test and the exhaustive scan read one table per spec, :func:`bracket_reach`:
J is closed exactly when the summands reached from pairs inside J lie in J.

The lattice depends on the spec alone, so it is scanned once per spec and
kept until the spec itself is garbage collected.  It is kept as masks: the
sorted members, and a component table that splits every closed set into its
bracket-connected components, the connected closed sets ("atoms").  Index
set objects are built only for the members a caller reads: the listings
``all_proper`` and ``maximal`` on first access, and the results of
:func:`maximal_within`.
"""

from __future__ import annotations

from functools import cached_property
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


class SubalgebraLattice:
    """All proper intermediate subalgebras of one spec, kept as masks.

    ``masks`` holds the mask of every member as one read-only int64 array,
    sorted by size then lexicographically, so iteration order is
    reproducible.  ``all_proper`` lists the members as index sets in that
    order and ``maximal`` the maximal ones among them; each listing is built
    on first access.  ``atoms`` lists the connected members;
    :meth:`components` splits any closed set into its atoms, and
    :meth:`subsets` gives its maximal closed proper subsets.
    """

    def __init__(self, masks: np.ndarray, first: np.ndarray):
        self.masks = masks
        self._first = first
        self._subsets: dict[int, list[int]] = {}  # of each atom asked so far

    @cached_property
    def all_proper(self) -> tuple[SubalgebraIndexSet, ...]:
        return tuple(map(SubalgebraIndexSet.from_mask, self.masks.tolist()))

    @cached_property
    def maximal(self) -> tuple[SubalgebraIndexSet, ...]:
        return tuple(map(SubalgebraIndexSet.from_mask, _maximal_masks(self.masks)))

    @cached_property
    def atom_masks(self) -> np.ndarray:
        """Masks of the connected members, in lattice order."""
        return self.masks[self._first[self.masks] == self.masks]

    @cached_property
    def atoms(self) -> tuple[SubalgebraIndexSet, ...]:
        """The connected members, in lattice order."""
        return tuple(map(SubalgebraIndexSet.from_mask, self.atom_masks.tolist()))

    def components(self, mask: int) -> list[int]:
        """Masks of the bracket-connected components of the closed set
        ``mask`` (a member or the full set), by lowest member."""
        parts = []
        while mask:
            low = self._first.item(mask)
            if not low:
                raise ValueError(f"index set {SubalgebraIndexSet.from_mask(mask)} is not bracket-closed")
            parts.append(low)
            mask &= ~low
        return parts

    def subsets(self, mask: int) -> list[int]:
        """Masks of the maximal closed proper subsets of the closed set
        ``mask``.  An atom's are the maximal members inside it, read off the
        member masks once; those of a disconnected set are the set with one
        component C replaced by one of C's, or with C dropped where it has
        none."""
        parts = self.components(mask)
        if len(parts) > 1:
            return [J for C in parts for J in [mask & ~C | K for K in self.subsets(C)] or [mask & ~C]]
        if mask not in self._subsets:
            inside = self.masks[(self.masks | mask) == mask]
            self._subsets[mask] = _maximal_masks(inside[inside != mask])
        return self._subsets[mask]


def _maximal_masks(masks: np.ndarray) -> list[int]:
    """Masks not strictly inside another of ``masks``, which is sorted by
    size, then lexicographically; the result keeps that order.

    The last mask left lies inside no other left, since a larger one comes
    later: it is kept, and every mask inside it is dropped.
    """
    kept: list[int] = []
    while masks.size:
        kept.append(int(masks[-1]))
        masks = masks[(masks & kept[-1]) != masks]
    return kept[::-1]


def _closed(spec: HomogeneousSpaceSpec) -> np.ndarray:
    """Whether each mask of s bits is closed, as one boolean array.

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
    return np.bitwise_or(reach, masks, out=reach) == masks


# each byte with its bits in reverse order, and its number of set bits
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)])
_BYTE_SIZES = np.array([f"{b:b}".count("1") for b in range(256)])


def _lattice_order(masks: np.ndarray, s: int) -> np.ndarray:
    """``masks`` of s bits sorted by size, then lexicographically.  Among
    sets of one size, the smallest member where two differ is the highest
    bit of the masks with their s bits reversed, and the set holding it
    comes first, so the order is by size, then by reversed mask descending."""
    low, high = masks & 255, masks >> 8
    reversed_ = (_REVERSED_BYTES[low] << 8 | _REVERSED_BYTES[high]) >> (16 - s)
    return masks[np.lexsort((-reversed_, _BYTE_SIZES[low] + _BYTE_SIZES[high]))]


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


@memoize_per_spec
def _lattice(spec: HomogeneousSpaceSpec) -> SubalgebraLattice:
    """The lattice and its component table ``first``, indexed by mask: for
    every closed set, proper or full, the component holding its lowest
    member; the components of a closed set J are first[J] and those of
    J - first[J], which is closed as well."""
    masks = _lattice_order(np.flatnonzero(_closed(spec)[1:-1]) + 1, spec.s)
    masks.flags.writeable = False
    closed = np.append(masks, (1 << spec.s) - 1)
    several = closed[(closed & (closed - 1)) != 0]
    first = np.zeros(1 << spec.s, dtype=np.uint16)
    first[closed] = closed  # a single summand is its own component
    first[several] = _first_components(spec, several)
    return SubalgebraLattice(masks, first)


def intermediate_subalgebras(spec: HomogeneousSpaceSpec) -> SubalgebraLattice:
    """Exhaustive scan of all non-empty proper index sets for closure,
    computed once per spec."""
    check_summand_count(spec.s)
    return _lattice(spec)


def maximal_within(spec: HomogeneousSpaceSpec, J) -> list[SubalgebraIndexSet]:
    """Bracket-closed proper non-empty subsets of J, maximal under
    inclusion, in lattice order (:meth:`SubalgebraLattice.subsets`);
    ValueError where J is not closed."""
    mask = SubalgebraIndexSet.from_iterable(resolve_indices(spec, J)).mask
    return sorted(map(SubalgebraIndexSet.from_mask, intermediate_subalgebras(spec).subsets(mask)), key=_sort_key)


def _sort_key(J: SubalgebraIndexSet):
    return (len(J), J.sorted)
