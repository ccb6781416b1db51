"""Enumeration of intermediate subalgebras as bracket-closed index sets.

With pairwise inequivalent isotropy summands, a sum of summands (plus the
isotropy algebra) is a subalgebra exactly when no bracket of two member
summands leaks into the complement: [jkl] = 0 whenever j, k are in the set
and l is not.  The test is an exact zero test on the stored constants, which
either vanish identically or are bounded away from zero.

The lattice depends on the spec alone, so it is scanned once per spec and
kept until the spec itself is garbage collected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space_model import HomogeneousSpaceSpec, SubalgebraIndexSet, memoize_per_spec, resolve_indices

__all__ = [
    "SubalgebraLattice",
    "is_bracket_closed",
    "nonzero_slots",
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


def _as_index_set(J) -> SubalgebraIndexSet:
    if isinstance(J, SubalgebraIndexSet):
        return J
    return SubalgebraIndexSet.from_iterable(J)


@memoize_per_spec
def nonzero_slots(spec: HomogeneousSpaceSpec) -> np.ndarray:
    """Zero-based slots of every nonzero multiset, one (i, j, k) row each,
    shape (n, 3), computed once per spec and shared, hence read-only."""
    slots = np.array([[x - 1 for x in multiset] for multiset, _ in spec.triples.nonzero_multisets()],
                     dtype=np.intp).reshape(-1, 3)
    slots.flags.writeable = False
    return slots


def is_bracket_closed(spec: HomogeneousSpaceSpec, J) -> bool:
    """True when the summands named by J span a subalgebra.

    A nonzero constant on a multiset with exactly two slots inside J
    witnesses a bracket of two members landing outside, so J fails.
    """
    member = np.zeros(spec.s, dtype=np.int8)
    member[[i - 1 for i in resolve_indices(spec, J)]] = 1
    return not (member[nonzero_slots(spec)].sum(axis=1) == 2).any()


@dataclass(frozen=True)
class SubalgebraLattice:
    """All proper intermediate subalgebras and the maximal ones among them.

    Both listings are sorted by size then lexicographically, so iteration
    order is reproducible.
    """

    all_proper: tuple[SubalgebraIndexSet, ...]
    maximal: tuple[SubalgebraIndexSet, ...]

    def __len__(self) -> int:
        return len(self.all_proper)


def _sort_key(J: SubalgebraIndexSet):
    return (len(J), J.sorted)


def _maximal(members) -> list[SubalgebraIndexSet]:
    """Members not strictly inside another member.  ``members`` is sorted
    by size, then lexicographically, and the result keeps that order.

    Scanning from the largest down, a member strictly inside any other lies
    strictly inside one already kept, so only the kept ones are compared.
    """
    kept: list[SubalgebraIndexSet] = []
    for J in reversed(members):
        if not any(J < other for other in kept):
            kept.append(J)
    kept.reverse()
    return kept


def _closed_masks(spec: HomogeneousSpaceSpec) -> list[int]:
    """Bitmasks (bit i-1 for summand i) of every non-empty proper closed set.

    Every nonzero multiset drops the masks holding exactly two of its three
    slots, counted with repetition as in :func:`is_bracket_closed`.  Such a
    mask holds all of the multiset's summands but one, and the one left out
    fills a single slot: (i,j,k) drops three patterns, (i,i,k) and (i,k,k)
    one each, (i,i,i) none.  The work arrays are allocated once per scan;
    filtering into ever smaller arrays was faster but fragmented the heap,
    raising peak memory by about 1 MB over 60 scans at s = 16.
    """
    slots = nonzero_slots(spec)
    bits = np.left_shift(1, slots)
    unions = np.bitwise_or.reduce(bits, axis=1)
    drops = []
    for c in range(3):
        once = (slots[:, c] != slots[:, c - 1]) & (slots[:, c] != slots[:, c - 2])
        drops += zip(unions[once].tolist(), (unions[once] ^ bits[once, c]).tolist())
    masks = np.arange(1, (1 << spec.s) - 1, dtype=np.uint16)
    keep = np.ones(masks.shape, dtype=bool)
    inside = np.empty_like(masks)
    differs = np.empty_like(keep)
    for union, pattern in drops:
        np.bitwise_and(masks, union, out=inside)
        np.not_equal(inside, pattern, out=differs)
        keep &= differs
    return masks[keep].tolist()


@memoize_per_spec
def _lattice(spec: HomogeneousSpaceSpec) -> SubalgebraLattice:
    closed = sorted(
        (SubalgebraIndexSet.from_iterable(i + 1 for i in range(spec.s) if mask >> i & 1)
         for mask in _closed_masks(spec)),
        key=_sort_key,
    )
    return SubalgebraLattice(all_proper=tuple(closed), maximal=tuple(_maximal(closed)))


def intermediate_subalgebras(spec: HomogeneousSpaceSpec) -> SubalgebraLattice:
    """Exhaustive scan of all non-empty proper index sets for closure,
    computed once per spec."""
    check_summand_count(spec.s)
    return _lattice(spec)


def maximal_within(spec: HomogeneousSpaceSpec, J) -> list[SubalgebraIndexSet]:
    """Bracket-closed proper non-empty subsets of J, maximal under inclusion.

    Closure is tested against the full constant table; since J itself is
    closed this is equivalent to requiring brackets not to leak into J minus
    the subset.  The subsets are read off the spec's lattice.
    """
    Jset = _as_index_set(J)
    if not is_bracket_closed(spec, Jset):
        raise ValueError(f"index set {Jset} is not bracket-closed")
    lattice = intermediate_subalgebras(spec)
    return _maximal([K for K in lattice.all_proper if K < Jset])
