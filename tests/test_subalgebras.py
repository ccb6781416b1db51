import gc
import weakref
from itertools import combinations
from dataclasses import replace

import numpy as np
import pytest

from homricci.space_model import (
    HomogeneousSpaceSpec,
    StructureConstantTable,
    SubalgebraIndexSet,
    builtin_space,
    load_space_spec,
    wallach_space,
)
from homricci.subalgebras import (
    bracket_reach,
    intermediate_subalgebras,
    is_bracket_closed,
    maximal_within,
)

from oracles import (
    all_closed_subsets,
    components,
    is_closed_subset,
    maximal_closed_within,
    random_space_spec,
    reach_table,
    seeded_draws,
)


def _sets(items):
    return {J.indices for J in items}


def test_closure_f4_examples(f4):
    assert is_bracket_closed(f4, (2, 4))
    assert not is_bracket_closed(f4, (2,))        # the (2,2,4) bracket leaks
    assert is_bracket_closed(f4, (1, 2, 3, 4))    # full set, empty complement


def test_closure_rejects_out_of_range(g2):
    with pytest.raises(ValueError, match="out of range"):
        is_bracket_closed(g2, (1, 5))


def test_lattice_wallach():
    spec = wallach_space((14, 28, 12), 3.5)
    lattice = intermediate_subalgebras(spec)
    assert _sets(lattice.all_proper) == {frozenset({1}), frozenset({2}), frozenset({3})}
    assert _sets(lattice.maximal) == _sets(lattice.all_proper)


def test_lattice_g2(g2):
    lattice = intermediate_subalgebras(g2)
    assert _sets(lattice.all_proper) == {frozenset({2}), frozenset({3})}
    assert _sets(lattice.maximal) == _sets(lattice.all_proper)


def test_lattice_f4(f4):
    lattice = intermediate_subalgebras(f4)
    assert _sets(lattice.all_proper) == {frozenset({3}), frozenset({4}), frozenset({2, 4})}
    assert _sets(lattice.maximal) == {frozenset({3}), frozenset({2, 4})}


def test_lattice_ordering_deterministic(f4):
    lattice = intermediate_subalgebras(f4)
    assert [J.sorted for J in lattice.all_proper] == [(3,), (4,), (2, 4)]
    assert [J.sorted for J in lattice.maximal] == [(3,), (2, 4)]


def test_lattice_matches_independent_scan(g2, f4, e6):
    for spec in (g2, f4, e6):
        lattice = intermediate_subalgebras(spec)
        assert _sets(lattice.all_proper) == all_closed_subsets(spec)


def test_lattice_size_cap():
    spec = load_space_spec({"name": "big", "d": [1] * 17, "triples": []})
    with pytest.raises(ValueError, match="at most 16"):
        intermediate_subalgebras(spec)


def test_maximal_within_f4(f4):
    subs = maximal_within(f4, (2, 4))
    assert [J.sorted for J in subs] == [(4,)]


def test_maximal_within_singletons(g2):
    assert maximal_within(g2, (2,)) == []
    spec = wallach_space((4, 4, 4), 1.0)
    assert maximal_within(spec, (1,)) == []


def test_maximal_within_requires_closed(f4):
    with pytest.raises(ValueError, match="not bracket-closed"):
        maximal_within(f4, (2,))


def test_maximal_within_full_set(f4):
    subs = maximal_within(f4, (1, 2, 3, 4))
    assert {J.indices for J in subs} == {frozenset({3}), frozenset({2, 4})}


def test_wallach_singletons_closed():
    spec = wallach_space((5, 6, 7), 2.0)
    for i in (1, 2, 3):
        assert is_bracket_closed(spec, SubalgebraIndexSet.of(i))
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert not is_bracket_closed(spec, pair)


# ---------------------------------------------------------------------------
# bitmask scan against the independent closure oracle
# ---------------------------------------------------------------------------

# (seed, density): all-zero tables, sparse and dense draws; the random
# multisets include repeated indices (i,i,k), (i,k,k) and (i,i,i)
ORACLE_DRAWS = [(seed, density) for seed in range(8)
                for density in (0.0, 0.05, 0.2, 0.35, 0.7)]


def _oracle_spec(seed, density):
    rng = np.random.default_rng(1000 + seed)
    spec = random_space_spec(rng, max_summands=9, density=density)
    if seed % 3 == 0:
        spec = replace(spec, name=f"{spec.name}_b0", b=(0.0,) * spec.s)
    return spec


@pytest.mark.parametrize("seed,density", ORACLE_DRAWS)
def test_lattice_matches_oracle_on_random_specs(seed, density):
    spec = _oracle_spec(seed, density)
    lattice = intermediate_subalgebras(spec)
    closed = all_closed_subsets(spec)
    assert _sets(lattice.all_proper) == closed
    assert len(lattice.all_proper) == len(closed)
    keys = [(len(J), J.sorted) for J in lattice.all_proper]
    assert keys == sorted(keys)
    full = frozenset(range(1, spec.s + 1))
    assert _sets(lattice.maximal) == maximal_closed_within(closed, full)


@pytest.mark.parametrize("seed,density", ORACLE_DRAWS)
def test_maximal_within_matches_oracle_on_random_specs(seed, density):
    spec = _oracle_spec(seed, density)
    closed = all_closed_subsets(spec)
    full = frozenset(range(1, spec.s + 1))
    for J in sorted(closed | {full}, key=lambda K: (len(K), sorted(K))):
        subs = maximal_within(spec, J)
        assert _sets(subs) == maximal_closed_within(closed, J)
        keys = [(len(K), K.sorted) for K in subs]
        assert keys == sorted(keys)


# s = 12-16 reach the top bits of the scan.  Every draw but the densest adds
# repeated indices on the top summands: (3,3,s) leads from 3 to s, (s-1,s,s)
# from s to s-1, and (s,s,s) leads nowhere new.
WIDE_DRAWS = [(s, density) for s in (12, 13, 14, 15, 16) for density in (0.006, 0.02, 0.1)]


def _wide_spec(s, density):
    spec = random_space_spec(np.random.default_rng(2000 + s), density=density, summands=s)
    if density < 0.1:
        entries = dict(spec.triples.entries)
        entries.update({(3, 3, s): 1.0, (s - 1, s, s): 0.5, (s, s, s): 2.0})
        spec = replace(spec, triples=StructureConstantTable.from_items(entries))
    return spec


def _subsets(J):
    members = sorted(J)
    return [frozenset(i for n, i in enumerate(members) if mask >> n & 1)
            for mask in range(1, 1 << len(members))]


@pytest.mark.parametrize("s,density", WIDE_DRAWS)
def test_wide_lattice_and_maximal_within_match_oracle(s, density):
    spec = _wide_spec(s, density)
    lattice = intermediate_subalgebras(spec)
    found = _sets(lattice.all_proper)
    full = frozenset(range(1, s + 1))
    rng = np.random.default_rng(s)
    if s <= 13:  # the whole scan
        closed = all_closed_subsets(spec)
        assert found == closed
        assert _sets(lattice.maximal) == maximal_closed_within(closed, full)
    else:  # every set of at most 2 or at least s-2 summands and a seeded sample
        edges = [frozenset(J) for size in (1, 2, s - 2, s - 1) for J in combinations(full, size)]
        drawn = [frozenset(int(i) + 1 for i in np.flatnonzero(rng.random(s) < 0.5)) for _ in range(600)]
        for J in edges + drawn:
            if J and J != full:
                assert (J in found) == is_closed_subset(spec, J), sorted(J)
        members = sorted(found, key=sorted)
        for n in rng.permutation(len(members))[:150]:
            assert is_closed_subset(spec, members[n]), sorted(members[n])
    # maximal_within against the closed subsets of J judged one by one
    small = sorted((J for J in found if len(J) <= 9), key=lambda J: (len(J), sorted(J)))
    for J in small[::max(1, len(small) // 30)]:
        inside = {K for K in _subsets(J) if K != J and is_closed_subset(spec, K)}
        assert _sets(maximal_within(spec, J)) == maximal_closed_within(inside, J), sorted(J)


def test_repeated_index_multisets_close_like_the_oracle():
    # (1,1,2) leaks from {1}; (2,3,3) leaks from {3}; (4,4,4) leaks nowhere
    spec = HomogeneousSpaceSpec(
        name="repeats", d=(2, 2, 2, 2), b=(1.0,) * 4,
        triples=StructureConstantTable.from_items({(1, 1, 2): 1.0, (2, 3, 3): 1.0, (4, 4, 4): 1.0}),
    )
    lattice = intermediate_subalgebras(spec)
    assert _sets(lattice.all_proper) == all_closed_subsets(spec)
    assert frozenset({1}) not in _sets(lattice.all_proper)
    assert frozenset({3}) not in _sets(lattice.all_proper)
    assert frozenset({4}) in _sets(lattice.all_proper)


@pytest.mark.parametrize("seed", [3, 17])
def test_bracket_reach_matches_oracle(seed):
    for spec in seeded_draws(seed):
        assert bracket_reach(spec) == reach_table(spec)


# ---------------------------------------------------------------------------
# atoms, the connected closed sets, and the component rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_atoms_and_the_component_rule_match_the_oracle(seed):
    # the draws of at most 12 summands: the oracle scan grows fast above that
    disconnected = 0
    for spec in (spec for spec in seeded_draws(seed) if spec.s <= 12):
        lattice = intermediate_subalgebras(spec)
        closed = all_closed_subsets(spec)
        assert _sets(lattice.atoms) == {J for J in closed if len(components(spec, J)) == 1}
        for J in closed | {frozenset(range(1, spec.s + 1))}:
            mask = SubalgebraIndexSet.from_iterable(J).mask
            parts = [SubalgebraIndexSet.from_mask(C).indices for C in lattice.components(mask)]
            assert parts == components(spec, J)
            if len(parts) > 1:  # J with one component replaced by a maximal closed subset, or dropped
                subsets = {SubalgebraIndexSet.from_mask(K).indices for K in lattice.subsets(mask)}
                assert subsets == maximal_closed_within(closed, J), sorted(J)
                disconnected += 1
    assert disconnected >= 50, disconnected


# ---------------------------------------------------------------------------
# cache lifetime
# ---------------------------------------------------------------------------


def test_caches_drop_a_spec_when_it_dies():
    from homricci.curvature import _term_systems
    from homricci.sigma_apical import existence_check
    from homricci.subalgebras import _lattice

    name = "lifetime_probe"
    spec = load_space_spec({
        "name": name, "d": [12, 18, 4, 6],
        "triples": [{"i": 1, "j": 1, "k": 2, "value": 2}, {"i": 1, "j": 2, "k": 3, "value": 1},
                    {"i": 1, "j": 3, "k": 4, "value": "2/3"}, {"i": 2, "j": 2, "k": 4, "value": 2}],
    })
    existence_check(spec, (1.0, 1.0, 1.0, 1.0))
    caches = (_lattice.cache, _term_systems.cache)
    for cache in caches:
        assert any(key.name == name for key in list(cache.keys()))
    probe = weakref.ref(spec)
    del spec
    gc.collect()
    assert probe() is None
    for cache in caches:
        assert all(key.name != name for key in list(cache.keys()))


def test_builtin_spaces_share_one_lattice():
    first = builtin_space("F4_SU3xSU2xU1")
    second = builtin_space("F4_SU3xSU2xU1")
    assert first is second
    assert intermediate_subalgebras(first) is intermediate_subalgebras(second)
