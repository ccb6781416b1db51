import itertools
import math

import numpy as np
import pytest

from homricci.sigma_apical import (
    ATTAINMENT_TOLERANCE,
    BOUNDARY_ADJACENT_RATIO,
    NoProperSubalgebraError,
    SigmaContext,
    SigmaSource,
    VerdictStatus,
    existence_check,
    existence_verdict,
    sigma_irreducible,
    wallach_existence_check,
    _complement_constant,
    _sigma_composite,
    _sigma_split,
)
from homricci.solver import OptimizationReport, SolverError, maximize_hatS_on_slices
from homricci.space_model import (
    HomogeneousSpaceSpec,
    StructureConstantTable,
    SubalgebraIndexSet,
    load_space_spec,
    wallach_space,
)
from homricci.subalgebras import intermediate_subalgebras, maximal_within

from oracles import (
    all_closed_subsets,
    bracket_free_ratios,
    bracket_free_supremum,
    brute_force_hat_curvature,
    complement_constant,
    components,
    generalized_flag_spec,
    golden_section_max,
    has_distinct_bracket,
    has_internal_bracket,
    is_closed_subset,
    psi_peak_location,
    psi_peak_value,
    psi_slice_value,
    random_space_spec,
    seeded_draws,
)


# ---------------------------------------------------------------------------
# sigma on single summands
# ---------------------------------------------------------------------------


def test_sigma_irreducible_g2(g2):
    for z2 in (1.0, 0.37, 4.2):
        res = sigma_irreducible(g2, 2, (1.0, z2, 1.0))
        assert res.value == pytest.approx(1 / (12 * z2), rel=1e-14)
        assert res.attained and res.source is SigmaSource.CLOSED_FORM_IRREDUCIBLE
        assert res.witness == (2 * z2,)
    for z3 in (1.0, 2.5):
        res = sigma_irreducible(g2, 3, (1.0, 1.0, z3))
        assert res.value == pytest.approx(3 / (8 * z3), rel=1e-14)


def test_sigma_irreducible_f4(f4):
    res = sigma_irreducible(f4, 4, (1, 1, 1, 1))
    assert res.value == pytest.approx(2 / 9, rel=1e-14)
    res3 = sigma_irreducible(f4, 3, (1, 1, 1, 1))
    assert res3.value == pytest.approx(1 / 12, rel=1e-14)


def test_sigma_irreducible_requires_closed(g2):
    with pytest.raises(ValueError, match="does not span"):
        sigma_irreducible(g2, 1, (1, 1, 1))


def test_sigma_irreducible_matches_brute_force_random():
    # sigma of a singleton is hatS at the one point of its slice; the
    # tolerance is relative to the size of the terms, which may cancel
    rng = np.random.default_rng(1212)
    checked = self_bracket = 0
    for _ in range(40):
        spec = random_space_spec(rng, max_summands=10, density=0.1)
        z = rng.uniform(0.1, 5.0, spec.s)
        for i in range(1, spec.s + 1):
            if any(spec.constant(i, i, k) for k in range(1, spec.s + 1) if k != i):
                continue  # {i} is not closed
            point = spec.d[i - 1] * z[i - 1]
            expected = brute_force_hat_curvature(spec, (i,), (point,))
            scale = abs(expected) + spec.d[i - 1] * spec.b[i - 1] / (2.0 * point)
            assert abs(sigma_irreducible(spec, i, z).value - expected) <= 1e-14 * scale
            checked += 1
            self_bracket += spec.constant(i, i, i) != 0.0
    assert checked >= 100 and self_bracket > 0, (checked, self_bracket)


def test_sigma_delegates_singletons(g2):
    via_sigma = SigmaContext(g2, (1, 1, 1)).sigma((3,))
    direct = sigma_irreducible(g2, 3, (1, 1, 1))
    assert via_sigma == direct


# ---------------------------------------------------------------------------
# sigma on the two-summand slice
# ---------------------------------------------------------------------------


def test_sigma_f4_interior_attained(f4):
    res = SigmaContext(f4, (1, 1, 1, 1)).sigma((2, 4))
    assert res.attained and res.source is SigmaSource.INTERIOR_MAXIMUM
    assert res.value == pytest.approx(psi_peak_value(1.0, 1.0), rel=1e-10)
    assert res.value == pytest.approx(7 / 18 - (math.sqrt(19) - 1) / 54, rel=1e-10)
    # witness sits on the slice and realises the value
    assert abs(18 / res.witness[0] + 6 / res.witness[1] - 1.0) < 1e-10
    assert brute_force_hat_curvature(f4, (2, 4), res.witness) == pytest.approx(res.value, rel=1e-9)
    # second coordinate is the stationary point of the one-variable reduction
    assert res.witness[1] == pytest.approx(6 * math.sqrt(19), rel=1e-8)


def test_sigma_f4_matches_golden_section(f4):
    z2, z4 = 0.8, 1.1
    res = SigmaContext(f4, (1.0, z2, 1.0, z4)).sigma((2, 4))
    v_star, value = golden_section_max(
        lambda v: psi_slice_value(z2, z4, v), 6 * z4 + 1e-9, 40 * z4
    )
    assert res.value == pytest.approx(value, rel=1e-10)
    assert res.witness[1] == pytest.approx(v_star, rel=1e-6)
    assert res.witness[1] == pytest.approx(psi_peak_location(z2, z4), rel=1e-8)


def test_sigma_f4_unattained(f4):
    res = SigmaContext(f4, (1.0, 2.0, 1.0, 1.0)).sigma((2, 4))  # z2/z4 = 2 >= 7/4
    assert not res.attained
    assert res.source is SigmaSource.BOUNDARY_RECURSION
    assert res.witness is None
    assert res.value == pytest.approx(2 / 9, rel=1e-12)


def test_sigma_degenerate_threshold_band(f4):
    # just past the attainment threshold the slice function decreases so
    # slowly that the optimizer meets its gradient tolerance right next to
    # the escape boundary; the near-escape witness must not be promoted to
    # an interior maximum, or the pivot search would certify the existence
    # inequality through the wrong subalgebra
    res = SigmaContext(f4, (1.0, 1.7501, 1.0, 1.0)).sigma((2, 4))
    assert not res.attained
    assert res.source is SigmaSource.BOUNDARY_RECURSION
    assert res.value == pytest.approx(2 / 9, rel=1e-10)
    verdict = existence_check(f4, (2.4, 1.7501, 1.0, 1.0))
    assert verdict.apical.sorted == (4,)
    assert verdict.status is VerdictStatus.INCONCLUSIVE


def test_sigma_dominates_sampled_slice_points():
    # sigma is a supremum: no point of the slice may beat it, and an
    # attained witness must lie on the slice and realise the value; a
    # solver that gives up early fails the first check.  Sparse draws keep
    # composite subalgebras common (87 over these 30 draws).
    for draw in range(30):
        rng = np.random.default_rng(9100 + draw)
        spec = random_space_spec(rng, max_summands=7, density=(0.05, 0.15, 0.35)[draw % 3])
        z = (1.0,) * spec.s
        ctx = SigmaContext(spec, z)
        for J in sorted(all_closed_subsets(spec), key=sorted):
            if len(J) < 2:
                continue
            members = sorted(J)
            result = ctx.sigma(J)
            sampled = -math.inf
            for y in np.exp(rng.uniform(-3.0, 3.0, (64, len(members)))):
                trace = sum(spec.d[i - 1] * z[i - 1] / v for i, v in zip(members, y))
                sampled = max(sampled, brute_force_hat_curvature(spec, J, trace * y))
            where = f"draw {draw}, J = {members}"
            assert result.value >= sampled - 1e-9 * max(1.0, abs(sampled)), where
            if result.attained:
                trace = sum(spec.d[i - 1] * z[i - 1] / v for i, v in zip(members, result.witness))
                assert abs(trace - 1.0) < 1e-10, where
                witnessed = brute_force_hat_curvature(spec, J, result.witness)
                assert abs(witnessed - result.value) <= 1e-9 * max(1.0, abs(result.value)), where


def test_sigma_requires_closed(f4):
    with pytest.raises(ValueError, match="not bracket-closed"):
        SigmaContext(f4, (1, 1, 1, 1)).sigma((2,))


def test_sigma_scaling_covariance(f4, g2):
    t = 2.5
    for spec, J, z in ((f4, (2, 4), (1, 1, 1, 1)), (g2, (3,), (1, 1, 1))):
        base = SigmaContext(spec, z).sigma(J)
        scaled = SigmaContext(spec, tuple(t * v for v in z)).sigma(J)
        assert scaled.value == pytest.approx(base.value / t, rel=1e-9)


def test_sigma_monotone_under_inclusion(f4):
    ctx = SigmaContext(f4, (1, 1, 1, 1))
    inner = ctx.sigma((4,))
    outer = ctx.sigma((2, 4))
    assert outer.value >= inner.value - 1e-9


def test_sigma_nonnegative_on_builtins(g2, f4, e6):
    from homricci.subalgebras import intermediate_subalgebras

    for spec in (g2, f4, e6):
        ctx = SigmaContext(spec, tuple([1.0] * spec.s))
        for J in intermediate_subalgebras(spec).all_proper:
            value = ctx.sigma(J).value
            assert 0.0 <= value < math.inf


# ---------------------------------------------------------------------------
# the smallest-first fill
# ---------------------------------------------------------------------------


def _report(value, argmax=(1.0, 2.0), converged=True):
    return OptimizationReport(argmax=argmax, value=value, iterations=5, restarts_used=1,
                              converged=converged, first_order_residual=0.0,
                              diagnostics="1 of 1 restarts stalled")


def test_attainment_rule_branches():
    J = SubalgebraIndexSet.of(1, 2)
    # an interior maximum above the bound is attained and keeps its witness
    above = _sigma_composite(J, _report(0.5), 0.4)
    assert (above.value, above.attained, above.witness, above.source) == (
        0.5, True, (1.0, 2.0), SigmaSource.INTERIOR_MAXIMUM)
    # a tie within the tolerance counts as attained, at the larger value
    tie = _sigma_composite(J, _report(0.4 - 1e-12), 0.4)
    assert tie.attained and tie.value == 0.4 and tie.witness == (1.0, 2.0)
    # with nothing inside J, a converged slice decides alone
    alone = _sigma_composite(J, _report(-0.25), None)
    assert alone.attained and alone.value == -0.25
    # below the bound, or unconverged, the supremum is the bound
    for report in (_report(0.3), _report(0.9, converged=False)):
        below = _sigma_composite(J, report, 0.4)
        assert (below.value, below.attained, below.witness, below.source) == (
            0.4, False, None, SigmaSource.BOUNDARY_RECURSION)
    # a witness spread past BOUNDARY_ADJACENT_RATIO that gains nothing over
    # the bound is a boundary limit; one that gains more is still attained
    spread = (1.0, 10.0 * BOUNDARY_ADJACENT_RATIO)
    assert not _sigma_composite(J, _report(0.4, spread), 0.4).attained
    assert _sigma_composite(J, _report(0.5, spread), 0.4).attained
    # an unconverged slice with nothing inside J has no value to fall back on
    with pytest.raises(SolverError, match=r"failed on \{1,2\} and it has no proper subalgebra"
                                          r" to recurse into: 1 of 1 restarts stalled"):
        _sigma_composite(J, _report(0.5, converged=False), None)


def _fill_draws():
    for draw in range(24):
        rng = np.random.default_rng(4400 + draw)
        spec = random_space_spec(rng, max_summands=7, density=(0.05, 0.15, 0.35)[draw % 3])
        lattice = intermediate_subalgebras(spec).all_proper
        if any(len(J) > 1 for J in lattice):
            yield spec, lattice, tuple(rng.uniform(0.3, 3.0, spec.s))


def test_fill_order_does_not_change_sigma():
    composite = 0
    for spec, lattice, z in _fill_draws():
        largest_first, smallest_first = SigmaContext(spec, z), SigmaContext(spec, z)
        by_largest = [largest_first.sigma(J) for J in reversed(lattice)][::-1]
        by_smallest = [smallest_first.sigma(J) for J in lattice]
        assert by_largest == by_smallest == SigmaContext(spec, z).sigmas(lattice), spec
        composite += sum(len(J) > 1 for J in lattice)
    assert composite >= 100, composite


def test_unattained_sigma_is_the_largest_over_maximal_subalgebras(f4):
    unattained = 0
    draws = list(_fill_draws()) + [(f4, intermediate_subalgebras(f4).all_proper, (1.0, 2.0, 1.0, 1.0))]
    for spec, lattice, z in draws:
        ctx = SigmaContext(spec, z)
        for result in ctx.sigmas(lattice):
            if not result.attained:
                inside = ctx.sigmas(maximal_within(spec, result.J))
                assert result.value == max(r.value for r in inside), (spec, result.J)
                unattained += 1
    assert unattained >= 100, unattained


def test_singleton_sigma_needs_no_lattice():
    # 17 summands is past the lattice scan, but a singleton's sigma is
    # closed-form and must not scan it
    spec = load_space_spec({"name": "wide", "d": [2] * 17,
                            "triples": [{"i": 1, "j": 2, "k": 3, "value": 1}]})
    z = tuple(1.0 + 0.1 * i for i in range(17))
    assert SigmaContext(spec, z).sigma((5,)) == sigma_irreducible(spec, 5, z)
    assert SigmaContext(spec, z).sigmas([(7,), (5,)]) == [sigma_irreducible(spec, i, z) for i in (7, 5)]
    with pytest.raises(ValueError, match="at most 16 summands"):
        SigmaContext(spec, z).sigma((4, 5))


def test_sets_read_from_the_lattice_are_not_tested_again(g2, f4, monkeypatch):
    # closure is tested where a caller passes sets in, not in the fill that
    # the existence test, the sweep and the sigma command run on lattice
    # members, nor in the pivot descent below an unattained sigma
    import homricci.sigma_apical as module
    import homricci.subalgebras as subalgebras
    from homricci.cli import run

    calls, descents, scans = [], [], []
    for owner in (module, subalgebras):
        monkeypatch.setattr(owner, "is_bracket_closed", lambda spec, J: calls.append(J) or True)
    descend = module._descend
    monkeypatch.setattr(module, "_descend", lambda ctx, lattice, J: descents.append(J) or descend(ctx, lattice, J))
    monkeypatch.setattr(module, "maximal_within", lambda spec, J: scans.append(J) or maximal_within(spec, J))
    descending = random_space_spec(np.random.default_rng(4), max_summands=8, density=0.08)
    for spec in (g2, f4, descending):
        existence_check(spec, (1.0,) * spec.s)
    assert len(descents) == 16
    # the descent scans the lattice (maximal_within) only below a connected
    # set: those 16 steps all start from disconnected sets, F4's from {2, 4}
    assert all(len(components(descending, J.sorted)) > 1 for J in descents)
    existence_check(f4, (1.0, 1.75, 1.0, 1.0))
    assert [J.sorted for J in descents[16:]] == [J.sorted for J in scans] == [(2, 4)]
    assert run(["sigma", "--builtin", "F4_SU3xSU2xU1", "--T", "1,1,1,1"]) == 0
    assert calls == []
    SigmaContext(f4, (1, 1, 1, 1)).sigmas([(4,), (2, 4)])
    assert [J.sorted for J in calls] == [(4,), (2, 4)]


# ---------------------------------------------------------------------------
# bracket-free subalgebras: hatS = sum c_i / y_i on the slice, linear in 1/y
# ---------------------------------------------------------------------------


def _record_solves(monkeypatch) -> list[list[tuple[frozenset[int], tuple[float, ...]]]]:
    """For each call the fill makes to the solver, the (J, z) of its slices."""
    import homricci.sigma_apical as module

    calls = []

    def recorder(spec, Js, zs, options=None):
        calls.append([(SubalgebraIndexSet.from_iterable(J).indices, tuple(z)) for J, z in zip(Js, zs)])
        return maximize_hatS_on_slices(spec, Js, zs, options)

    monkeypatch.setattr(module, "maximize_hatS_on_slices", recorder)
    return calls


def _ratio_gap(ratios) -> float:
    top = max(ratios)
    return (top - min(ratios)) / max(1.0, abs(top))


def test_untied_bracket_free_members_are_decided_without_a_solve(monkeypatch):
    calls = _record_solves(monkeypatch)
    rng = np.random.default_rng(1313)
    decided = escaped = kept = 0
    for draw in range(60):
        spec = random_space_spec(rng, max_summands=12, density=float(rng.uniform(0.03, 0.25)))
        z = (1.0,) * spec.s if draw % 2 else tuple(rng.uniform(0.3, 3.0, spec.s))
        lattice = intermediate_subalgebras(spec).all_proper
        if len(lattice) > 300:
            continue
        calls.clear()
        rows = SigmaContext(spec, z).closed_sigmas(lattice)
        solved = {slice_ for call in calls for slice_ in call}
        free = []
        for row in rows:
            if len(row.J) == 1 or has_internal_bracket(spec, row.J):
                kept += len(row.J) > 1
                continue
            # the tie tolerance is 1e-9; leave the oracle's rounding a margin
            gap = _ratio_gap(bracket_free_ratios(spec, row.J, z))
            if gap <= 2e-9:
                continue
            assert (row.attained, row.witness, row.source) == (False, None, SigmaSource.BOUNDARY_RECURSION)
            assert row.value == pytest.approx(bracket_free_supremum(spec, row.J, z), rel=1e-12, abs=1e-12)
            assert (row.J.indices, z) not in solved, (spec, row.J)
            decided += 1
            if gap > 1e-4:
                free.append(row.J)
        # the skipped solve would have escaped on every restart, which gives
        # the same result; each report is the one the slice gets alone
        for J, report in zip(free, maximize_hatS_on_slices(spec, free, [z] * len(free))):
            assert not report.converged, (spec, J)
            escaped += 1
    assert decided >= 200 and escaped >= 200 and kept >= 150, (decided, escaped, kept)


def _assert_witness_realises(spec, result, z):
    """An attained sigma's witness lies on the slice of J and the oracle's
    hatS there is the value."""
    members = result.J.sorted
    trace = sum(spec.d[i - 1] * z[i - 1] / y for i, y in zip(members, result.witness))
    assert abs(trace - 1.0) < 1e-12, result
    witnessed = brute_force_hat_curvature(spec, members, result.witness)
    assert witnessed == pytest.approx(result.value, rel=1e-12, abs=0.0), result


def test_tied_bracket_free_pair_is_attained_without_a_solve(monkeypatch):
    # no constants: every ratio is b_i / (2 z_i) = 1/2 at T = 1, hatS is
    # constant on each slice, and the singleton witnesses scaled by 2, the
    # point of weight 1/2 on each, witness the tie
    calls = _record_solves(monkeypatch)
    spec = load_space_spec({"name": "flat", "d": [2, 3, 5], "triples": []})
    result = SigmaContext(spec, (1, 1, 1)).sigma((1, 2))
    assert calls == []
    assert (result.value, result.attained, result.source) == (0.5, True, SigmaSource.INTERIOR_MAXIMUM)
    assert result.witness == (4.0, 6.0)
    _assert_witness_realises(spec, result, (1, 1, 1))


def test_fill_without_slices_calls_no_solver(g2, e6, monkeypatch):
    # G2 and E6 have only singletons, and the one closed pair of this
    # fully mixed s = 6 spec keeps no bracket and is not tied
    calls = _record_solves(monkeypatch)
    mixed = load_space_spec({"name": "mixed", "d": [2, 3, 4, 5, 6, 7], "triples": [
        {"i": i, "j": j, "k": k, "value": 1}
        for i, j, k in ((1, 3, 4), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 5, 6), (1, 5, 6))]})
    assert [J.sorted for J in intermediate_subalgebras(mixed).all_proper if len(J) > 1] == [(1, 2)]
    for spec in (g2, e6, mixed):
        existence_check(spec, (1.0,) * spec.s)
    SigmaContext(mixed, (1.0, 1.1, 1.0, 1.0, 1.0, 1.0)).sigma((1, 2))
    assert calls == []
    assert not SigmaContext(mixed, (1.0,) * 6).sigma((1, 2)).attained


def test_slice_with_an_internal_bracket_keeps_its_solve():
    # [568] lies inside {5,6,8}, so hatS there is not linear in 1/y and its
    # interior maximum beats the singleton bound sigma({6}) = 13/54
    spec = load_space_spec({"name": "sparse8_1", "d": [2, 11, 3, 4, 4, 9, 12, 1], "triples": [
        {"i": 1, "j": 3, "k": 4, "value": "3"}, {"i": 2, "j": 2, "k": 4, "value": "4/3"},
        {"i": 5, "j": 6, "k": 8, "value": "7/3"}, {"i": 7, "j": 7, "k": 8, "value": "3/2"}]})
    result = SigmaContext(spec, (1,) * 8).sigma((5, 6, 8))
    assert result.attained and result.source is SigmaSource.INTERIOR_MAXIMUM
    assert result.value == pytest.approx(0.2477054901850529, rel=1e-12)
    assert result.value > SigmaContext(spec, (1,) * 8).sigma((6,)).value == 0.24074074074074073


def test_near_tied_bracket_free_pair_is_not_attained():
    # ratios 1/4 and 1/4 / (1 + 1e-7): hatS on the {1,2} slice rises toward
    # y_2 -> inf, where the solver used to stop on a flat ray and report an
    # attained maximum at a witness spread of about 1e5
    spec = load_space_spec({"name": "near_tie", "d": [2, 2, 2], "triples": [
        {"i": 1, "j": 3, "k": 3, "value": 1}, {"i": 2, "j": 3, "k": 3, "value": 1}]})
    T = (1.0, 1.0000001, 1.0)
    assert not SigmaContext(spec, T).sigma((1, 2)).attained
    verdict = existence_check(spec, T)
    assert verdict.apical.sorted == (1,) and verdict.sigma.value == 0.25

def test_exactly_tied_bracket_free_pair_is_attained_without_a_solve(monkeypatch):
    # the ratios tie at 1/4, hatS is constant on the slice, and the pair
    # is the pivot with the singleton witnesses (2,) and (2,) scaled by 2
    calls = _record_solves(monkeypatch)
    spec = load_space_spec({"name": "near_tie", "d": [2, 2, 2], "triples": [
        {"i": 1, "j": 3, "k": 3, "value": 1}, {"i": 2, "j": 3, "k": 3, "value": 1}]})
    tied = existence_check(spec, (1, 1, 1)).sigma
    assert calls == []
    assert (tied.J.sorted, tied.value, tied.attained, tied.witness) == ((1, 2), 0.25, True, (4.0, 4.0))
    _assert_witness_realises(spec, tied, (1, 1, 1))


# ---------------------------------------------------------------------------
# disconnected subalgebras: sigma is the largest sigma of a component
# ---------------------------------------------------------------------------


def _lattice_fills(calls):
    """(spec, context, rows, slices solved) for the whole lattice of each
    seeded draw at T = 1, at a random T, and at the T where every singleton
    with c_i > 0 has ratio c_i / (d_i z_i) = 1, so that components tie."""
    rng = np.random.default_rng(1717)
    for seed in (3, 17, 7):
        for spec in seeded_draws(seed):
            lattice = intermediate_subalgebras(spec).all_proper
            c = [brute_force_hat_curvature(spec, (i,), (1.0,)) for i in range(1, spec.s + 1)]
            tied = tuple(ci / di if ci > 0 else 1.0 for ci, di in zip(c, spec.d))
            for z in ((1.0,) * spec.s, tuple(rng.uniform(0.3, 3.0, spec.s)), tied):
                calls.clear()
                ctx = SigmaContext(spec, z)
                rows = ctx.closed_sigmas(lattice)
                yield spec, ctx, rows, {J for call in calls for J, _ in call}


def test_only_connected_slices_reach_the_solver(monkeypatch):
    # a pair is decided in closed form whether or not it is connected; a
    # larger connected set is solved unless its hatS is concave (no bracket
    # of three distinct members) and a face certificate leaves its
    # supremum unattained at the bound
    calls = _record_solves(monkeypatch)
    disconnected = pairs = connected = certified = 0
    for spec, ctx, rows, solved in _lattice_fills(calls):
        for row in rows:
            if len(row.J) > 1:
                split = len(components(spec, row.J.sorted)) > 1
                pair = len(row.J) == 2 and not split
                where = (spec, ctx.z, row.J)
                if split or pair:
                    assert row.J.indices not in solved, where
                elif row.J.indices in solved:
                    connected += 1
                else:
                    assert not has_distinct_bracket(spec, row.J.sorted), where
                    assert (row.attained, row.witness, row.source) == (
                        False, None, SigmaSource.BOUNDARY_RECURSION), where
                    certified += 1
                disconnected += split
                pairs += pair
    assert disconnected >= 2000 and pairs >= 100 and connected >= 100 and certified >= 20, (
        disconnected, pairs, connected, certified)


def test_disconnected_sigma_is_the_largest_component_sigma():
    untied = tied = 0
    for spec, ctx, rows, _ in _lattice_fills([]):
        for row in rows:
            parts = [ctx.sigma(K) for K in components(spec, row.J.sorted)]
            if len(parts) < 2:
                continue
            top = max(part.value for part in parts)
            where = (spec, ctx.z, row.J)
            assert row.value == top, where
            tol = ATTAINMENT_TOLERANCE * max(1.0, abs(top))
            if not all(part.attained and part.value >= top - tol for part in parts):
                assert (row.attained, row.witness, row.source) == (False, None, SigmaSource.BOUNDARY_RECURSION), where
                untied += 1
                continue
            # the point of weight 1/m on each component's witness
            assert row.attained and row.source is SigmaSource.INTERIOR_MAXIMUM, where
            coords = {i: len(parts) * y for part in parts for i, y in zip(part.J.sorted, part.witness)}
            assert row.witness == tuple(coords[i] for i in row.J.sorted), where
            trace = sum(spec.d[i - 1] * ctx.z[i - 1] / y for i, y in zip(row.J.sorted, row.witness))
            assert abs(trace - 1.0) < 1e-12, where
            witnessed = brute_force_hat_curvature(spec, row.J.sorted, row.witness)
            assert abs(witnessed - top) <= 2 * tol, where
            tied += 1
    assert untied >= 2000 and tied >= 15, (untied, tied)


@pytest.mark.parametrize("seed", range(4))
def test_disconnected_rows_are_the_split_of_their_component_rows(seed):
    # the whole table of each draw of at most 12 summands, at T = 1 and at a
    # random T; components by the oracle, each a row of the same table
    rng = np.random.default_rng(seed)
    split = 0
    for spec in (spec for spec in seeded_draws(seed) if spec.s <= 12):
        lattice = intermediate_subalgebras(spec).all_proper
        for z in ((1.0,) * spec.s, tuple(rng.uniform(0.3, 3.0, spec.s))):
            rows = dict(zip((J.indices for J in lattice), SigmaContext(spec, z).closed_sigmas(lattice)))
            for J, row in rows.items():
                parts = [rows[C] for C in components(spec, J)]
                if len(parts) < 2:
                    continue
                assert row == _sigma_split(row.J, parts), (spec, z, sorted(J))
                top = max(part.value for part in parts)
                assert row.value == top
                band = ATTAINMENT_TOLERANCE * max(1.0, abs(top))
                assert row.attained == all(part.attained and part.value >= top - band for part in parts)
                split += 1
    assert split >= 100, split


def test_a_tied_disconnected_set_is_a_second_face():
    # {1}, {2} and their union {1,2} are closed, and the full set is one
    # atom: the face certificate of an atom may fire only when one attained
    # closed set sits at its bound, and {1,2} is a second one exactly when
    # _sigma_split calls it attained, even where {2} alone is outside the band
    import homricci.sigma_apical as module

    spec = load_space_spec({"name": "fan", "d": [2, 2, 2], "triples": [
        {"i": i, "j": 3, "k": 3, "value": 1} for i in (1, 2)]})
    lattice = intermediate_subalgebras(spec)
    assert [J.sorted for J in lattice.atoms] == [(1,), (2,)] and lattice.components(0b011) == [1, 2]
    ctx = SigmaContext(spec, (1.0, 1.0, 1.0))
    face = module.SigmaResult(SubalgebraIndexSet.of(1), 1.0, True, (1.0,), SigmaSource.CLOSED_FORM_IRREDUCIBLE)
    for offset in (0.0, 0.5, 0.999, 1.001, 2.0):
        for attained in (True, False):
            other = module.SigmaResult(SubalgebraIndexSet.of(2), 1.0 - offset * ATTAINMENT_TOLERANCE, attained,
                                       (1.0,) if attained else None, SigmaSource.CLOSED_FORM_IRREDUCIBLE)
            ctx._memo = {1: face, 2: other}
            union = _sigma_split(SubalgebraIndexSet.of(1, 2), [face, other])
            assert module._tied_union(ctx, lattice, [1, 2], 1) == union.attained == (attained and offset < 1)


def _disjoint_union(A, B):
    """A on summands 1..s_A and B on the rest, with no bracket between them."""
    entries = dict(A.triples.entries)
    entries.update({(i + A.s, j + A.s, k + A.s): v for (i, j, k), v in B.triples.entries})
    return HomogeneousSpaceSpec(name=f"{A.name}+{B.name}", d=A.d + B.d, b=A.b + B.b,
                                triples=StructureConstantTable.from_items(entries))


def _union_pairs(g2, f4):
    yield g2, f4, (1.0, 0.5, 1.2), (1.0, 2.0, 1.0, 1.0)
    yield f4, g2, (1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0)
    rng = np.random.default_rng(2323)
    while True:
        A, B = (random_space_spec(rng, max_summands=5, density=0.3) for _ in range(2))
        if A.s + B.s <= 9:
            yield A, B, tuple(rng.uniform(0.5, 2.0, A.s)), tuple(rng.uniform(0.5, 2.0, B.s))


def test_disjoint_union_takes_the_larger_sigma(g2, f4):
    # every closed set of the union is J_A + J_B with J_A, J_B closed or
    # empty, and sigma(J_A + J_B) = max(sigma(J_A), sigma(J_B)) when both
    # parts are non-empty; each part has the sigma it has in its own space
    checked = verdicts = 0
    for A, B, zA, zB in itertools.islice(_union_pairs(g2, f4), 16):
        union, z = _disjoint_union(A, B), zA + zB
        parts = [[frozenset()] + sorted(all_closed_subsets(X) | {frozenset(range(1, X.s + 1))}, key=sorted)
                 for X in (A, B)]
        expected = {JA | {i + A.s for i in JB} for JA in parts[0] for JB in parts[1]}
        lattice = intermediate_subalgebras(union).all_proper
        assert {J.indices for J in lattice} == expected - {frozenset(), frozenset(range(1, union.s + 1))}
        ctx = SigmaContext(union, z)
        for JA in parts[0][1:]:
            for JB in parts[1][1:]:
                shifted = sorted(i + A.s for i in JB)
                alone = SigmaContext(A, zA).sigma(sorted(JA)).value, SigmaContext(B, zB).sigma(sorted(JB)).value
                inside = ctx.sigma(sorted(JA)).value, ctx.sigma(shifted).value
                assert inside == pytest.approx(alone, rel=1e-12, abs=1e-12), (A, B, JA, JB)
                assert ctx.sigma(sorted(JA) + shifted).value == max(inside), (A, B, JA, JB)
                checked += 1
        verdict = existence_check(union, z)
        if verdict.status is VerdictStatus.DEGENERATE_CONSTANT_RICCI:
            continue
        pivot = verdict.sigma
        assert pivot.attained and pivot.J.indices in expected and pivot == ctx.sigma(pivot.J), (A, B)
        for M in intermediate_subalgebras(union).maximal:
            assert pivot.value >= ctx.sigma(M).value - 1e-9 * max(1.0, abs(pivot.value)), (A, B, M)
        witnessed = brute_force_hat_curvature(union, pivot.J.sorted, pivot.witness)
        assert abs(witnessed - pivot.value) <= 1e-9 * max(1.0, abs(pivot.value)), (A, B)
        assert math.isclose(verdict.rhs, complement_constant(union, pivot.J.complement(union.s)),
                            rel_tol=1e-12, abs_tol=1e-12)
        verdicts += 1
    assert checked >= 100 and verdicts >= 12, (checked, verdicts)


# ---------------------------------------------------------------------------
# connected pairs: on the slice segment hatS is strictly concave in u = 1/y
# ---------------------------------------------------------------------------


def test_f4_pair_is_attained_below_seven_quarters(f4, monkeypatch):
    # {2,4} peaks inside its slice exactly when z2/z4 < 7/4; from there on
    # the supremum is the face {4}, sigma({4}) = 2 / (9 z4), and no slice
    # of F4 is solved on either side
    calls = _record_solves(monkeypatch)
    for z4 in (0.6, 1.0, 2.5):
        for ratio in (0.3, 1.0, 1.5, 1.74, 1.749, 1.75, 1.751, 1.76, 2.0, 5.0):
            z = (1.0, ratio * z4, 1.0, z4)
            result = SigmaContext(f4, z).sigma((2, 4))
            if ratio < 1.75:
                assert result.attained and result.source is SigmaSource.INTERIOR_MAXIMUM, z
                assert result.value == pytest.approx(psi_peak_value(z[1], z4), rel=1e-12), z
                assert result.witness[1] == pytest.approx(psi_peak_location(z[1], z4), rel=1e-12), z
                _assert_witness_realises(f4, result, z)
            else:
                assert (result.attained, result.witness, result.source) == (
                    False, None, SigmaSource.BOUNDARY_RECURSION), z
                assert result.value == SigmaContext(f4, z).sigma((4,)).value == pytest.approx(2 / (9 * z4), rel=1e-14), z
    # at z2 = 7/4 (1 - delta), z4 = 1, hatS leaves the face with slope
    # (2/9) delta / (1 - delta): attained above the band 1e-9, a tie below it
    assert SigmaContext(f4, (1.0, 1.75 * (1.0 - 1e-7), 1.0, 1.0)).sigma((2, 4)).attained
    assert not SigmaContext(f4, (1.0, 1.75 * (1.0 - 1e-9), 1.0, 1.0)).sigma((2, 4)).attained
    assert calls == []


def _connected_pairs():
    """(spec, pair, z) for every connected closed pair of the seeded draws,
    at T = 1 and at a random T."""
    rng = np.random.default_rng(1818)
    for seed in (3, 17, 7):
        for spec in seeded_draws(seed):
            lattice = intermediate_subalgebras(spec).all_proper
            pairs = [J.sorted for J in lattice if len(J) == 2 and len(components(spec, J.sorted)) == 1]
            for z in ((1.0,) * spec.s, tuple(rng.uniform(0.3, 3.0, spec.s))):
                for J in pairs:
                    yield spec, J, z


def test_connected_pair_matches_golden_section_on_its_segment(monkeypatch):
    # with t = d_i z_i / y_i the slice is the segment 0 < t < 1; the oracle
    # maximises hatS along it by golden section, and a face t -> 0 or 1 that
    # is a closed singleton has that singleton's hatS as its limit
    calls = _record_solves(monkeypatch)
    attained = unattained = 0
    for spec, J, z in _connected_pairs():
        a, b = (spec.d[i - 1] * z[i - 1] for i in J)
        _, interior = golden_section_max(
            lambda t: brute_force_hat_curvature(spec, J, (a / t, b / (1.0 - t))), 1e-9, 1.0 - 1e-9)
        faces = [brute_force_hat_curvature(spec, (i,), (spec.d[i - 1] * z[i - 1],))
                 for i in J if is_closed_subset(spec, {i})]
        limit = max(faces, default=-math.inf)
        result = SigmaContext(spec, z).sigma(J)
        where = (spec, J, z)
        assert result.value == pytest.approx(max(interior, limit), rel=1e-12, abs=0.0), where
        assert result.attained is (interior > limit), where
        if result.attained:
            _assert_witness_realises(spec, result, z)
            attained += 1
        else:
            assert (result.witness, result.source) == (None, SigmaSource.BOUNDARY_RECURSION), where
            unattained += 1
    assert calls == []
    assert attained >= 30 and unattained >= 50, (attained, unattained)


def test_connected_pair_is_exact_under_uneven_scaling():
    # z_i and z_j far apart put the peak within 1e-150 of a face in t, but
    # not in the ratio y_j / y_i; sampled along the slice by that ratio, no
    # point beats sigma, and the witness realises it (y stays below 1e151,
    # where the oracle's products y_i y_j are finite)
    spec = load_space_spec({"name": "uneven", "d": [2, 3, 2], "triples": [
        {"i": 1, "j": 1, "k": 2, "value": 1}, {"i": 1, "j": 2, "k": 2, "value": 0.5},
        {"i": 1, "j": 3, "k": 3, "value": 1}]})
    for z in ((1e150, 1.0, 1.0), (1.0, 1e150, 1.0), (1e-150, 1.0, 1.0), (1.0, 1e-150, 1.0), (1e-300, 1.0, 1.0)):
        result = SigmaContext(spec, z).sigma((1, 2))
        a, b = 2.0 * z[0], 3.0 * z[1]
        sampled = max(brute_force_hat_curvature(spec, (1, 2), (a + b / r, a * r + b))
                      for r in np.logspace(-6.0, 6.0, 1201))
        assert result.attained and sampled <= result.value * (1.0 + 1e-12), (z, result.value, sampled)
        _assert_witness_realises(spec, result, z)


def test_flat_ray_at_a_face_is_not_attained():
    # every singleton ratio is 1 here, and [122] is the only bracket inside
    # {1,2}: hatS on its slice leaves the face {1} with slope 0, so the
    # supremum stays on the face.  A solve stopped on that flat ray and
    # made {1,2} an attained pivot with margin 0.0 at a witness (1.07, 4.6e5).
    spec = next(seeded_draws(6))
    c = [brute_force_hat_curvature(spec, (i,), (1.0,)) for i in range(1, spec.s + 1)]
    z = tuple(ci / di for ci, di in zip(c, spec.d))
    pair = SigmaContext(spec, z).sigma((1, 2))
    assert (pair.value, pair.attained, pair.witness) == (SigmaContext(spec, z).sigma((1,)).value, False, None)
    verdict = existence_check(spec, z)
    assert verdict.apical.sorted == (1,) and verdict.status is VerdictStatus.INCONCLUSIVE


# ---------------------------------------------------------------------------
# concave slices: without a bracket of three distinct members, hatS is
# concave in u = 1/y, and a face certificate can show the supremum unattained
# ---------------------------------------------------------------------------


def test_concave_slice_left_on_a_face_is_decided_without_a_solve(monkeypatch):
    # {3,4,6} keeps [344] and [446] but no bracket of three distinct members.
    # Its bound is sigma({3}) = -1/4, attained, and leaving that face along
    # w = (w4, w6) changes hatS at the rate 4.5 w4 - 5.25 w6 - w4^2/w6 <=
    # -0.1875 w6 < 0 (with 6 w4 + 2 w6 = 1), so the supremum stays on it
    calls = _record_solves(monkeypatch)
    spec = load_space_spec({"name": "sparse8_0", "d": [3, 1, 1, 6, 9, 2, 9, 11], "triples": [
        {"i": 1, "j": 8, "k": 8, "value": "3"}, {"i": 2, "j": 5, "k": 6, "value": "3/4"},
        {"i": 3, "j": 4, "k": 4, "value": "3/2"}, {"i": 4, "j": 4, "k": 6, "value": "4"},
        {"i": 5, "j": 6, "k": 8, "value": "4"}]})
    T = (1,) * 8
    result = SigmaContext(spec, T).sigma((3, 4, 6))
    assert calls == []
    assert (result.value, result.attained, result.witness, result.source) == (
        -0.25, False, None, SigmaSource.BOUNDARY_RECURSION)
    forced = maximize_hatS_on_slices(spec, [(3, 4, 6)], [T])[0]
    assert _sigma_composite(result.J, forced, -0.25) == result
    existence_check(spec, T)
    assert [sorted(J) for call in calls for J, _ in call] == [[1, 2, 5, 6, 8], [1, 2, 3, 4, 5, 6, 8]]
    # off the face, g(w) = 3 w4 - 5.75 w6 - w4^2/w6 on 6 w4 + 2 w6 = 1, and
    # b = -1/(4 z_3) crosses sup g at z_3 = -1/(4 sup g): below it hatS peaks
    # inside and the slice is solved to an attained maximum, above it the
    # certificate closes; on both sides the row is the forced solve's
    _, top = golden_section_max(lambda t: 3.0 * t / 6.0 - 5.75 * (1.0 - t) / 2.0
                                - (t / 6.0) ** 2 / ((1.0 - t) / 2.0), 1e-12, 1.0 - 1e-12)
    for f in (0.9, 0.99, 0.999, 1.001, 1.01, 1.1):
        calls.clear()
        ctx = SigmaContext(spec, (1, 1, -0.25 / top * f, 1, 1, 1, 1, 1))
        result = ctx.sigma((3, 4, 6))
        forced = maximize_hatS_on_slices(spec, [(3, 4, 6)], [ctx._frame])[0]
        assert result == _sigma_composite(result.J, forced, ctx.sigma((3,)).value), f
        assert (result.attained, calls == []) == (f < 1.0, f > 1.0), f
    # where the maximum off the face leaves the float range (c_4 = 6e300,
    # c_6 = 2e-300) the certificate gives no bound, and the slice is solved
    calls.clear()
    SigmaContext(spec, (1, 1e-150, 1e300, 1e300, 1, 1e-300, 1, 1)).sigma((3, 4, 6))
    assert [sorted(J) for call in calls for J, _ in call] == [[3, 4, 6]]


def test_concave_slices_decided_on_a_face_match_the_forced_solve(monkeypatch):
    # every connected set of three or more members without a bracket of three
    # distinct members is either solved or decided by its face certificate;
    # a decided row is what the 16-restart solve and the attainment rule give
    # (so the certificate never fires where that solve attains), and no
    # sampled point of its slice beats the bound
    calls = _record_solves(monkeypatch)
    rng, sampler = np.random.default_rng(2424), np.random.default_rng(2425)
    certified = solved = 0
    for draw in range(400):
        spec = random_space_spec(rng, max_summands=8, density=float(rng.uniform(0.03, 0.25)))
        z = (1.0,) * spec.s if draw % 2 else tuple(rng.uniform(0.3, 3.0, spec.s))
        calls.clear()
        ctx = SigmaContext(spec, z)
        rows = ctx.closed_sigmas(intermediate_subalgebras(spec).all_proper)
        solved_sets = {J for call in calls for J, _ in call}
        for row in rows:
            members = row.J.sorted
            if len(members) < 3 or len(components(spec, members)) > 1 or has_distinct_bracket(spec, members):
                continue
            if row.J.indices in solved_sets:
                solved += 1
                continue
            where = (spec, z, members)
            bound = max(r.value for r in ctx._framed(maximal_within(spec, row.J)))
            forced = maximize_hatS_on_slices(spec, [row.J], [ctx._frame])[0]
            assert ctx._framed([row.J])[0] == _sigma_composite(row.J, forced, bound), where
            assert (row.attained, row.witness, row.source) == (False, None, SigmaSource.BOUNDARY_RECURSION), where
            for y in np.exp(sampler.uniform(-6.0, 6.0, (64, len(members)))):
                trace = sum(spec.d[i - 1] * z[i - 1] / v for i, v in zip(members, y))
                sampled = brute_force_hat_curvature(spec, members, trace * y)
                assert sampled <= row.value + 1e-9 * max(1.0, abs(row.value)), (where, sampled)
            certified += 1
    assert certified >= 30 and solved >= 25, (certified, solved)


@pytest.mark.parametrize("seed", [3, 17])
def test_complement_constant_matches_oracle(seed):
    # the complement of every closed set of each draw, and the verdict's rhs
    # on the draws small enough to check quickly
    verdicts = 0
    for spec in seeded_draws(seed):
        constants = [v for _, v in spec.triples.entries]
        tol = 1e-12 * max(1.0, sum(d * b for d, b in zip(spec.d, spec.b)) + spec.s ** 3 * max(constants, default=0.0))
        for J in intermediate_subalgebras(spec).all_proper:
            complement = J.complement(spec.s)
            assert math.isclose(_complement_constant(spec, complement), complement_constant(spec, complement),
                                rel_tol=1e-12, abs_tol=tol)
        if spec.s <= 8:
            try:
                verdict = existence_check(spec, (1.0,) * spec.s)
            except (NoProperSubalgebraError, SolverError):
                continue
            if verdict.status is not VerdictStatus.DEGENERATE_CONSTANT_RICCI:
                expected = complement_constant(spec, verdict.apical.complement(spec.s))
                assert math.isclose(verdict.rhs, expected, rel_tol=1e-12, abs_tol=tol)
                verdicts += 1
    assert verdicts >= 5


# ---------------------------------------------------------------------------
# pivot search
# ---------------------------------------------------------------------------


def test_apical_g2_small_z2(g2):
    res = existence_check(g2, (1.0, 0.1, 1.0)).sigma
    assert res.J.sorted == (2,)
    assert res.value == pytest.approx(1 / 1.2, rel=1e-12)


def test_apical_g2_unit(g2):
    res = existence_check(g2, (1, 1, 1)).sigma
    assert res.J.sorted == (3,)
    assert res.value == pytest.approx(3 / 8, rel=1e-14)


def test_apical_f4_descends(f4):
    res = existence_check(f4, (1.0, 2.0, 1.0, 1.0)).sigma
    assert res.J.sorted == (4,)
    assert res.attained
    assert res.value == pytest.approx(2 / 9, rel=1e-12)


def test_apical_dominates_maximal(f4):
    from homricci.subalgebras import intermediate_subalgebras

    z = (1.0, 2.0, 1.0, 1.0)
    ctx = SigmaContext(f4, z)
    apical = existence_check(f4, z).sigma
    for J in intermediate_subalgebras(f4).maximal:
        assert apical.value >= ctx.sigma(J).value - 1e-9


def test_apical_tie_reports_both_candidates(g2):
    verdict = existence_check(g2, (1.0, 2.0 / 9.0, 1.0))
    assert {c.J.sorted for c in verdict.candidates} == {(2,), (3,)}
    assert verdict.apical.sorted == (2,)  # equal size, lexicographically first


def test_apical_requires_proper_subalgebra():
    spec = load_space_spec({
        "name": "locked", "d": [2, 2],
        "triples": [{"i": 1, "j": 1, "k": 2, "value": 1},
                    {"i": 1, "j": 2, "k": 2, "value": 1}],
    })
    with pytest.raises(NoProperSubalgebraError):
        existence_check(spec, (1, 1))


# ---------------------------------------------------------------------------
# existence verdicts
# ---------------------------------------------------------------------------


def test_existence_g2_guaranteed(g2):
    verdict = existence_check(g2, (1, 1, 1))
    assert verdict.status is VerdictStatus.GUARANTEED
    assert verdict.apical.sorted == (3,)
    assert verdict.lhs == pytest.approx(2.25, abs=1e-15)
    assert verdict.rhs == pytest.approx(2.5, abs=1e-15)
    assert verdict.margin == pytest.approx(0.25, abs=1e-14)


def test_existence_g2_inconclusive(g2):
    verdict = existence_check(g2, (2, 1, 1))
    assert verdict.status is VerdictStatus.INCONCLUSIVE
    assert verdict.margin < 0


def test_existence_g2_region_boundary(g2):
    delta = 0.01
    z2 = 2.0 / 9.0
    below = existence_check(g2, (5.0 / 3.0 - delta, z2, 1.0))
    above = existence_check(g2, (5.0 / 3.0 + delta, z2, 1.0))
    assert below.status is VerdictStatus.GUARANTEED
    assert above.status is VerdictStatus.INCONCLUSIVE


def test_existence_boundary_status(g2):
    # z chosen to put the decisive inequality exactly at equality
    verdict = existence_check(g2, (4.0, 2.0, 3.0))
    assert verdict.apical.sorted == (3,)
    assert verdict.status is VerdictStatus.BOUNDARY
    assert abs(verdict.margin) <= 1e-10 * max(1.0, abs(verdict.rhs))


def test_existence_rhs_nonnegative_on_builtins(g2, f4, e6):
    rng = np.random.default_rng(3)
    for spec in (g2, f4, e6):
        for _ in range(10):
            z = tuple(rng.uniform(0.2, 3.0, spec.s))
            verdict = existence_check(spec, z)
            assert verdict.rhs >= 0.0


def test_existence_status_scale_invariant(g2, f4):
    rng = np.random.default_rng(5)
    for spec in (g2, f4):
        for _ in range(10):
            z = tuple(rng.uniform(0.2, 3.0, spec.s))
            t = float(rng.uniform(0.1, 9.0))
            a = existence_check(spec, z)
            b = existence_check(spec, tuple(t * v for v in z))
            assert a.status == b.status
            assert b.sigma.value == pytest.approx(a.sigma.value / t, rel=1e-9)


def _verdict_and_table(spec, z):
    """The verdict and the lattice's sigma table at z, or the type of the
    error that the check raises."""
    ctx = SigmaContext(spec, z)
    try:
        return existence_verdict(ctx), ctx.closed_sigmas(intermediate_subalgebras(spec).all_proper)
    except (NoProperSubalgebraError, SolverError) as error:
        return type(error), None


def test_verdict_is_bitwise_invariant_under_power_of_two_rescaling():
    # sigma scales as 1/T and its witness as T; at 2^k T the status, pivot
    # and margin are those at T, and every sigma and witness is the one at T
    # times 2^-k and 2^k, bit for bit
    rng = np.random.default_rng(2301)
    checked = 0
    for _ in range(60):
        spec = random_space_spec(rng, max_summands=8, density=0.15)
        z = tuple(float(v) for v in rng.uniform(0.5, 2.0, spec.s))
        base, rows = _verdict_and_table(spec, z)
        for k in (-40, -30, 30, 40):
            scaled, scaled_rows = _verdict_and_table(spec, tuple(math.ldexp(v, k) for v in z))
            if rows is None:
                assert scaled is base, (spec, k)
                continue
            where = (spec, z, k)
            assert (scaled.status, scaled.apical, scaled.lhs, scaled.rhs, scaled.margin, len(scaled.candidates)) == (
                base.status, base.apical, base.lhs, base.rhs, base.margin, len(base.candidates)), where
            for got, want in zip(scaled_rows + list(scaled.candidates), rows + list(base.candidates)):
                assert (got.J, got.attained, got.source) == (want.J, want.attained, want.source), where
                assert math.ldexp(got.value, k) == want.value, where
                assert got.witness == (None if want.witness is None
                                       else tuple(math.ldexp(y, k) for y in want.witness)), where
            checked += 1
    assert checked >= 150, checked


def _relabelled(spec, order):
    """``spec`` with summand ``order[p]`` renamed p + 1, and the renaming."""
    new = {old: p + 1 for p, old in enumerate(order)}
    entries = {tuple(sorted(new[i] for i in m)): v for m, v in spec.triples.entries}
    return HomogeneousSpaceSpec(name=spec.name, d=tuple(spec.d[i - 1] for i in order),
                                b=tuple(spec.b[i - 1] for i in order),
                                triples=StructureConstantTable.from_items(entries)), new


def test_relabelling_the_summands_permutes_the_sigma_table():
    rng = np.random.default_rng(2302)
    checked = 0
    for _ in range(103):
        spec = random_space_spec(rng, max_summands=8, density=0.15)
        z = tuple(float(v) for v in rng.uniform(0.5, 2.0, spec.s))
        order = [int(p) + 1 for p in rng.permutation(spec.s)]
        other, new = _relabelled(spec, order)
        verdict, rows = _verdict_and_table(spec, z)
        moved, moved_rows = _verdict_and_table(other, tuple(z[i - 1] for i in order))
        if rows is None:
            assert moved is verdict, spec
            continue
        where = (spec, order)
        assert moved.status == verdict.status, where
        assert (moved.apical is None) is (verdict.apical is None), where
        if verdict.apical is not None:
            assert moved.apical.indices == {new[i] for i in verdict.apical}, where
        table = {frozenset(new[i] for i in row.J): row for row in rows}
        assert set(table) == {row.J.indices for row in moved_rows}, where
        for row in moved_rows:
            want = table[row.J.indices]
            assert (row.attained, row.source) == (want.attained, want.source), (where, row.J)
            assert row.value == pytest.approx(want.value, rel=1e-12, abs=1e-12), (where, row.J)
        checked += 1
    assert checked >= 80, checked


def test_generalized_flag_manifolds_follow_their_threshold():
    # two summands with [112] = d1 d2 / (d1 + 4 d2): the pivot is {2}, and
    # the inequality holds exactly for z1 / z2 < (d1 + 4 d2) / (4 d2)
    pairs = [(d1, d2) for d1 in range(1, 13) for d2 in range(1, 13) if d1 + d2 >= 3]
    assert len(pairs) == 143
    for d1, d2 in pairs:
        spec, threshold = generalized_flag_spec(d1, d2), (d1 + 4 * d2) / (4 * d2)
        below = existence_check(spec, (threshold * (1 - 1e-6), 1.0))
        above = existence_check(spec, (threshold * (1 + 1e-6), 1.0))
        assert (below.status, above.status) == (VerdictStatus.GUARANTEED, VerdictStatus.INCONCLUSIVE), (d1, d2)
        assert below.apical.sorted == above.apical.sorted == (2,), (d1, d2)


def test_existence_degenerate():
    spec = wallach_space((2, 2, 2), 0.0)
    verdict = existence_check(spec, (1, 1, 1))
    assert verdict.status is VerdictStatus.DEGENERATE_CONSTANT_RICCI
    assert verdict.apical is None and verdict.margin is None


# ---------------------------------------------------------------------------
# three-summand fast path
# ---------------------------------------------------------------------------


def test_wallach_e6_unit(e6):
    verdict = wallach_existence_check((14, 28, 12), 3.5, (1, 1, 1))
    assert verdict.status is VerdictStatus.GUARANTEED
    assert verdict.apical.sorted == (2,)
    # the decisive inequality, rescaled by 4, reads 39 < 52
    assert 4 * verdict.lhs == pytest.approx(39.0, abs=1e-12)
    assert 4 * verdict.rhs == pytest.approx(52.0, abs=1e-12)
    generic = existence_check(e6, (1, 1, 1))
    assert generic.status == verdict.status
    assert generic.apical.sorted == verdict.apical.sorted


def test_wallach_e6_other_region(e6):
    verdict = wallach_existence_check((14, 28, 12), 3.5, (1.0, 0.5, 1.0))
    assert verdict.apical.sorted == (2,)
    assert verdict.status is VerdictStatus.INCONCLUSIVE
    generic = existence_check(e6, (1.0, 0.5, 1.0))
    assert generic.status == verdict.status


def test_wallach_degenerate():
    verdict = wallach_existence_check((4, 4, 4), 0.0, (1, 1, 1))
    assert verdict.status is VerdictStatus.DEGENERATE_CONSTANT_RICCI


def test_wallach_tie_breaks_to_smallest_index():
    verdict = wallach_existence_check((4, 4, 6), 1.0, (1.0, 1.0, 10.0))
    assert verdict.apical.sorted == (1,)
    assert len(verdict.candidates) == 2


@pytest.mark.parametrize("seed", range(4))
def test_wallach_fast_path_agrees_with_the_generic_check_on_seeded_spaces(seed):
    # generalised Wallach spaces: dimensions up to 60, [123] on both sides of
    # d_i / 2 (the sign of each singleton sigma) and T over eight decades
    rng = np.random.default_rng(7100 + seed)
    for _ in range(150):
        d = tuple(int(v) for v in rng.integers(1, 61, 3))
        a = float(rng.uniform(0.0, max(d)))
        z = tuple(float(v) for v in np.exp(rng.uniform(-9.0, 9.0, 3)))
        fast, generic = wallach_existence_check(d, a, z), existence_check(wallach_space(d, a), z)
        where = (d, a, z)
        assert (fast.status, fast.apical) == (generic.status, generic.apical), where
        assert abs(fast.margin - generic.margin) <= 1e-9 * max(1.0, abs(fast.rhs)), where


def test_wallach_rejects_bad_input():
    with pytest.raises(ValueError):
        wallach_existence_check((4, 4), 1.0, (1, 1))
    with pytest.raises(ValueError):
        wallach_existence_check((4, 4, 4), -1.0, (1, 1, 1))
    with pytest.raises(ValueError):
        wallach_existence_check((4, 4, 4), 1.0, (1, -1, 1))


def test_verdict_as_dict_shape(g2):
    payload = existence_check(g2, (1, 1, 1)).as_dict()
    assert list(payload) == ["status", "apical", "sigma", "lhs", "rhs", "margin", "candidates"]
    assert payload["status"] == "guaranteed"
    assert payload["apical"] == [3]
    assert payload["sigma"]["witness"] == [4.0]


def test_repeated_existence_check_is_identical():
    # slices are solved in groups; the grouping must not make a verdict
    # depend on anything but its inputs
    for draw in range(6):
        rng = np.random.default_rng(9400 + draw)
        spec = random_space_spec(rng, max_summands=8, density=(0.05, 0.15, 0.35)[draw % 3])
        if not intermediate_subalgebras(spec).all_proper or not spec.triples.nonzero_multisets():
            continue
        z = tuple(float(v) for v in rng.uniform(0.5, 2.0, spec.s))
        assert existence_check(spec, z).as_dict() == existence_check(spec, z).as_dict()
