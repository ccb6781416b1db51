import math

import numpy as np
import pytest

from homricci.curvature import hat_scalar_curvature, metric_trace_of_T
from homricci.sigma_apical import (
    NoProperSubalgebraError,
    SigmaContext,
    SigmaSource,
    VerdictStatus,
    existence_check,
    find_T_apical,
    sigma,
    sigma_irreducible,
    wallach_existence_check,
)
from homricci.space_model import load_space_spec, wallach_space

from oracles import (
    all_closed_subsets,
    brute_force_hat_curvature,
    golden_section_max,
    psi_peak_location,
    psi_peak_value,
    psi_slice_value,
    random_space_spec,
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


def test_sigma_delegates_singletons(g2):
    via_sigma = sigma(g2, (3,), (1, 1, 1))
    direct = sigma_irreducible(g2, 3, (1, 1, 1))
    assert via_sigma == direct


# ---------------------------------------------------------------------------
# sigma on the two-summand slice
# ---------------------------------------------------------------------------


def test_sigma_f4_interior_attained(f4):
    res = sigma(f4, (2, 4), (1, 1, 1, 1))
    assert res.attained and res.source is SigmaSource.INTERIOR_MAXIMUM
    assert res.value == pytest.approx(psi_peak_value(1.0, 1.0), rel=1e-10)
    assert res.value == pytest.approx(7 / 18 - (math.sqrt(19) - 1) / 54, rel=1e-10)
    # witness sits on the slice and realises the value
    assert abs(metric_trace_of_T(f4, (2, 4), res.witness, (1, 1, 1, 1)) - 1.0) < 1e-10
    assert hat_scalar_curvature(f4, (2, 4), res.witness) == pytest.approx(res.value, rel=1e-9)
    # second coordinate is the stationary point of the one-variable reduction
    assert res.witness[1] == pytest.approx(6 * math.sqrt(19), rel=1e-8)


def test_sigma_f4_matches_golden_section(f4):
    z2, z4 = 0.8, 1.1
    res = sigma(f4, (2, 4), (1.0, z2, 1.0, z4))
    v_star, value = golden_section_max(
        lambda v: psi_slice_value(z2, z4, v), 6 * z4 + 1e-9, 40 * z4
    )
    assert res.value == pytest.approx(value, rel=1e-10)
    assert res.witness[1] == pytest.approx(v_star, rel=1e-6)
    assert res.witness[1] == pytest.approx(psi_peak_location(z2, z4), rel=1e-8)


def test_sigma_f4_unattained(f4):
    res = sigma(f4, (2, 4), (1.0, 2.0, 1.0, 1.0))  # z2/z4 = 2 >= 7/4
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
    res = sigma(f4, (2, 4), (1.0, 1.7501, 1.0, 1.0))
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
        sigma(f4, (2,), (1, 1, 1, 1))


def test_sigma_scaling_covariance(f4, g2):
    t = 2.5
    for spec, J, z in ((f4, (2, 4), (1, 1, 1, 1)), (g2, (3,), (1, 1, 1))):
        base = sigma(spec, J, z)
        scaled = sigma(spec, J, tuple(t * v for v in z))
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
# pivot search
# ---------------------------------------------------------------------------


def test_apical_g2_small_z2(g2):
    res = find_T_apical(g2, (1.0, 0.1, 1.0))
    assert res.J.sorted == (2,)
    assert res.value == pytest.approx(1 / 1.2, rel=1e-12)


def test_apical_g2_unit(g2):
    res = find_T_apical(g2, (1, 1, 1))
    assert res.J.sorted == (3,)
    assert res.value == pytest.approx(3 / 8, rel=1e-14)


def test_apical_f4_descends(f4):
    res = find_T_apical(f4, (1.0, 2.0, 1.0, 1.0))
    assert res.J.sorted == (4,)
    assert res.attained
    assert res.value == pytest.approx(2 / 9, rel=1e-12)


def test_apical_dominates_maximal(f4):
    from homricci.subalgebras import intermediate_subalgebras

    z = (1.0, 2.0, 1.0, 1.0)
    ctx = SigmaContext(f4, z)
    apical = find_T_apical(f4, z)
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
        find_T_apical(spec, (1, 1))


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
