import math

import numpy as np
import pytest

from homricci.curvature import scalar_curvature
from homricci.solver import (
    RestartOutcomes,
    SolverOptions,
    maximize_S_on_MT,
    maximize_hatS_on_slice,
    maximize_hatS_on_slices,
    polish_prescribed_ricci,
    verify_prescribed_ricci,
)
from homricci.space_model import load_space_spec

from oracles import all_closed_subsets, escape_curve_value, psi_peak_location, psi_peak_value, random_space_spec


def _trace(spec, x, z):
    """The tensor trace sum d_i z_i / x_i, which is 1 on the search slice."""
    return sum(d * float(zi) / float(xi) for d, zi, xi in zip(spec.d, z, x))


@pytest.fixture(scope="module")
def single():
    return load_space_spec({"name": "single", "d": [4], "b": [1], "triples": []})


@pytest.fixture(scope="module")
def toy():
    return load_space_spec({"name": "toy", "d": [2, 2], "b": [1, 1], "triples": []})


# ---------------------------------------------------------------------------
# slice maximization
# ---------------------------------------------------------------------------


def test_slice_maximum_f4(f4):
    report = maximize_hatS_on_slice(f4, (2, 4), (1, 1, 1, 1))
    assert report.converged
    assert report.first_order_residual < 1e-9
    assert report.value == pytest.approx(psi_peak_value(1.0, 1.0), rel=1e-10)
    assert report.argmax[1] == pytest.approx(6 * math.sqrt(19), rel=1e-8)
    trace = 18 / report.argmax[0] + 6 / report.argmax[1]
    assert abs(trace - 1.0) < 1e-10


def test_slice_maximum_f4_shifted_tensor(f4):
    z = (1.0, 0.6, 1.0, 1.3)
    report = maximize_hatS_on_slice(f4, (2, 4), z)
    assert report.converged
    assert report.argmax[1] == pytest.approx(psi_peak_location(z[1], z[3]), rel=1e-8)


def test_slice_escape_f4(f4):
    report = maximize_hatS_on_slice(f4, (2, 4), (1.0, 2.0, 1.0, 1.0))
    assert not report.converged
    assert report.escaped
    # coefficients blow up on summand 2 while summand 4 pins to its floor
    assert report.escape_direction[0] > 0 > report.escape_direction[1]
    assert report.value <= 2 / 9 + 1e-9
    assert "escaped" in report.diagnostics


def test_slice_requires_two_summands(f4):
    with pytest.raises(ValueError, match="two summands"):
        maximize_hatS_on_slice(f4, (4,), (1, 1, 1, 1))


def test_toy_constant_objective(toy):
    # with equal weights the objective is constant on the slice, every
    # feasible point is a maximum and the first restart already converges
    report = maximize_S_on_MT(toy, (1, 1))
    assert report.converged
    assert report.value == pytest.approx(0.5, rel=1e-12)
    assert report.first_order_residual < 1e-9


def test_toy_escape(toy):
    # unequal weights turn the supremum into a boundary limit
    report = maximize_S_on_MT(toy, (1, 2))
    assert not report.converged
    assert report.escaped
    assert report.value <= 0.5
    assert report.value == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# full-space maximization
# ---------------------------------------------------------------------------


def test_full_maximum_single_summand(single):
    report = maximize_S_on_MT(single, (1.0,))
    assert report.converged
    assert report.argmax == (4.0,)
    assert report.value == pytest.approx(0.5, rel=1e-15)


def test_full_maximum_g2(g2):
    report = maximize_S_on_MT(g2, (1, 1, 1))
    assert report.converged
    assert report.first_order_residual < 1e-9
    assert abs(_trace(g2, report.argmax, (1, 1, 1)) - 1.0) < 1e-10
    # the maximum beats the boundary supremum of the best subalgebra
    assert report.value > 3 / 8


def test_full_maximum_e6(e6):
    report = maximize_S_on_MT(e6, (1, 1, 1))
    assert report.converged
    assert report.first_order_residual < 1e-9


def test_determinism_fixed_seed(g2):
    a = maximize_S_on_MT(g2, (1, 1, 1), SolverOptions(seed=3))
    b = maximize_S_on_MT(g2, (1, 1, 1), SolverOptions(seed=3))
    assert a == b


def test_restart_budget_options(g2):
    report = maximize_S_on_MT(g2, (1, 1, 1), SolverOptions(restarts=4))
    assert report.restarts_used == 4
    assert report.outcomes.total == 4
    assert report.converged
    assert maximize_S_on_MT(g2, (1, 1, 1), SolverOptions(restarts=4)) == report
    with pytest.raises(ValueError):
        SolverOptions(restarts=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        SolverOptions(seed=-3)


def test_stationary_points_listed(g2):
    report = maximize_S_on_MT(g2, (1, 1, 1))
    assert report.stationary_points
    assert report.stationary_points[0] == report.argmax


def test_projection_constraint(g2):
    # every iterate is projected onto the slice, so the reported point lies
    # on it whether or not the solve converged
    rng = np.random.default_rng(17)
    for _ in range(25):
        z = tuple(rng.uniform(0.05, 20.0, 3))
        report = maximize_S_on_MT(g2, z, SolverOptions(restarts=4))
        assert abs(_trace(g2, report.argmax, z) - 1.0) < 1e-10, z


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_verify_single_summand(single):
    result = verify_prescribed_ricci(single, (4.0,), (1.0,))
    assert result.c == pytest.approx(0.5, rel=1e-15)
    assert result.residual == 0.0
    assert result.positive and result.verified


def test_verify_at_maximizer(g2):
    report = maximize_S_on_MT(g2, (1, 1, 1))
    result = verify_prescribed_ricci(g2, report.argmax, (1, 1, 1))
    assert result.residual < 1e-8
    assert result.positive
    # at a unit-trace solution the proportionality constant equals S
    assert result.c == pytest.approx(report.value, rel=1e-10)


def test_verify_rejects_flat_metric(g2):
    result = verify_prescribed_ricci(g2, (1, 1, 1), (1, 1, 1))
    assert not result.verified
    assert result.c == pytest.approx(0.375, rel=1e-12)
    assert result.residual == pytest.approx(1 / 12, rel=1e-10)


def test_polish_keeps_the_trace_and_lowers_the_residual(g2):
    z = (0.9770, 0.9243, 0.8635)
    x = maximize_S_on_MT(g2, z).argmax
    assert not verify_prescribed_ricci(g2, x, z).verified
    polished, fit = polish_prescribed_ricci(g2, x, z)
    assert fit == verify_prescribed_ricci(g2, polished, z)
    assert fit.residual < 1e-11 and fit.positive
    assert _trace(g2, polished, z) == pytest.approx(1.0, rel=1e-12)
    # on the flat escape ray no step helps, and the start is returned as it was
    z = (0.9951, 1.0398, 0.909)
    x = maximize_S_on_MT(g2, z).argmax
    assert polish_prescribed_ricci(g2, x, z) == (x, verify_prescribed_ricci(g2, x, z))


def test_verify_is_scale_invariant(g2):
    x, z = (1.3, 0.7, 2.1), (0.9, 1.2, 1.1)
    base = verify_prescribed_ricci(g2, x, z)
    for scale in (1e-300, 1e300):
        for scaled_x, scaled_z, c in (([scale * v for v in x], z, base.c),
                                      (x, [scale * v for v in z], base.c / scale)):
            fit = verify_prescribed_ricci(g2, scaled_x, scaled_z)
            assert fit.residual == pytest.approx(base.residual, rel=1e-12)
            assert fit.c == pytest.approx(c, rel=1e-12)


# ---------------------------------------------------------------------------
# escape curve
# ---------------------------------------------------------------------------


def test_escape_curve_limit(g2):
    value = escape_curve_value(g2, (3,), (4.0,), (1, 1, 1), 1e6)
    assert abs(value - 3 / 8) < 1e-5


def test_escape_curve_full_set_constant(g2):
    x = (2.0, 5.0, 1.25)
    y = tuple(_trace(g2, x, (1, 1, 1)) * v for v in x)
    values = {escape_curve_value(g2, (1, 2, 3), y, (1, 1, 1), t) for t in (1.0, 100.0, 1e6)}
    reference = scalar_curvature(g2, y)
    for v in values:
        assert v == pytest.approx(reference, rel=1e-12)


def test_escape_curve_derivative_limit(g2):
    # t^2 dS/dt tends to lhs - rhs of the existence inequality for J={3}:
    # sigma * 6 - (3 - 1/2) = 2.25 - 2.5 = -0.25
    t = 1e4
    h = 1.0
    up = escape_curve_value(g2, (3,), (4.0,), (1, 1, 1), t + h)
    down = escape_curve_value(g2, (3,), (4.0,), (1, 1, 1), t - h)
    derivative = t * t * (up - down) / (2 * h)
    assert derivative == pytest.approx(-0.25, abs=5e-4)


def test_escape_curve_monotone_gain_under_guarantee(g2):
    # when the verdict is guaranteed some finite t beats the limit value
    limit = 3 / 8
    values = [escape_curve_value(g2, (3,), (4.0,), (1, 1, 1), t) for t in np.geomspace(7, 1e8, 60)]
    assert max(values) > limit


# ---------------------------------------------------------------------------
# restart outcomes and iteration counts
# ---------------------------------------------------------------------------


def test_unattained_f4_escapes_within_budget(f4):
    # the supremum at this point is a boundary limit: every restart must be
    # recognised as escaping long before the iteration budget
    report = maximize_S_on_MT(f4, (1.75, 1, 1, 1))
    assert report.escaped
    assert not report.converged
    assert report.iterations <= 1000
    assert report.outcomes.escaped == report.restarts_used == 16


def test_g2_converges_in_few_iterations(g2):
    report = maximize_S_on_MT(g2, (1, 1, 1))
    assert report.converged
    assert report.iterations <= 400
    assert report.outcomes.converged > 0


def test_outcomes_name_the_exhausted_budget(f4):
    report = maximize_S_on_MT(f4, (1.75, 1, 1, 1), SolverOptions(max_iterations=3))
    counts = report.outcomes
    assert counts.converged + counts.escaped + counts.out_of_budget + counts.stalled == 16
    assert counts.out_of_budget > 0
    assert f"{counts.out_of_budget}/16 restarts ran out of the 3-iteration budget" in report.diagnostics
    assert report.iterations == 16 * 3


def test_diagnostics_name_every_nonzero_count(f4):
    # a budget cut short mid-escape leaves restarts in several states
    report = maximize_S_on_MT(f4, (1.75, 1, 1, 1), SolverOptions(max_iterations=16))
    counts = report.outcomes
    nonzero = [n for n in (counts.converged, counts.escaped, counts.out_of_budget, counts.stalled) if n]
    clauses = report.diagnostics.split("; ")
    assert len(nonzero) >= 2
    assert len(clauses) == len(nonzero)
    assert all(clause.startswith(f"{n}/16 restarts") for clause, n in zip(clauses, nonzero))


def test_stalled_restarts_are_counted(f4, g2, monkeypatch):
    # a descent direction fails every Armijo test, so each restart's line
    # search backtracks below the step tolerance and stalls
    import homricci.solver as solver

    monkeypatch.setattr(solver._SliceProblem, "ascent_direction", lambda self, G, gp, *rest: -gp)
    for report in (maximize_hatS_on_slice(f4, (2, 4), (1, 1, 1, 1)), maximize_S_on_MT(g2, (1, 1, 1))):
        assert report.outcomes == RestartOutcomes(stalled=16)
        assert report.converged is False
        assert report.diagnostics == "16/16 restarts stalled in the line search"


def test_budget_exhausted_restart_is_never_converged(f4):
    # cut short on the escape path the gradient has already flattened below
    # the convergence tolerance while the spread is still short of the
    # escape ratio; such a restart ran out of budget, it did not converge
    for budget in range(14, 27):
        report = maximize_S_on_MT(f4, (1.75, 1, 1, 1), SolverOptions(max_iterations=budget))
        assert not report.converged, budget
        assert report.outcomes.converged == 0, budget
        assert report.outcomes.total == 16, budget


# ---------------------------------------------------------------------------
# slices solved together
# ---------------------------------------------------------------------------


def test_grouped_slices_match_slices_alone():
    # every composite closed set of each draw, all at once and one at a time,
    # first for one tensor and then for one tensor per slice
    solved = 0
    for draw in range(30):
        rng = np.random.default_rng(9300 + draw)
        spec = random_space_spec(rng, max_summands=8, density=(0.05, 0.15, 0.35)[draw % 3])
        z = tuple(float(v) for v in rng.uniform(0.5, 2.0, spec.s))
        slices = sorted((sorted(J) for J in all_closed_subsets(spec) if len(J) > 1), key=lambda J: (len(J), J))
        grouped = maximize_hatS_on_slices(spec, slices, [z] * len(slices))
        assert len(grouped) == len(slices)
        for J, together in zip(slices, grouped):
            alone = maximize_hatS_on_slice(spec, J, z)
            where = f"draw {draw}, J = {J}"
            assert together.outcomes == alone.outcomes, where
            assert together.iterations == alone.iterations, where
            assert together.converged == alone.converged, where
            assert together.escaped == alone.escaped, where
            assert together.value == pytest.approx(alone.value, rel=1e-12, abs=1e-12), where
            assert together.argmax == pytest.approx(alone.argmax, rel=1e-9), where
            solved += 1
        zs = [tuple(float(v) for v in rng.uniform(0.5, 2.0, spec.s)) for _ in slices]
        grouped = maximize_hatS_on_slices(spec, slices, zs)
        for J, own, together in zip(slices, zs, grouped):
            assert together == maximize_hatS_on_slice(spec, J, own), f"draw {draw}, J = {J}, z = {own}"
    assert solved >= 100


def test_slices_need_one_tensor_each(f4):
    with pytest.raises(ValueError, match="one z per slice, got 1 for 2 slices"):
        maximize_hatS_on_slices(f4, [(2, 4), (1, 2, 3, 4)], [(1, 1, 1, 1)])
    with pytest.raises(ValueError, match=r"z\[2\] must be finite and positive"):
        maximize_hatS_on_slices(f4, [(2, 4), (2, 4)], [(1, 1, 1, 1), (1, -1, 1, 1)])


def test_batches_split_a_group_without_changing_reports(monkeypatch):
    # a bound on the work arrays splits a large group into several batches
    import homricci.solver as solver

    for draw in (9, 15, 21):
        rng = np.random.default_rng(9300 + draw)
        spec = random_space_spec(rng, max_summands=8, density=(0.05, 0.15, 0.35)[draw % 3])
        z = tuple(float(v) for v in rng.uniform(0.5, 2.0, spec.s))
        slices = sorted((sorted(J) for J in all_closed_subsets(spec) if len(J) > 1), key=lambda J: (len(J), J))
        whole = maximize_hatS_on_slices(spec, slices, [z] * len(slices))
        monkeypatch.setattr(solver, "MAX_BATCH_ENTRIES", 1000)
        split = maximize_hatS_on_slices(spec, slices, [z] * len(slices))
        monkeypatch.undo()
        for J, a, b in zip(slices, whole, split):
            assert a.outcomes == b.outcomes and a.iterations == b.iterations, f"draw {draw}, J = {J}"
            assert a.value == pytest.approx(b.value, rel=1e-12, abs=1e-12), f"draw {draw}, J = {J}"
