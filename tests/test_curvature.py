import math

import numpy as np
import pytest

from homricci.curvature import (
    ricci_coefficients,
    scalar_curvature,
    scalar_gradient,
    singleton_coefficients,
    slice_term_system,
)
from homricci.space_model import load_space_spec
from homricci.subalgebras import intermediate_subalgebras

from oracles import (
    brute_force_hat_curvature,
    brute_force_ricci,
    brute_force_scalar_curvature,
    central_difference_gradient,
    random_space_spec,
    seeded_draws,
    slice_term_table,
)


@pytest.fixture(scope="module")
def single():
    return load_space_spec({"name": "single", "d": [4], "b": [1], "triples": []})


def test_single_summand_scalar_curvature(single):
    assert scalar_curvature(single, (2.0,)) == 1.0


def test_g2_scalar_curvature(g2):
    value = scalar_curvature(g2, (1, 1, 1))
    assert value == pytest.approx(3.75, rel=1e-15)
    assert value == pytest.approx(brute_force_scalar_curvature(g2, (1, 1, 1)), rel=1e-14)


def test_e6_scalar_curvature(e6):
    value = scalar_curvature(e6, (1, 1, 1))
    assert value == pytest.approx(21.75, rel=1e-15)
    assert value == pytest.approx(brute_force_scalar_curvature(e6, (1, 1, 1)), rel=1e-14)


def test_scalar_curvature_matches_brute_force_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        spec = random_space_spec(rng)
        x = rng.uniform(0.1, 10.0, spec.s)
        fast = scalar_curvature(spec, x)
        slow = brute_force_scalar_curvature(spec, x)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


def test_scalar_curvature_dimension_mismatch(g2):
    with pytest.raises(ValueError, match="length"):
        scalar_curvature(g2, (1, 1))


def test_hat_f4_two_summand_slice(f4):
    system = slice_term_system(f4, (2, 4))
    assert system.value((1.0, 1.0)) == pytest.approx(7 + 4 / 3 - 0.5, rel=1e-14)
    u, v = 1.7, 0.9
    expected = 7 / u + 4 / (3 * v) - v / (2 * u**2)
    assert system.value((u, v)) == pytest.approx(expected, rel=1e-13)


def test_hat_f4_singleton(f4):
    # complement sum: two orderings of the mixed triple at 2/3 plus one at 2
    assert slice_term_system(f4, (4,)).value((3.0,)) == pytest.approx(4 / 9, rel=1e-14)


def test_hat_full_set_equals_scalar_curvature(g2):
    x = (1.0, 1.0, 1.0)
    assert slice_term_system(g2, (1, 2, 3)).value(x) == scalar_curvature(g2, x)
    x = (0.37, 2.6, 1.44)
    assert slice_term_system(g2, (1, 2, 3)).value(x) == scalar_curvature(g2, x)


def test_hat_matches_brute_force_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        spec = random_space_spec(rng)
        size = int(rng.integers(1, spec.s + 1))
        members = sorted(rng.choice(spec.s, size=size, replace=False) + 1)
        y = rng.uniform(0.1, 10.0, size)
        fast = slice_term_system(spec, members).value(y)
        slow = brute_force_hat_curvature(spec, members, y)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


def test_gradient_single_summand(single):
    grad = scalar_gradient(single, (1.0,))
    assert grad[0] == pytest.approx(-2.0, rel=1e-15)


def test_gradient_matches_finite_differences(g2):
    grad = scalar_gradient(g2, (1, 1, 1))
    fd = central_difference_gradient(g2, (1, 1, 1))
    assert np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad)) < 1e-6


def test_gradient_scaling_law(f4):
    x = np.array([1.3, 0.7, 2.1, 0.9])
    t = 3.7
    base = scalar_gradient(f4, x)
    scaled = scalar_gradient(f4, t * x)
    assert np.allclose(scaled, base / t**2, rtol=1e-12)


def test_gradient_dimension_mismatch(f4):
    with pytest.raises(ValueError, match="length"):
        scalar_gradient(f4, (1, 1, 1))


def test_homogeneity(g2):
    x = (0.8, 1.9, 3.1)
    for t in (0.25, 2.0, 17.5):
        lhs = scalar_curvature(g2, tuple(t * v for v in x))
        rhs = scalar_curvature(g2, x) / t
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ricci_single_summand(single):
    ricci = ricci_coefficients(single, (2.0,))
    assert ricci.r[0] == pytest.approx(0.25, rel=1e-15)
    assert ricci.R[0] == pytest.approx(0.5, rel=1e-15)


def test_ricci_g2_closed_form(g2):
    ricci = ricci_coefficients(g2, (1, 1, 1))
    assert ricci.r == pytest.approx((17 / 48, 7 / 24, 7 / 16), rel=1e-14)
    trace = sum(g2.d[i] * ricci.r[i] for i in range(3))
    assert trace == pytest.approx(3.75, rel=1e-12)


def test_ricci_gradient_identity(f4):
    x = np.array([1.4, 0.6, 2.2, 0.9])
    ricci = ricci_coefficients(f4, x)
    grad = scalar_gradient(f4, x)
    for m in range(f4.s):
        residual = ricci.R[m] + x[m] ** 2 / f4.d[m] * grad[m]
        assert abs(residual) < 1e-12 * max(1.0, abs(ricci.R[m]))


def test_ricci_matches_brute_force(g2):
    rng = np.random.default_rng(13)
    cases = [(g2, (59437.08094985587, 59436.87017110281, 3.454334559582221))]
    for _ in range(50):
        spec = random_space_spec(rng)
        cases.append((spec, rng.uniform(0.1, 10.0, spec.s)))
    for spec, x in cases:
        ricci = ricci_coefficients(spec, x)
        R, r = brute_force_ricci(spec, x)
        for m in range(spec.s):
            assert abs(ricci.R[m] - R[m]) < 1e-12 * max(1.0, abs(R[m]))
            assert abs(ricci.r[m] - r[m]) < 1e-12 * max(1.0, abs(r[m]))


def test_ricci_is_scale_invariant_at_extreme_scales(f4):
    x = np.array([1.4, 0.6, 2.2, 0.9])
    base = ricci_coefficients(f4, x)
    for scale in (1e-300, 1e300):
        ricci = ricci_coefficients(f4, scale * x)
        assert ricci.R == pytest.approx(base.R, rel=1e-12)
        assert ricci.r == pytest.approx(np.array(base.r) / scale, rel=1e-12)


def test_ricci_trace_identity_f4(f4):
    x = (1, 1, 1, 1)
    ricci = ricci_coefficients(f4, x)
    trace = sum(f4.d[i] * ricci.r[i] for i in range(4))
    S = scalar_curvature(f4, x)
    assert abs(trace - S) < 1e-10 * max(1.0, abs(S))


@pytest.mark.parametrize("seed", [3, 17])
def test_slice_term_tables_match_oracle(seed):
    # every closed set and the full set of each draw: the same exponents in
    # the same order, and coefficients within 1e-12 of the largest sum a
    # coefficient can collect
    checked = 0
    for spec in seeded_draws(seed):
        constants = [v for _, v in spec.triples.entries]
        scale = max(d * b for d, b in zip(spec.d, spec.b)) + spec.s ** 2 * max(constants, default=0.0)
        sets = [J.sorted for J in intermediate_subalgebras(spec).all_proper] + [tuple(spec.summand_indices())]
        for J in sets:
            system, table = slice_term_system(spec, J), slice_term_table(spec, J)
            exponents = sorted(table)
            assert np.array_equal(system.exponents, np.array(exponents, dtype=float))
            for coefficient, exponent in zip(system.coefficients.tolist(), exponents):
                assert math.isclose(coefficient, table[exponent], rel_tol=1e-12, abs_tol=1e-12 * max(1.0, scale))
            checked += 1
        # the per-spec singleton vector holds the compiled coefficients bit
        # for bit, signed zeros included, closed summand or not
        for i in spec.summand_indices():
            assert singleton_coefficients(spec)[i - 1:i].tobytes() == slice_term_system(spec, (i,)).coefficients.tobytes()
    assert checked > 300
