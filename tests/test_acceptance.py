"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with -s to
see them on success) and enforces its runtime budget.  Expected values come
from closed forms or from the independent oracles in oracles.py, never from
the code paths under test.
"""

import math
import time

import numpy as np
import pytest

from homricci.cli import run as cli_run
from homricci.curvature import (
    hat_scalar_curvature,
    ricci_coefficients,
    scalar_curvature,
    scalar_gradient,
)
from homricci.sigma_apical import (
    SigmaContext,
    VerdictStatus,
    existence_check,
    wallach_existence_check,
)
from homricci.solver import SolverOptions, escape_curve_S, maximize_S_on_MT, maximize_hatS_on_slice, verify_prescribed_ricci
from homricci.space_model import wallach_space
from homricci.subalgebras import intermediate_subalgebras
from homricci.sweep import grid_points, sweep

from oracles import (
    brute_force_ricci,
    central_difference_gradient,
    psi_peak_location,
    psi_peak_value,
    random_space_spec,
)


def _criterion(number: int, description: str, limit_seconds: float, body) -> None:
    start = time.perf_counter()
    failure = None
    try:
        body()
    except AssertionError as exc:
        failure = exc
    elapsed = time.perf_counter() - start
    ok = failure is None and elapsed < limit_seconds
    print(f"[acceptance] criterion {number} ({description}): "
          f"{'PASS' if ok else 'FAIL'} in {elapsed:.2f}s (limit {limit_seconds:g}s)")
    if failure is not None:
        raise failure
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s >= {limit_seconds}s"
    )


def _bisect_flip(is_guaranteed, lo: float, hi: float, tol: float) -> float:
    assert is_guaranteed(lo), "expected the lower bracket to be guaranteed"
    assert not is_guaranteed(hi), "expected the upper bracket not to be guaranteed"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if is_guaranteed(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# criterion 1: golden sigma values, closed form and numeric slice maximum
# ---------------------------------------------------------------------------


def test_criterion_1_golden_sigma_values(g2, f4):
    def body():
        from homricci.sigma_apical import sigma_irreducible

        rng = np.random.default_rng(101)
        for _ in range(25):
            z = rng.uniform(0.1, 5.0, 4)
            assert sigma_irreducible(g2, 2, z[:3]).value == pytest.approx(
                1 / (12 * z[1]), rel=1e-14)
            assert sigma_irreducible(g2, 3, z[:3]).value == pytest.approx(
                3 / (8 * z[2]), rel=1e-14)
            assert sigma_irreducible(f4, 3, z).value == pytest.approx(
                1 / (12 * z[2]), rel=1e-14)
            assert sigma_irreducible(f4, 4, z).value == pytest.approx(
                2 / (9 * z[3]), rel=1e-14)

        for trial in range(100):
            z4 = float(rng.uniform(0.4, 2.5))
            ratio = float(rng.uniform(0.05, 1.7))
            z2 = ratio * z4
            z = (1.0, z2, 1.0, z4)
            report = maximize_hatS_on_slice(f4, (2, 4), z)
            assert report.converged, f"trial {trial}: optimizer failed at z={z}"
            assert report.argmax[1] == pytest.approx(psi_peak_location(z2, z4), rel=1e-8)
            assert report.value == pytest.approx(psi_peak_value(z2, z4), rel=1e-8)

    _criterion(1, "golden sigma values", 5.0, body)


# ---------------------------------------------------------------------------
# criterion 2: subalgebra lattices
# ---------------------------------------------------------------------------


def test_criterion_2_subalgebra_lattices(g2, f4):
    def body():
        wallach = wallach_space((14, 28, 12), 3.5)
        lattice = intermediate_subalgebras(wallach)
        assert {J.indices for J in lattice.all_proper} == {
            frozenset({1}), frozenset({2}), frozenset({3})}
        assert {J.indices for J in lattice.maximal} == {
            frozenset({1}), frozenset({2}), frozenset({3})}

        lattice_g2 = intermediate_subalgebras(g2)
        assert {J.indices for J in lattice_g2.all_proper} == {frozenset({2}), frozenset({3})}

        lattice_f4 = intermediate_subalgebras(f4)
        assert {J.indices for J in lattice_f4.all_proper} == {
            frozenset({3}), frozenset({4}), frozenset({2, 4})}
        assert {J.indices for J in lattice_f4.maximal} == {
            frozenset({3}), frozenset({2, 4})}

    _criterion(2, "subalgebra lattices", 1.0, body)


# ---------------------------------------------------------------------------
# criterion 3: region boundaries
# ---------------------------------------------------------------------------


def test_criterion_3_region_boundaries(g2, f4, e6):
    def body():
        # flag space with three summands: boundary at z1 = 5 z3 / 3 when
        # z2 = 2 z3 / 9 puts both maximal subalgebras in a sigma tie
        z2 = 2.0 / 9.0

        def g2_guaranteed(z1: float) -> bool:
            return existence_check(g2, (z1, z2, 1.0)).status is VerdictStatus.GUARANTEED

        flip = _bisect_flip(g2_guaranteed, 1.6, 1.75, 1e-6)
        assert abs(flip - 5.0 / 3.0) < 1e-4

        # four-summand space with z2 = z3 = z4 = 1: the upper boundary is
        # (637 + 36 sqrt 19) / 465; everything in the stated interval is
        # guaranteed, including the lower endpoint 25/141
        upper = (637.0 + 36.0 * math.sqrt(19.0)) / 465.0
        lower = 25.0 / 141.0

        def f4_guaranteed(z1: float) -> bool:
            return existence_check(f4, (z1, 1.0, 1.0, 1.0)).status is VerdictStatus.GUARANTEED

        assert f4_guaranteed(lower)                 # lower endpoint inclusive
        assert f4_guaranteed(lower + 1e-6)
        assert f4_guaranteed(upper - 1e-6)
        assert not f4_guaranteed(upper + 1e-6)
        for z1 in np.linspace(lower, upper - 1e-6, 12):
            assert f4_guaranteed(float(z1))
        flip4 = _bisect_flip(f4_guaranteed, upper - 1e-4, upper + 1e-4, 2e-7)
        assert abs(flip4 - upper) < 1e-6

        # three-summand fast path at the unit tensor: pivot index 2 and the
        # decisive inequality reads 39 < 52 after clearing denominators
        verdict = wallach_existence_check((14, 28, 12), 3.5, (1, 1, 1))
        assert verdict.status is VerdictStatus.GUARANTEED
        assert verdict.apical.sorted == (2,)
        assert 4 * verdict.lhs == 39.0
        assert 4 * verdict.rhs == 52.0
        generic = existence_check(e6, (1, 1, 1))
        assert generic.status is VerdictStatus.GUARANTEED
        assert generic.apical.sorted == (2,)

    _criterion(3, "region boundaries", 10.0, body)


# ---------------------------------------------------------------------------
# criterion 4: fast path vs generic check on random three-summand spaces
# ---------------------------------------------------------------------------


def test_criterion_4_wallach_equivalence():
    def body():
        rng = np.random.default_rng(404)
        band_factor = 10.0
        disagreements = 0
        for trial in range(1000):
            d = tuple(int(v) for v in rng.integers(1, 31, 3))
            z = tuple(float(v) for v in rng.uniform(0.05, 5.0, 3))
            if trial % 200 == 0:
                a = 0.0
            elif trial % 2 == 0:
                a = float(rng.uniform(0.0, min(d) / 2.0) * 0.999)  # d - 2a > 0
            else:
                a = float(rng.uniform(0.0, max(d)))                # may violate it
            fast = wallach_existence_check(d, a, z)
            generic = existence_check(wallach_space(d, a), z)
            if fast.status == generic.status:
                if fast.margin is not None and fast.apical.indices == generic.apical.indices:
                    scale = max(1.0, abs(fast.rhs))
                    assert abs(fast.margin - generic.margin) < 1e-9 * scale
                continue
            margins = [m for m in (fast.margin, generic.margin) if m is not None]
            rhss = [r for r in (fast.rhs, generic.rhs) if r is not None]
            in_band = any(
                abs(m) <= band_factor * 1e-10 * max(1.0, abs(r))
                for m, r in zip(margins, rhss)
            )
            assert in_band, (
                f"trial {trial}: d={d} a={a} z={z}: "
                f"{fast.status} vs {generic.status} outside the boundary band"
            )
            disagreements += 1
        assert disagreements == 0, f"{disagreements} in-band disagreements (allowed but unexpected)"

    _criterion(4, "fast path agrees with generic check", 30.0, body)


# ---------------------------------------------------------------------------
# criterion 5: solver soundness on guaranteed instances
# ---------------------------------------------------------------------------


def test_criterion_5_solver_soundness(g2, e6):
    def body():
        for spec in (g2, e6):
            assert existence_check(spec, (1.0,) * spec.s).status is VerdictStatus.GUARANTEED
            report = maximize_S_on_MT(spec, (1.0,) * spec.s)
            assert report.converged, spec.name
            assert report.first_order_residual < 1e-9
            result = verify_prescribed_ricci(spec, report.argmax, (1.0,) * spec.s)
            assert result.residual < 1e-8, f"{spec.name}: residual {result.residual}"
            assert result.positive and result.c > 0

    _criterion(5, "solver soundness", 10.0, body)


# ---------------------------------------------------------------------------
# criterion 6: analytic identity property suite
# ---------------------------------------------------------------------------


def test_criterion_6_analytic_identities(g2, f4, e6):
    def body():
        rng = np.random.default_rng(606)
        for trial in range(1000):
            spec = random_space_spec(rng)
            x = rng.uniform(0.1, 10.0, spec.s)

            grad = scalar_gradient(spec, x)
            fd = central_difference_gradient(spec, x)
            assert np.linalg.norm(grad - fd) < 1e-6 * max(1.0, np.linalg.norm(grad)), trial

            # Ric comes from the gradient, so it is anchored to the dense
            # closed form instead of to the gradient identity
            ricci = ricci_coefficients(spec, x)
            R, _ = brute_force_ricci(spec, x)
            for m in range(spec.s):
                assert abs(ricci.R[m] - R[m]) < 1e-12 * max(1.0, abs(R[m])), trial

            S = scalar_curvature(spec, x)
            trace = sum(spec.d[m] * ricci.r[m] for m in range(spec.s))
            assert abs(trace - S) < 1e-10 * max(1.0, abs(S)), trial

            assert hat_scalar_curvature(spec, tuple(range(1, spec.s + 1)), x) == S, trial

            t = float(rng.uniform(0.25, 4.0))
            scaled = scalar_curvature(spec, t * x)
            assert abs(scaled - S / t) < 1e-12 * max(1.0, abs(S / t)), trial
            assert scalar_curvature(spec, 2.0 * x) == S / 2.0, trial  # exact for binary scale

        # sigma monotonicity along every closed inclusion pair of the catalog
        for spec in (g2, f4, e6):
            ctx = SigmaContext(spec, (1.0,) * spec.s)
            lattice = intermediate_subalgebras(spec)
            for small in lattice.all_proper:
                for large in lattice.all_proper:
                    if small.indices < large.indices:
                        assert ctx.sigma(small).value <= ctx.sigma(large).value + 1e-9

        # escape-curve limit at every attained witness of the catalog: the
        # deviation from the limit equals margin/t to first order, where
        # margin is the existence-inequality gap of J, so it is checked
        # sharply; the blanket 1e-5 budget at t = 1e6 is enforced wherever
        # the first-order coefficient permits it (two catalog subalgebras
        # carry margins of 12 and 12.25, forcing a deviation above 1e-5
        # at t = 1e6 for any implementation)
        t = 1e6
        for spec in (g2, f4, e6):
            z = (1.0,) * spec.s
            ctx = SigmaContext(spec, z)
            for J in intermediate_subalgebras(spec).all_proper:
                result = ctx.sigma(J)
                if not result.attained:
                    continue
                limit = hat_scalar_curvature(spec, J, result.witness)
                complement = sorted(J.complement(spec.s))
                trace = sum(spec.d[i - 1] * z[i - 1] for i in complement)
                constant = 0.5 * sum(spec.d[i - 1] * spec.b[i - 1] for i in complement)
                constant -= 0.25 * sum(
                    spec.constant(i, j, k)
                    for i in complement for j in complement for k in complement
                )
                margin = constant - limit * trace
                value = escape_curve_S(spec, J, result.witness, z, t)
                assert abs(value - limit - margin / t) < 1e-9, f"{spec.name} {J}"
                if abs(margin) < 10.0:
                    assert abs(value - limit) < 1e-5, f"{spec.name} {J}"

    _criterion(6, "analytic identity property suite", 60.0, body)


# ---------------------------------------------------------------------------
# criterion 7: bitwise determinism
# ---------------------------------------------------------------------------


def test_criterion_7_determinism(capsys, f4, g2):
    def body():
        points = grid_points(f4, ["1=0.5:1.6:4", "2=0.8:1.9:3"], (1.0, 1.0, 1.0, 1.0))
        outputs = set()
        for _ in range(3):
            header, rows, notes = sweep(f4, points, SolverOptions())
            assert not notes
            outputs.add(repr((header, rows)))
        assert len(outputs) == 1, "sweep output depends on the run"

        # repeated runs of every numerical stage reproduce bit-identical reports
        first = maximize_S_on_MT(g2, (1, 1, 1), SolverOptions(seed=0))
        second = maximize_S_on_MT(g2, (1, 1, 1), SolverOptions(seed=0))
        assert first == second
        assert existence_check(f4, (1, 1, 1, 1)) == existence_check(f4, (1, 1, 1, 1))

        # the CLI path end to end, twice
        argv = ["sweep", "--builtin", "G2_U2_long", "--T", "1,2/9,1",
                "--grid", "1=1.5:1.8:7", "--grid", "3=0.9:1.1:3"]
        assert cli_run(list(argv)) == 0
        first_out = capsys.readouterr().out
        assert cli_run(list(argv)) == 0
        second_out = capsys.readouterr().out
        assert first_out == second_out

    _criterion(7, "bitwise determinism", 30.0, body)
