import json
import math
import shlex
from pathlib import Path

import pytest

from homricci.cli import (
    EXIT_INVALID_INPUT,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    run,
)
from homricci.space_model import SpecError, load_space_spec
from homricci.solver import SolverOptions
from homricci.sweep import grid_points, parse_grid_axis, sweep

DATA = Path(__file__).parent / "data"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_list(capsys):
    code, out, _ = invoke(capsys, "catalog", "list")
    assert code == EXIT_OK
    assert json.loads(out)["builtins"] == ["E6_Sp3xSp1", "F4_SU3xSU2xU1", "G2_U2_long"]


def test_catalog_show_round_trips(capsys):
    code, out, _ = invoke(capsys, "catalog", "show", "F4_SU3xSU2xU1")
    assert code == EXIT_OK
    spec = load_space_spec(out)
    assert spec.d == (12, 18, 4, 6)


def test_catalog_show_unknown(capsys):
    code, _, err = invoke(capsys, "catalog", "show", "X9")
    assert code == EXIT_INVALID_INPUT
    assert "unknown builtin" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_golden_output(capsys):
    code, out, _ = invoke(capsys, "check", "--builtin", "G2_U2_long", "--T", "1,1,1")
    assert code == EXIT_OK
    golden = (DATA / "check_g2_111.golden.json").read_text()
    assert out == golden


def test_check_e6_guaranteed(capsys):
    code, out, _ = invoke(capsys, "check", "--builtin", "E6_Sp3xSp1", "--T", "1,1,1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "guaranteed"
    assert payload["apical"] == [2]
    assert 4 * payload["lhs"] == pytest.approx(39.0, abs=1e-12)
    assert 4 * payload["rhs"] == pytest.approx(52.0, abs=1e-12)


def test_check_accepts_rational_tensor(capsys):
    code, out, _ = invoke(capsys, "check", "--builtin", "G2_U2_long", "--T", "1,2/9,1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["apical"] == [2]
    assert len(payload["candidates"]) == 2


def test_check_space_file(capsys, tmp_path, g2):
    from homricci.space_model import space_spec_to_document

    path = tmp_path / "g2.json"
    path.write_text(json.dumps(space_spec_to_document(g2)))
    code, out, _ = invoke(capsys, "check", "--space", str(path), "--T", "1,1,1")
    assert code == EXIT_OK
    assert json.loads(out)["status"] == "guaranteed"


def test_check_bad_tensor_length(capsys):
    code, _, err = invoke(capsys, "check", "--builtin", "G2_U2_long", "--T", "1,1")
    assert code == EXIT_INVALID_INPUT
    assert "--T" in err


def test_check_nonpositive_tensor(capsys):
    code, _, _ = invoke(capsys, "check", "--builtin", "G2_U2_long", "--T", "1,-1,1")
    assert code == EXIT_INVALID_INPUT


@pytest.mark.parametrize("tensor", ["inf,1,1", "nan,1,1", "1e400,1,1"])
def test_check_non_finite_tensor_is_exit_2(capsys, tensor):
    code, out, err = invoke(capsys, "check", "--builtin", "G2_U2_long", "--T", tensor)
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err.startswith("error: --T: ") and "Traceback" not in err


def test_sweep_non_finite_grid_is_exit_2(capsys):
    code, out, err = invoke(capsys, "sweep", "--builtin", "G2_U2_long", "--T", "1,1,1",
                            "--grid", "1=1:inf:2")
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err.startswith("error: --grid: ") and "Traceback" not in err


def test_tensor_parsing_keeps_spaces_and_short_decimals(capsys):
    code, out, _ = invoke(capsys, "check", "--builtin", "G2_U2_long", "--T", " 2 ,1.,.5")
    assert code == EXIT_OK
    assert json.loads(out)["T"] == [2.0, 1.0, 0.5]


@pytest.mark.parametrize("changes, field", [
    ({"triples": [{"i": 1, "j": 2, "k": 3, "value": math.nan}]}, "triples[(1, 2, 3)].value"),
    ({"triples": [{"i": 1, "j": 2, "k": 3, "value": math.inf}]}, "triples[(1, 2, 3)].value"),
    ({"triples": [{"i": 1, "j": 2, "k": 3, "value": "1e400"}]}, "triples[(1, 2, 3)].value"),
    ({"b": [1, math.inf, 1]}, "b[2]"),
    ({"d": [4, True, 4]}, "d[2]"),
])
def test_bad_numbers_in_space_file_are_exit_2(capsys, tmp_path, changes, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "d": [4, 2, 4], "triples": [], **changes}))
    code, out, err = invoke(capsys, "check", "--space", str(path), "--T", "1,1,1")
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err


def test_check_missing_file(capsys, tmp_path):
    code, _, _ = invoke(capsys, "check", "--space", str(tmp_path / "absent.json"), "--T", "1,1,1")
    assert code == EXIT_INVALID_INPUT


def test_check_space_directory_is_exit_2(capsys, tmp_path):
    code, out, err = invoke(capsys, "check", "--space", str(tmp_path), "--T", "1,1,1")
    assert code == EXIT_INVALID_INPUT and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_check_maximal_isotropy_rejected(capsys, tmp_path):
    path = tmp_path / "locked.json"
    path.write_text(json.dumps({
        "name": "locked", "d": [2, 2],
        "triples": [{"i": 1, "j": 1, "k": 2, "value": 1},
                    {"i": 1, "j": 2, "k": 2, "value": 1}],
    }))
    code, _, err = invoke(capsys, "check", "--space", str(path), "--T", "1,1")
    assert code == EXIT_INVALID_INPUT
    assert "maximal" in err


def test_check_degenerate(capsys, tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"name": "flat", "d": [2, 2, 2], "triples": []}))
    code, out, _ = invoke(capsys, "check", "--space", str(path), "--T", "1,1,1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "degenerate_constant_ricci"
    assert payload["apical"] is None


def test_usage_error_is_exit_2(capsys):
    assert run(["check", "--builtin", "G2_U2_long"]) == EXIT_INVALID_INPUT  # no --T
    capsys.readouterr()
    assert run(["frobnicate"]) == EXIT_INVALID_INPUT
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------


def test_sigma_table_f4(capsys):
    code, out, _ = invoke(capsys, "sigma", "--builtin", "F4_SU3xSU2xU1", "--T", "1,1,1,1")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [row["J"] for row in rows] == [[3], [4], [2, 4]]
    assert rows[0]["value"] == pytest.approx(1 / 12, rel=1e-12)
    assert rows[1]["value"] == pytest.approx(2 / 9, rel=1e-12)
    assert rows[2]["value"] == pytest.approx(0.326687, rel=1e-5)
    assert all(row["attained"] for row in rows)


def test_sigma_table_csv(capsys):
    code, out, _ = invoke(capsys, "sigma", "--builtin", "G2_U2_long", "--T", "1,1,1",
                          "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "J,sigma,attained,witness,source"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_g2(capsys):
    code, out, _ = invoke(capsys, "solve", "--builtin", "G2_U2_long", "--T", "1,1,1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verified"] and payload["positive"]
    assert payload["residual"] < 1e-8
    assert payload["c"] == pytest.approx(payload["S"], rel=1e-10)


def test_solve_nonconvergence_is_exit_3(capsys, tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps({"name": "toy", "d": [2, 2], "b": [1, 1], "triples": []}))
    code, _, err = invoke(capsys, "solve", "--space", str(path), "--T", "1,2")
    assert code == EXIT_NUMERICAL_FAILURE
    assert "did not converge" in err
    # the message starts with a fixed prefix and counts how restarts ended
    code, _, err = invoke(capsys, "solve", "--builtin", "F4_SU3xSU2xU1", "--T", "1.75,1,1,1")
    assert code == EXIT_NUMERICAL_FAILURE
    assert err.startswith("solver did not converge: 16/16 restarts escaped toward the slice boundary")


def test_solve_polishes_a_fit_that_misses(capsys):
    # the maximiser's Ricci residual is 1.19e-8; Newton steps take it to ~1e-12
    code, out, _ = invoke(capsys, "solve", "--builtin", "G2_U2_long", "--T", "0.9770,0.9243,0.8635")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verified"] and payload["residual"] < 1e-11
    assert payload["c"] == pytest.approx(payload["S"], rel=1e-10)


@pytest.mark.parametrize("tensor, residuals", [
    # x = (3.0e7, 3.0e7, 3.64) lies on a flat escape ray, where the polish diverges
    ("0.9951,1.0398,0.909", "residual 9.961e-06, and 9.961e-06 after"),
    # overflowed to NaN, with numpy warnings, before the fit ran at unit scale
    ("1e300,1,1", "after Newton polish"),
])
def test_solve_without_verified_fit_is_exit_3(capsys, tensor, residuals):
    code, out, err = invoke(capsys, "solve", "--builtin", "G2_U2_long", "--T", tensor)
    assert code == EXIT_NUMERICAL_FAILURE
    assert out == ""
    assert err.startswith("solver did not converge: the Ricci fit at the maximiser has ")
    assert residuals in err


def test_solve_more_than_16_summands_is_exit_2(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "d": [2] * 17,
                                "triples": [{"i": 1, "j": 2, "k": 3, "value": 1}]}))
    T = ",".join(["1"] * 17)
    for command in ("check", "solve"):
        code, out, err = invoke(capsys, command, "--space", str(path), "--T", T)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "at most 16 summands, got 17" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_grid_axis_parsing():
    assert parse_grid_axis("1=0.5:2:4", 3) == (1, 0.5, 2.0, 4)
    assert parse_grid_axis("2=1/2:3/2:5", 3)[1] == 0.5
    with pytest.raises(SpecError):
        parse_grid_axis("1=0:2:4", 3)       # min not positive
    with pytest.raises(SpecError, match="^--grid: grid maximum must be positive$"):
        parse_grid_axis("1=1:0:4", 3)       # max not positive
    with pytest.raises(SpecError):
        parse_grid_axis("5=1:2:4", 3)       # index out of range
    with pytest.raises(SpecError):
        parse_grid_axis("1=1:2:0", 3)       # steps < 1
    with pytest.raises(SpecError):
        parse_grid_axis("1=1:2", 3)         # malformed


def test_sweep_nonpositive_grid_maximum_is_exit_2(capsys):
    code, out, err = invoke(capsys, "sweep", "--builtin", "G2_U2_long", "--T", "1,1,1",
                            "--grid", "1=0.5:-1:3")
    assert (code, out, err) == (EXIT_INVALID_INPUT, "", "error: --grid: grid maximum must be positive\n")


def test_sweep_point_without_a_context_gives_one_error_row(g2):
    # a tensor that SigmaContext rejects gets no context; its row still
    # reports the error, and the other point keeps its row
    header, rows, notes = sweep(g2, [(1, 1, 1), (-1, 1, 1)], SolverOptions())
    alone = sweep(g2, [(1, 1, 1)], SolverOptions())[1][0]
    assert rows[0] == alone and rows[0][header.index("status")] != "error"
    assert rows[1] == ["-1", "1", "1", "error", "", "", ""]
    assert [row[header.index("status")] for row in rows].count("error") == 1
    assert notes == ["z=-1,1,1: z[1] must be finite and positive, got -1.0"]


def test_grid_at_most_two_axes(g2):
    with pytest.raises(SpecError, match="at most 2"):
        grid_points(g2, ["1=1:2:2", "2=1:2:2", "3=1:2:2"], (1, 1, 1))
    with pytest.raises(SpecError, match="distinct"):
        grid_points(g2, ["1=1:2:2", "1=1:2:2"], (1, 1, 1))


def test_sweep_row_major_order(capsys):
    code, out, _ = invoke(capsys, "sweep", "--builtin", "G2_U2_long", "--T", "1,1,1",
                          "--grid", "1=1:2:2", "--grid", "2=1:3:3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "z1,z2,z3,status,apical,sigma,margin"
    firsts = [line.split(",")[0] for line in lines[1:]]
    seconds = [line.split(",")[1] for line in lines[1:]]
    assert firsts == ["1", "1", "1", "2", "2", "2"]
    assert seconds == ["1", "2", "3", "1", "2", "3"]


def test_sweep_single_point_matches_check(capsys):
    code, sweep_out, _ = invoke(capsys, "sweep", "--builtin", "G2_U2_long", "--T", "1,1,1",
                                "--grid", "1=1:1:1")
    assert code == EXIT_OK
    row = sweep_out.strip().splitlines()[1].split(",")
    code, check_out, _ = invoke(capsys, "check", "--builtin", "G2_U2_long", "--T", "1,1,1")
    payload = json.loads(check_out)
    assert row[3] == payload["status"]
    assert row[4] == "3"
    assert float(row[5]) == payload["sigma"]["value"]
    assert float(row[6]) == payload["margin"]


def test_sweep_region_flip_g2(capsys):
    code, out, _ = invoke(capsys, "sweep", "--builtin", "G2_U2_long", "--T", "1,2/9,1",
                          "--grid", "1=1.5:1.8:31")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    statuses = [row[3] for row in rows]
    flip = statuses.index("inconclusive")
    assert statuses[:flip] == ["guaranteed"] * flip
    assert set(statuses[flip:]) == {"inconclusive"}
    # the flip brackets 5/3
    assert float(rows[flip - 1][0]) < 5 / 3 < float(rows[flip][0])


def test_sweep_region_f4(capsys):
    # guaranteed region for z2 = z3 = z4 = 1 is bounded above by
    # (637 + 36 sqrt 19) / 465; the reference interval from the region
    # analysis starts at 25/141, inside one grid cell of the sweep start
    import math

    code, out, _ = invoke(capsys, "sweep", "--builtin", "F4_SU3xSU2xU1", "--T", "1,1,1,1",
                          "--grid", "1=0.15:1.75:33")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 33
    cell = (1.75 - 0.15) / 32
    guaranteed = [float(row[0]) for row in rows if row[4] == "guaranteed"]
    assert guaranteed, "no guaranteed points on the grid"
    upper = (637 + 36 * math.sqrt(19)) / 465
    lower = 25 / 141
    assert abs(guaranteed[0] - lower) < cell
    assert guaranteed[-1] < upper < guaranteed[-1] + cell
    # the guaranteed points form one contiguous block
    statuses = [row[4] for row in rows]
    first = statuses.index("guaranteed")
    assert all(s == "guaranteed" for s in statuses[first:first + len(guaranteed)])
    assert all(s == "inconclusive" for s in statuses[first + len(guaranteed):])


def test_solve_seed_and_restart_flags(capsys):
    code, out, _ = invoke(capsys, "solve", "--builtin", "G2_U2_long", "--T", "1,1,1",
                          "--seed", "2", "--restarts", "8")
    assert code == EXIT_OK
    assert json.loads(out)["verified"]


@pytest.mark.parametrize("command", ["check", "solve", "sweep"])
def test_negative_seed_is_exit_2(capsys, command):
    extra = ("--grid", "1=1:2:2") if command == "sweep" else ()
    code, out, err = invoke(capsys, command, "--builtin", "G2_U2_long", "--T", "1,1,1", "--seed", "-1", *extra)
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_sweep_workers_bitwise_identical(capsys):
    args = ("sweep", "--builtin", "F4_SU3xSU2xU1", "--T", "1,1,1,1",
            "--grid", "1=0.5:1.5:3", "--grid", "2=0.8:1.2:2")
    _, serial, _ = invoke(capsys, *args, "--workers", "1")
    _, parallel, _ = invoke(capsys, *args, "--workers", "4")
    assert serial == parallel


def test_sweep_solve_columns(capsys):
    code, out, _ = invoke(capsys, "sweep", "--builtin", "G2_U2_long", "--T", "1,1,1",
                          "--grid", "1=1:2:2", "--solve")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].endswith(",c,residual")
    guaranteed = lines[1].split(",")
    assert guaranteed[3] == "guaranteed"
    assert float(guaranteed[8]) < 1e-8
    assert float(guaranteed[7]) > 0


def test_sweep_solve_notes_an_unverified_fit(capsys):
    code, out, err = invoke(capsys, "sweep", "--builtin", "G2_U2_long", "--T", "0.9951,1.0398,0.909",
                            "--grid", "1=0.9951:0.9951:1", "--solve")
    assert code == EXIT_OK
    row = out.splitlines()[1].split(",")
    assert row[3] == "boundary" and row[7:] == ["", ""]
    assert ": solver did not converge: the Ricci fit at the maximiser has residual 9.961e-06" in err


def test_sweep_error_rows_do_not_abort(capsys, tmp_path):
    path = tmp_path / "locked.json"
    path.write_text(json.dumps({
        "name": "locked", "d": [2, 2],
        "triples": [{"i": 1, "j": 1, "k": 2, "value": 1},
                    {"i": 1, "j": 2, "k": 2, "value": 1}],
    }))
    code, out, err = invoke(capsys, "sweep", "--space", str(path), "--T", "1,1",
                            "--grid", "1=1:2:3")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[2] for row in rows] == ["error"] * 3
    assert "maximal" in err


def test_sweep_solve_errors_become_error_rows(capsys, monkeypatch):
    # the full slices of all points are solved in one call; when it fails,
    # each point solves alone, and only the point that fails alone too
    # becomes an error row
    import homricci.sweep as sweep
    from homricci.solver import SolverError

    args = ("sweep", "--builtin", "G2_U2_long", "--T", "1,1,1", "--grid", "1=1:3:3", "--solve")
    _, healthy, healthy_err = invoke(capsys, *args)
    real_batch, real_alone = sweep.maximize_hatS_on_slices, sweep.maximize_S_on_MT

    def failing_batch(spec, Js, zs, options=None):
        if any(z[0] == 2.0 for z in zs):
            raise SolverError("injected failure")
        return real_batch(spec, Js, zs, options)

    def failing_alone(spec, z, options=None):
        if z[0] == 2.0:
            raise SolverError("injected failure")
        return real_alone(spec, z, options)

    monkeypatch.setattr(sweep, "maximize_hatS_on_slices", failing_batch)
    assert invoke(capsys, *args) == (EXIT_OK, healthy, healthy_err)
    monkeypatch.setattr(sweep, "maximize_S_on_MT", failing_alone)
    code, out, err = invoke(capsys, *args)
    assert code == EXIT_OK
    lines, expected = out.splitlines(), healthy.splitlines()
    assert [lines[0], lines[1], lines[3]] == [expected[0], expected[1], expected[3]]
    rows = [line.split(",") for line in lines[1:]]
    assert [row[3] == "error" for row in rows] == [False, True, False]
    assert rows[1][4:] == ["", "", "", "", ""]
    assert "z=2,1,1: injected failure" in err


def test_sweep_failed_slice_gives_one_error_row(capsys, monkeypatch):
    import homricci.sigma_apical as sigma_apical
    from homricci.solver import SolverError

    args = ("sweep", "--builtin", "F4_SU3xSU2xU1", "--T", "1,1,1,1", "--grid", "1=1:3:3")
    _, healthy, _ = invoke(capsys, *args)
    real = sigma_apical.maximize_hatS_on_slices

    def failing(spec, Js, zs, options=None):
        if any(z[0] == 2.0 for z in zs):
            raise SolverError("injected failure")
        return real(spec, Js, zs, options)

    monkeypatch.setattr(sigma_apical, "maximize_hatS_on_slices", failing)
    code, out, err = invoke(capsys, *args)
    assert code == EXIT_OK
    lines, expected = out.splitlines(), healthy.splitlines()
    assert [lines[0], lines[1], lines[3]] == [expected[0], expected[1], expected[3]]
    assert lines[2] == "2,1,1,1,error,,,"
    assert err == "z=2,1,1,1: injected failure\n"


def test_sweep_failed_attainment_gives_one_error_row(capsys, monkeypatch, tmp_path):
    # {1,2} is the only subalgebra and holds no smaller one, so a slice that
    # does not converge leaves its sigma undecided; the points solved
    # together with the failing one keep their rows
    import dataclasses

    import homricci.sigma_apical as sigma_apical

    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "name": "pair", "d": [2, 2, 2],
        "triples": [{"i": 1, "j": 1, "k": 2, "value": 1}, {"i": 1, "j": 2, "k": 2, "value": 1},
                    {"i": 1, "j": 3, "k": 3, "value": 1}],
    }))
    args = ("sweep", "--space", str(path), "--T", "1,1,1", "--grid", "1=1:3:3")
    _, healthy, _ = invoke(capsys, *args)
    real = sigma_apical.maximize_hatS_on_slices

    def unconverged(spec, Js, zs, options=None):
        reports = real(spec, Js, zs, options)
        return tuple(dataclasses.replace(r, converged=False, diagnostics="injected") if z[0] == 2.0 else r
                     for r, z in zip(reports, zs))

    monkeypatch.setattr(sigma_apical, "maximize_hatS_on_slices", unconverged)
    code, out, err = invoke(capsys, *args)
    assert code == EXIT_OK
    lines, expected = out.splitlines(), healthy.splitlines()
    assert [lines[0], lines[1], lines[3]] == [expected[0], expected[1], expected[3]]
    assert "error" not in healthy and lines[2] == "2,1,1,error,,,"
    assert err == ("z=2,1,1: interior maximization failed on {1,2} and it has no proper "
                   "subalgebra to recurse into: injected\n")


def test_check_numerical_failure_is_exit_3(capsys, monkeypatch, tmp_path):
    # the lattice is {3} and {1,2}; nothing closed lies inside {1,2}, so a
    # slice solve that stalls leaves its sigma undecided.  A descent
    # direction fails every Armijo test, so every restart stalls.
    import homricci.solver as solver

    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "name": "pair", "d": [2, 2, 2],
        "triples": [{"i": 1, "j": 1, "k": 2, "value": 1}, {"i": 1, "j": 2, "k": 2, "value": 1}],
    }))
    monkeypatch.setattr(solver._SliceProblem, "ascent_direction", lambda self, G, gp, *rest: -gp)
    code, out, err = invoke(capsys, "check", "--space", str(path), "--T", "1,1,1")
    assert (code, out) == (EXIT_NUMERICAL_FAILURE, "")
    assert err == ("numerical failure: interior maximization failed on {1,2} and it has no proper "
                   "subalgebra to recurse into: 16/16 restarts stalled in the line search\n")
    code, out, _ = invoke(capsys, "sweep", "--space", str(path), "--T", "1,1,1", "--grid", "1=1:2:2")
    assert code == EXIT_OK
    assert out.splitlines()[1:] == ["1,1,1,error,,,", "2,1,1,error,,,"]


def test_sweep_rows_match_single_checks(capsys, tmp_path):
    # a sweep solves the slices of all its points in one call; every row must
    # still carry, bit for bit, the verdict of a check at that point alone
    path = tmp_path / "sparse8.json"
    path.write_text(json.dumps({
        "name": "sparse8", "d": [2, 11, 3, 4, 4, 9, 12, 1],
        "triples": [{"i": 1, "j": 3, "k": 4, "value": "3/1"}, {"i": 2, "j": 2, "k": 4, "value": "4/3"},
                    {"i": 5, "j": 6, "k": 8, "value": "7/3"}, {"i": 7, "j": 7, "k": 8, "value": "6/4"}],
    }))
    code, out, _ = invoke(capsys, "sweep", "--space", str(path), "--T", "1,1,1,1,1,1,1,1",
                          "--grid", "7=0.1:5:4", "--normalize")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    pivots = set()
    for row in rows:
        _, check_out, _ = invoke(capsys, "check", "--space", str(path), "--T", ",".join(row[:8]))
        verdict = json.loads(check_out)
        pivots.add(row[9])
        assert row[8:] == [verdict["status"], "+".join(map(str, verdict["apical"])),
                           "%.17g" % verdict["sigma"]["value"], "%.17g" % verdict["margin"]]
    assert len(pivots) > 1

    # with --solve the maximisers of all points come from one call too; each
    # row's fit is, bit for bit, what solve prints at that point alone
    fitted = 0
    for space, T, grid in ((("--space", str(path)), "1,1,1,1,1,1,1,1", ("--grid", "7=0.1:5:4", "--normalize")),
                           (("--builtin", "F4_SU3xSU2xU1"), "1,1,1,1", ("--grid", "1=0.15:1.75:5")),
                           (("--builtin", "G2_U2_long"), "0.9770,0.9243,0.8635", ("--grid", "1=0.977:1.2:2"))):
        code, out, err = invoke(capsys, "sweep", *space, "--T", T, *grid, "--solve")
        assert code == EXIT_OK
        notes = dict(line.split(": ", 1) for line in err.splitlines())
        for row in (line.split(",") for line in out.strip().splitlines()[1:]):
            z = ",".join(row[:len(T.split(","))])
            code, solve_out, solve_err = invoke(capsys, "solve", *space, "--T", z)
            if row[-2:] == ["", ""]:
                assert code == EXIT_NUMERICAL_FAILURE and solve_err == notes.pop(f"z={z}") + "\n"
            else:
                payload = json.loads(solve_out)
                assert row[-2:] == ["%.17g" % payload["c"], "%.17g" % payload["residual"]]
                fitted += 1
        assert not notes
    assert fitted >= 5


def test_sweep_normalize_preserves_status(capsys):
    base = ("sweep", "--builtin", "G2_U2_long", "--T", "1,1,1", "--grid", "1=0.5:2:4")
    _, plain, _ = invoke(capsys, *base)
    _, normalized, _ = invoke(capsys, *base, "--normalize")
    plain_status = [line.split(",")[3] for line in plain.strip().splitlines()[1:]]
    norm_status = [line.split(",")[3] for line in normalized.strip().splitlines()[1:]]
    assert plain_status == norm_status
    z_first = float(normalized.strip().splitlines()[1].split(",")[0])
    assert z_first != 0.5  # coordinates were rescaled


def test_sweep_json_format(capsys):
    code, out, _ = invoke(capsys, "sweep", "--builtin", "G2_U2_long", "--T", "1,1,1",
                          "--grid", "1=1:2:2", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert len(rows) == 2
    assert rows[0]["status"] == "guaranteed"


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_reused_parser_answers_like_fresh_ones(capsys, monkeypatch):
    import homricci.cli as cli

    requests = [
        ("sweep", "--builtin", "G2_U2_long", "--T", "1,1,1", "--grid", "1=1:2:2", "--grid", "2=1:2:2"),
        ("check", "--builtin", "E6_Sp3xSp1", "--T", "1,1,1"),
        ("check", "--builtin", "G2_U2_long", "--T", "1,1"),
        ("sweep", "--builtin", "G2_U2_long", "--T", "1,1,1", "--grid", "1=1:2:2"),
        ("sigma", "--builtin", "F4_SU3xSU2xU1", "--T", "1,1,1,1", "--format", "csv"),
        ("check", "--builtin", "G2_U2_long"),
        ("--help",),
        ("sweep", "--help"),
        ("check", "--builtin", "G2_U2_long", "--T", "1,1,1", "--seed", "3"),
        ("nonsense",),
        ("sigma", "--builtin", "G2_U2_long", "--T", "1,1,1"),
    ]
    shared = [invoke(capsys, *argv) for argv in requests]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [invoke(capsys, *argv) for argv in requests]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 2, 0, 0, 0, 2, 0]


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------


def _readme_commands() -> list[list[str]]:
    """Every ``homricci ...`` command in the README, continuation lines joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        if line.startswith("homricci "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_examples_exit_0(capsys):
    commands = [argv for argv in _readme_commands() if "myspace.json" not in argv]
    assert len(commands) >= 7
    for argv in commands:
        code, out, err = invoke(capsys, *argv)
        assert code == EXIT_OK, (argv, err)
        assert out
