import json
from pathlib import Path

import pytest

from homricci.cli import (
    EXIT_INVALID_INPUT,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    build_sweep_grid,
    parse_grid_axis,
    run,
)
from homricci.space_model import SpecError, load_space_spec

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


def test_check_missing_file(capsys, tmp_path):
    code, _, _ = invoke(capsys, "check", "--space", str(tmp_path / "absent.json"), "--T", "1,1,1")
    assert code == EXIT_INVALID_INPUT


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
    axis = parse_grid_axis("1=0.5:2:4", 3)
    assert (axis.index, axis.minimum, axis.maximum, axis.steps) == (1, 0.5, 2.0, 4)
    assert parse_grid_axis("2=1/2:3/2:5", 3).minimum == 0.5
    with pytest.raises(SpecError):
        parse_grid_axis("1=0:2:4", 3)       # min not positive
    with pytest.raises(SpecError):
        parse_grid_axis("5=1:2:4", 3)       # index out of range
    with pytest.raises(SpecError):
        parse_grid_axis("1=1:2:0", 3)       # steps < 1
    with pytest.raises(SpecError):
        parse_grid_axis("1=1:2", 3)         # malformed


def test_grid_at_most_two_axes():
    with pytest.raises(SpecError, match="at most 2"):
        build_sweep_grid(["1=1:2:2", "2=1:2:2", "3=1:2:2"], (1, 1, 1), 3, False)
    with pytest.raises(SpecError, match="distinct"):
        build_sweep_grid(["1=1:2:2", "1=1:2:2"], (1, 1, 1), 3, False)


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
    import homricci.cli as cli
    from homricci.solver import SolverError

    real = cli.maximize_S_on_MT

    def failing(spec, z, options=None):
        if z[0] == 2.0:
            raise SolverError("injected failure")
        return real(spec, z, options)

    monkeypatch.setattr(cli, "maximize_S_on_MT", failing)
    code, out, err = invoke(capsys, "sweep", "--builtin", "G2_U2_long", "--T", "1,1,1",
                            "--grid", "1=1:3:3", "--solve")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[3] == "error" for row in rows] == [False, True, False]
    assert rows[1][4:] == ["", "", "", "", ""]
    assert "injected failure" in err


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
