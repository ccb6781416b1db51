"""Command-line interface.

Subcommands: catalog, check, sigma, solve, sweep.  Machine-readable results
go to stdout (JSON by default, CSV for sweeps); diagnostics go to stderr.
Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from .curvature import scalar_curvature
from .sigma_apical import SigmaContext, existence_check
from .solver import (
    SolverError,
    SolverOptions,
    fit_prescribed_ricci,
    maximize_S_on_MT,
    verify_prescribed_ricci,  # noqa: F401  (bench/trace.py patches it by name)
)
from .space_model import (
    HomogeneousSpaceSpec,
    builtin_names,
    builtin_space,
    coefficients_array,
    load_space_spec,
    parse_number,
    space_spec_to_document,
)
from .subalgebras import intermediate_subalgebras
from .sweep import _fmt, grid_points, sweep

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3


def _parse_tensor(text: str, s: int) -> tuple[float, ...]:
    return coefficients_array([parse_number(p, "--T") for p in text.split(",")], s, "--T")


def _load_spec(args) -> HomogeneousSpaceSpec:
    if args.builtin is not None:
        return builtin_space(args.builtin)
    with open(args.space, "r", encoding="utf-8") as handle:
        return load_space_spec(handle.read())


def _solver_options(args) -> SolverOptions:
    return SolverOptions(seed=args.seed, restarts=args.restarts)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit_csv(rows: list[list[str]]) -> None:
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _add_space_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", metavar="NAME", help="catalogued space name")
    group.add_argument("--space", metavar="FILE", help="path to a space description file")


def _add_solver_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="restart grid seed (default 0)")
    parser.add_argument("--restarts", type=int, default=16, help="optimizer restarts (default 16)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_catalog(args) -> int:
    if args.action == "list":
        _emit_json({"builtins": list(builtin_names())})
        return EXIT_OK
    spec = builtin_space(args.name)
    _emit_json(space_spec_to_document(spec))
    return EXIT_OK


def _cmd_check(args) -> int:
    spec = _load_spec(args)
    z = _parse_tensor(args.T, spec.s)
    verdict = existence_check(spec, z, _solver_options(args))
    payload = {"space": spec.name, "T": list(z)}
    payload.update(verdict.as_dict())
    _emit_json(payload)
    return EXIT_OK


def _cmd_sigma(args) -> int:
    spec = _load_spec(args)
    z = _parse_tensor(args.T, spec.s)
    ctx = SigmaContext(spec, z, _solver_options(args))
    lattice = intermediate_subalgebras(spec)
    rows = ctx.closed_sigmas(lattice.all_proper)
    if args.format == "csv":
        _emit_csv([["J", "sigma", "attained", "witness", "source"]] + [[
            "+".join(str(i) for i in row.J.sorted),
            _fmt(row.value),
            str(row.attained).lower(),
            "" if row.witness is None else "+".join(_fmt(v) for v in row.witness),
            row.source.value,
        ] for row in rows])
    else:
        _emit_json({"space": spec.name, "T": list(z), "rows": [r.as_dict() for r in rows]})
    return EXIT_OK


def _cmd_solve(args) -> int:
    spec = _load_spec(args)
    z = _parse_tensor(args.T, spec.s)
    report = maximize_S_on_MT(spec, z, _solver_options(args))
    x, verification, problem = fit_prescribed_ricci(spec, report, z)
    if problem:
        print(problem, file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    _emit_json({
        "space": spec.name,
        "T": list(z),
        "x": list(x),
        "S": scalar_curvature(spec, x),
        "c": verification.c,
        "residual": verification.residual,
        "positive": verification.positive,
        "verified": verification.verified,
        "converged": report.converged,
        "first_order_residual": report.first_order_residual,
        "iterations": report.iterations,
        "stationary_points": [list(p) for p in report.stationary_points],
    })
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    points = grid_points(spec, args.grid, _parse_tensor(args.T, spec.s), args.normalize)
    header, rows, notes = sweep(spec, points, _solver_options(args), solve=args.solve)
    if args.format == "json":
        _emit_json({"space": spec.name, "rows": [dict(zip(header, row)) for row in rows]})
    else:
        _emit_csv([header] + rows)
    for note in notes:
        print(note, file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homricci",
        description="Existence checks and solvers for invariant metrics with "
                    "prescribed Ricci curvature on compact homogeneous spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="inspect the built-in space catalog")
    catalog_sub = p_catalog.add_subparsers(dest="action", required=True)
    catalog_sub.add_parser("list", help="list built-in space names")
    p_show = catalog_sub.add_parser("show", help="print one built-in space as JSON")
    p_show.add_argument("name")

    p_check = sub.add_parser("check", help="existence verdict for a prescribed tensor")
    _add_space_arguments(p_check)
    p_check.add_argument("--T", required=True, help="comma-separated tensor coefficients")
    _add_solver_arguments(p_check)

    p_sigma = sub.add_parser("sigma", help="sigma table over all intermediate subalgebras")
    _add_space_arguments(p_sigma)
    p_sigma.add_argument("--T", required=True)
    p_sigma.add_argument("--format", choices=("json", "csv"), default="json")
    _add_solver_arguments(p_sigma)

    p_solve = sub.add_parser("solve", help="maximize S and verify Ric = cT at the maximizer")
    _add_space_arguments(p_solve)
    p_solve.add_argument("--T", required=True)
    _add_solver_arguments(p_solve)

    p_sweep = sub.add_parser("sweep", help="grid sweep of the existence verdict, CSV output")
    _add_space_arguments(p_sweep)
    p_sweep.add_argument("--T", required=True, help="base tensor coefficients")
    p_sweep.add_argument("--grid", action="append", default=[], metavar="i=min:max:steps",
                         help="sweep axis (repeat for a second axis, at most 2)")
    p_sweep.add_argument("--normalize", action="store_true",
                         help="rescale every point to unit weighted sum")
    p_sweep.add_argument("--solve", action="store_true",
                         help="also solve for the maximizer at every point")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="ignored: every sweep solves its points in one batch")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_solver_arguments(p_sweep)

    return parser


_COMMANDS = {
    "catalog": _cmd_catalog,
    "check": _cmd_check,
    "sigma": _cmd_sigma,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves no state in it."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID_INPUT
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # bad input, or a --space file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
