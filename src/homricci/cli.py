"""Command-line interface.

Subcommands: catalog, check, sigma, solve, sweep.  Machine-readable results
go to stdout (JSON by default, CSV for sweeps); diagnostics go to stderr.
Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .curvature import scalar_curvature
from .sigma_apical import (
    SigmaContext,
    existence_check,
    existence_verdict,
    solve_together,
)
from .solver import (
    OptimizationReport,
    SolverError,
    SolverOptions,
    VerificationResult,
    maximize_S_on_MT,
    polish_prescribed_ricci,
    verify_prescribed_ricci,
)
from .space_model import (
    HomogeneousSpaceSpec,
    SpecError,
    builtin_names,
    builtin_space,
    coefficients_array,
    load_space_spec,
    parse_number,
    space_spec_to_document,
)
from .subalgebras import intermediate_subalgebras

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3


def _fmt(x: float) -> str:
    return "%.17g" % x


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


def _add_space_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", metavar="NAME", help="catalogued space name")
    group.add_argument("--space", metavar="FILE", help="path to a space description file")


def _add_solver_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="restart grid seed (default 0)")
    parser.add_argument("--restarts", type=int, default=16, help="optimizer restarts (default 16)")


# ---------------------------------------------------------------------------
# sweep grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    index: int          # 1-based tensor coordinate
    minimum: float
    maximum: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.steps)


@dataclass(frozen=True)
class SweepGrid:
    axes: tuple[SweepAxis, ...]
    base: tuple[float, ...]
    normalize: bool = False

    def points(self) -> list[tuple[float, ...]]:
        grids = [axis.values() for axis in self.axes]
        out = []
        for combo in product(*grids):
            z = list(self.base)
            for axis, value in zip(self.axes, combo):
                z[axis.index - 1] = float(value)
            out.append(tuple(z))
        return out


def parse_grid_axis(text: str, s: int) -> SweepAxis:
    """Parse an axis description ``i=min:max:steps``."""
    try:
        index_part, range_part = text.split("=", 1)
        lo, hi, steps = range_part.split(":")
    except ValueError:
        raise SpecError(f"grid axis {text!r} must look like i=min:max:steps", "--grid") from None
    try:
        index = int(index_part)
        n = int(steps)
    except ValueError:
        raise SpecError(f"grid axis {text!r}: index and steps must be integers", "--grid") from None
    minimum = parse_number(lo, "--grid")
    maximum = parse_number(hi, "--grid")
    if not 1 <= index <= s:
        raise SpecError(f"grid axis index {index} out of range 1..{s}", "--grid")
    if minimum <= 0:
        raise SpecError("grid minimum must be positive", "--grid")
    if n < 1:
        raise SpecError("grid steps must be >= 1", "--grid")
    return SweepAxis(index=index, minimum=minimum, maximum=maximum, steps=n)


def build_sweep_grid(axis_texts: list[str], base: tuple[float, ...], s: int,
                     normalize: bool) -> SweepGrid:
    axes = [parse_grid_axis(text, s) for text in axis_texts]
    if not axes:
        raise SpecError("at least one --grid axis is required", "--grid")
    if len(axes) > 2:
        raise SpecError("at most 2 free axes per sweep", "--grid")
    if len({axis.index for axis in axes}) != len(axes):
        raise SpecError("grid axes must use distinct coordinates", "--grid")
    return SweepGrid(axes=tuple(axes), base=base, normalize=normalize)


def _solve(spec: HomogeneousSpaceSpec, z: tuple[float, ...], options: SolverOptions
           ) -> tuple[OptimizationReport, tuple[float, ...], VerificationResult | None, str]:
    """The maximiser of S on the unit-trace metrics and its Ricci fit,
    Newton-polished when the fit misses.  The last item is empty when the
    metric returned is a verified solution, and otherwise says why there is
    none; the metric and the fit are then not to be printed."""
    report = maximize_S_on_MT(spec, z, options)
    if not report.converged:
        return report, report.argmax, None, f"solver did not converge: {report.diagnostics}"
    verification = verify_prescribed_ricci(spec, report.argmax, z)
    if verification.verified:
        return report, report.argmax, verification, ""
    x, polished = polish_prescribed_ricci(spec, report.argmax, z)
    if polished.verified:
        return report, x, polished, ""
    return report, x, polished, (
        f"solver did not converge: the Ricci fit at the maximiser has residual "
        f"{verification.residual:.4g}, and {polished.residual:.4g} after Newton polish")


def _scaled(spec: HomogeneousSpaceSpec, z: tuple[float, ...], normalize: bool) -> tuple[float, ...]:
    if not normalize:
        return z
    total = sum(spec.d[i] * z[i] for i in range(spec.s))
    return tuple(v / total for v in z)


def _context(spec: HomogeneousSpaceSpec, z: tuple[float, ...], options: SolverOptions) -> SigmaContext | None:
    """The point's context, or None for a tensor its own row rejects."""
    try:
        return SigmaContext(spec, z, options)
    except ValueError:
        return None


def _sweep_point(spec: HomogeneousSpaceSpec, z: tuple[float, ...], ctx: SigmaContext | None,
                 options: SolverOptions, solve: bool) -> tuple[list[str], str]:
    """One CSV record and its note; without a context, building it again
    raises the error the row reports."""
    cells = ["", "", "", ""] + (["", ""] if solve else [])
    note = ""
    try:
        verdict = existence_verdict(ctx or SigmaContext(spec, z, options))
        cells[0] = verdict.status.value
        if verdict.apical is not None:
            cells[1:4] = ["+".join(str(i) for i in verdict.apical.sorted), _fmt(verdict.sigma.value),
                          _fmt(verdict.margin)]
        if solve:
            _, _, verification, note = _solve(spec, z, options)
            if not note:
                cells[4:] = [_fmt(verification.c), _fmt(verification.residual)]
    except (SolverError, ValueError) as exc:
        cells = ["error"] + [""] * (len(cells) - 1)
        note = f"{exc}"
    return [_fmt(v) for v in z] + cells, note


def emit_sweep(spec: HomogeneousSpaceSpec, grid: SweepGrid, options: SolverOptions,
               solve: bool = False, workers: int = 1) -> tuple[str, list[str]]:
    """Render the sweep as CSV text; returns (csv, diagnostic notes).

    The sigma tables of every grid point are filled together with one slice
    solve; then each point reads its verdict, and with ``solve`` runs its
    own full-slice solve, on ``workers`` threads.  Rows are emitted in
    row-major grid order and are identical for any worker count: every
    sigma is the one the point would compute alone, and the pool only
    changes scheduling.
    """
    points = [_scaled(spec, z, grid.normalize) for z in grid.points()]
    contexts = [_context(spec, z, options) for z in points]
    solve_together([ctx for ctx in contexts if ctx is not None])

    def evaluate(n: int) -> tuple[list[str], str]:
        return _sweep_point(spec, points[n], contexts[n], options, solve)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(evaluate, range(len(points))))
    else:
        rows = [evaluate(n) for n in range(len(points))]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = [f"z{i}" for i in range(1, spec.s + 1)] + ["status", "apical", "sigma", "margin"]
    if solve:
        header += ["c", "residual"]
    writer.writerow(header)
    notes = []
    for record, note in rows:
        writer.writerow(record)
        if note:
            notes.append(f"z={','.join(record[:spec.s])}: {note}")
    return buffer.getvalue(), notes


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
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["J", "sigma", "attained", "witness", "source"])
        for row in rows:
            writer.writerow([
                "+".join(str(i) for i in row.J.sorted),
                _fmt(row.value),
                str(row.attained).lower(),
                "" if row.witness is None else "+".join(_fmt(v) for v in row.witness),
                row.source.value,
            ])
        sys.stdout.write(buffer.getvalue())
    else:
        _emit_json({"space": spec.name, "T": list(z), "rows": [r.as_dict() for r in rows]})
    return EXIT_OK


def _cmd_solve(args) -> int:
    spec = _load_spec(args)
    z = _parse_tensor(args.T, spec.s)
    report, x, verification, problem = _solve(spec, z, _solver_options(args))
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
    base = _parse_tensor(args.T, spec.s)
    grid = build_sweep_grid(args.grid, base, spec.s, args.normalize)
    text, notes = emit_sweep(spec, grid, _solver_options(args), solve=args.solve,
                             workers=args.workers)
    if args.format == "json":
        reader = csv.DictReader(io.StringIO(text))
        _emit_json({"space": spec.name, "rows": list(reader)})
    else:
        sys.stdout.write(text)
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
    p_sweep.add_argument("--workers", type=int, default=1, help="worker threads (default 1)")
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
