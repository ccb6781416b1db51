"""Sweeps of the existence verdict over a grid of prescribed tensors.

A grid sets one or two coordinates of a base tensor from axes
``i=min:max:steps`` and runs over its points in row-major order.  The sigma
tables of all points are filled with one slice solve
(:func:`~homricci.sigma_apical.solve_together`); with ``solve``, the
maximisers of S at every point come from one more call, on the full
slices.  Each row is still exactly what its point gives
alone.  A point whose tensor, verdict or solve fails gives one ``error``
row and a note, and the sweep goes on: when a joint solve fails, every
point solves what it still needs alone.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .sigma_apical import SigmaContext, existence_verdict, solve_together
from .solver import (
    OptimizationReport,
    SolverError,
    SolverOptions,
    fit_prescribed_ricci,
    maximize_hatS_on_slices,
    maximize_S_on_MT,
)
from .space_model import HomogeneousSpaceSpec, SpecError, parse_number

__all__ = ["parse_grid_axis", "grid_points", "sweep"]


def _fmt(x: float) -> str:
    return "%.17g" % x


def parse_grid_axis(text: str, s: int) -> tuple[int, float, float, int]:
    """The axis ``i=min:max:steps`` as (i, min, max, steps), i being the
    1-based tensor coordinate it sets."""
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
    if maximum <= 0:
        raise SpecError("grid maximum must be positive", "--grid")
    if n < 1:
        raise SpecError("grid steps must be >= 1", "--grid")
    return index, minimum, maximum, n


def grid_points(spec: HomogeneousSpaceSpec, axis_texts: list[str], base: tuple[float, ...],
                normalize: bool = False) -> list[tuple[float, ...]]:
    """The tensors of the grid in row-major order: ``base`` with the
    coordinate of each axis set from it, and with ``normalize`` rescaled to
    unit weighted sum, sum d_i z_i = 1."""
    axes = [parse_grid_axis(text, spec.s) for text in axis_texts]
    if not axes:
        raise SpecError("at least one --grid axis is required", "--grid")
    if len(axes) > 2:
        raise SpecError("at most 2 free axes per sweep", "--grid")
    if len({index for index, *_ in axes}) != len(axes):
        raise SpecError("grid axes must use distinct coordinates", "--grid")
    points = []
    for combo in product(*(np.linspace(lo, hi, n) for _, lo, hi, n in axes)):
        z = list(base)
        for (index, *_), value in zip(axes, combo):
            z[index - 1] = float(value)
        if normalize:
            total = sum(spec.d[i] * z[i] for i in range(spec.s))
            z = [v / total for v in z]
        points.append(tuple(z))
    return points


def _context(spec: HomogeneousSpaceSpec, z: tuple[float, ...], options: SolverOptions) -> SigmaContext | None:
    """The point's context, or None for a tensor its own row rejects."""
    try:
        return SigmaContext(spec, z, options)
    except ValueError:
        return None


def _maximizers(spec: HomogeneousSpaceSpec, contexts: list[SigmaContext | None],
                options: SolverOptions) -> list[OptimizationReport | None]:
    """The maximiser of S at each point with a context, all from one call on
    the full slices; each is the report :func:`maximize_S_on_MT` gives
    alone.  None stands for a point that solves alone: one without a
    context, and every point when the call raises, as it does for a space
    of one summand."""
    built = [ctx for ctx in contexts if ctx is not None]
    try:
        reports = iter(maximize_hatS_on_slices(spec, [spec.summand_indices()] * len(built),
                                               [ctx.z for ctx in built], options))
    except (SolverError, ValueError):
        return [None] * len(contexts)
    return [None if ctx is None else next(reports) for ctx in contexts]


def _row(spec: HomogeneousSpaceSpec, z: tuple[float, ...], ctx: SigmaContext | None,
         report: OptimizationReport | None, options: SolverOptions, solve: bool) -> tuple[list[str], str]:
    """One CSV record and its note.  Without a context, building it again
    raises the error the row reports; without a report, the point solves
    alone."""
    cells = ["", "", "", ""] + (["", ""] if solve else [])
    note = ""
    try:
        verdict = existence_verdict(ctx or SigmaContext(spec, z, options))
        cells[0] = verdict.status.value
        if verdict.apical is not None:
            cells[1:4] = ["+".join(str(i) for i in verdict.apical.sorted), _fmt(verdict.sigma.value),
                          _fmt(verdict.margin)]
        if solve:
            if report is None:
                report = maximize_S_on_MT(spec, z, options)
            _, verification, note = fit_prescribed_ricci(spec, report, z)
            if not note:
                cells[4:] = [_fmt(verification.c), _fmt(verification.residual)]
    except (SolverError, ValueError) as exc:
        cells = ["error"] + [""] * (len(cells) - 1)
        note = f"{exc}"
    return [_fmt(v) for v in z] + cells, note


def sweep(spec: HomogeneousSpaceSpec, points: list[tuple[float, ...]], options: SolverOptions,
          solve: bool = False) -> tuple[list[str], list[list[str]], list[str]]:
    """The header, one CSV record per point in order, and the notes of a
    sweep; with ``solve`` each record adds the Ricci fit at the maximiser
    of S, left empty unless it verifies."""
    contexts = [_context(spec, z, options) for z in points]
    solve_together([ctx for ctx in contexts if ctx is not None])
    reports = _maximizers(spec, contexts, options) if solve else [None] * len(points)
    header = [f"z{i}" for i in spec.summand_indices()] + ["status", "apical", "sigma", "margin"]
    header += ["c", "residual"] if solve else []
    rows, notes = [], []
    for z, ctx, report in zip(points, contexts, reports):
        record, note = _row(spec, z, ctx, report, options, solve)
        rows.append(record)
        if note:
            notes.append(f"z={','.join(record[:spec.s])}: {note}")
    return header, rows, notes
