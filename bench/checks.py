"""Checks on every response the benchmark receives.

The Ricci residual of a solved metric is recomputed here from the printed
coefficients with the benchmark's own formula: S is written out term by term
and R_m = -(x_m^2 / d_m) dS/dx_m.  Nothing in this module imports the
program; the Wallach fast path used for E6 verdicts is passed in.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import permutations

from .workloads import Request, parse_number

VERDICTS = ("guaranteed", "inconclusive", "boundary", "degenerate_constant_ricci")
SIGMA_SOURCES = ("closed_form_irreducible", "interior_maximum", "boundary_recursion")
RESIDUAL_LIMIT = 1e-8
ALLOWED_EXIT = {"solve": (0, 3)}   # every other command must exit 0


@dataclass
class Outcome:
    """What one response contributed; ``failure`` is None when it passed."""

    failure: str | None = None
    unsolved: bool = False
    verdicts: list[str] = field(default_factory=list)
    sweep_points: int = 0
    rows: list[dict] = field(default_factory=list)


def ordered_triples(doc: dict) -> list[tuple[tuple[int, int, int], float]]:
    """Every distinct ordering of every nonzero constant, 0-based."""
    out = []
    for entry in doc["triples"]:
        value = parse_number(str(entry["value"]))
        if value == 0:
            continue
        for ordered in sorted(set(permutations((entry["i"] - 1, entry["j"] - 1, entry["k"] - 1)))):
            out.append((ordered, value))
    return out


def ricci_fit(doc: dict, x: list[float], z: tuple[float, ...]) -> tuple[float, float]:
    """Best c with Ric = c T and the residual max_i |R_i - c z_i| / max(1, |c z_i|).

    S(x) = 1/2 sum_i d_i b_i / x_i - 1/4 sum_{ijk} [ijk] x_k / (x_i x_j), and
    each monomial g = x_k / (x_i x_j) has dg/dx_m = g (δ_km - δ_im - δ_jm) / x_m.
    c minimises sum_i d_i (R_i - c z_i)^2 / x_i^2.
    """
    d = doc["d"]
    b = [parse_number(str(v)) for v in doc.get("b", [1] * len(d))]
    s = len(d)
    grad = [-0.5 * d[m] * b[m] / (x[m] * x[m]) for m in range(s)]
    for (i, j, k), value in ordered_triples(doc):
        g = value * x[k] / (x[i] * x[j])
        grad[k] -= 0.25 * g / x[k]
        grad[i] += 0.25 * g / x[i]
        grad[j] += 0.25 * g / x[j]
    R = [-(x[m] * x[m] / d[m]) * grad[m] for m in range(s)]
    numerator = sum(d[m] * R[m] * z[m] / (x[m] * x[m]) for m in range(s))
    denominator = sum(d[m] * z[m] * z[m] / (x[m] * x[m]) for m in range(s))
    c = numerator / denominator
    residual = max(abs(R[m] - c * z[m]) / max(1.0, abs(c * z[m])) for m in range(s))
    return c, residual


def _check_solve(doc: dict, request: Request, code: int, out: str, err: str) -> Outcome:
    if code == 3:
        if not err.startswith("solver did not converge"):
            return Outcome(failure=f"exit 3 without the non-convergence diagnostic: {err[:200]!r}", unsolved=True)
        return Outcome(unsolved=True)
    payload = json.loads(out)
    c_own, residual_own = ricci_fit(doc, payload["x"], request.z)
    problems = []
    if not payload["c"] > 0:
        problems.append(f"c = {payload['c']} is not positive")
    if not payload["residual"] < RESIDUAL_LIMIT:
        problems.append(f"printed residual {payload['residual']} >= {RESIDUAL_LIMIT}")
    if not residual_own < RESIDUAL_LIMIT:
        problems.append(f"recomputed residual {residual_own} >= {RESIDUAL_LIMIT}")
    if not abs(c_own - payload["c"]) <= 1e-9 * max(1.0, abs(c_own)):
        problems.append(f"recomputed c {c_own} differs from printed c {payload['c']}")
    return Outcome(failure="; ".join(problems) or None, unsolved=bool(problems))


def _check_verdict(doc: dict, payload: dict, request: Request, wallach) -> str | None:
    if payload["status"] not in VERDICTS:
        return f"unknown status {payload['status']!r}"
    if tuple(payload["T"]) != request.z:
        return f"echoed T {payload['T']} differs from the request's {request.z}"
    if payload["status"] != "degenerate_constant_ricci":
        lhs, rhs, margin = payload["lhs"], payload["rhs"], payload["margin"]
        if abs((rhs - lhs) - margin) > 1e-12 * max(1.0, abs(rhs)):
            return f"margin {margin} is not rhs - lhs"
    if request.builtin and request.space == "E6_Sp3xSp1":
        (only,) = doc["triples"]
        fast = wallach(tuple(doc["d"]), parse_number(only["value"]), request.z)
        if (fast.status.value != payload["status"] or list(fast.apical.sorted) != payload["apical"]
                or abs(fast.margin - payload["margin"]) > 1e-9 * max(1.0, abs(fast.rhs))):
            return (f"E6 verdict {payload['status']} {payload['apical']} margin {payload['margin']} "
                    f"differs from the Wallach fast path {fast.status.value} "
                    f"{list(fast.apical.sorted)} margin {fast.margin}")
    return None


def _check_sigma(payload: dict) -> str | None:
    if not payload["rows"]:
        return "empty sigma table"
    for row in payload["rows"]:
        if row["source"] not in SIGMA_SOURCES or not math.isfinite(row["value"]):
            return f"bad sigma row {row}"
        if row["attained"] != (row["witness"] is not None):
            return f"attainment and witness disagree in {row}"
    return None


def sweep_points_expected(request: Request) -> int:
    count = 1
    for flag, value in zip(request.extra, request.extra[1:]):
        if flag == "--grid":
            count *= int(value.rsplit(":", 1)[1])
    return count


def _check_sweep(request: Request, out: str) -> Outcome:
    rows = list(csv.DictReader(io.StringIO(out)))
    expected = sweep_points_expected(request)
    if len(rows) != expected:
        return Outcome(failure=f"{len(rows)} sweep rows, expected {expected}")
    bad = [row for row in rows if row["status"] not in VERDICTS]
    if bad:
        return Outcome(failure=f"{len(bad)} sweep rows without a verdict, first {bad[0]}")
    return Outcome(verdicts=[row["status"] for row in rows], sweep_points=len(rows), rows=rows)


def check_response(doc: dict, request: Request, code: int | None, out: str, err: str,
                   wallach) -> Outcome:
    """Judge one response; ``doc`` is the space document the request used."""
    if code not in ALLOWED_EXIT.get(request.command, (0,)):
        return Outcome(failure=f"exit code {code}: {err[:200]!r}", unsolved=request.command == "solve")
    try:
        if request.command == "solve":
            return _check_solve(doc, request, code, out, err)
        if request.command == "sweep":
            return _check_sweep(request, out)
        payload = json.loads(out)
        if request.command == "check":
            return Outcome(failure=_check_verdict(doc, payload, request, wallach), verdicts=[payload["status"]])
        return Outcome(failure=_check_sigma(payload))
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(failure=f"malformed output ({exc!r}): {out[:200]!r}")


def row_matches_check(row: dict, out: str) -> str | None:
    """A sweep row must carry the verdict a single ``check`` gives at its T."""
    payload = json.loads(out)
    single = {
        "status": payload["status"],
        "apical": "+".join(str(i) for i in payload["apical"] or []),
        "sigma": "" if payload["sigma"] is None else "%.17g" % payload["sigma"]["value"],
        "margin": "" if payload["margin"] is None else "%.17g" % payload["margin"],
    }
    for key, value in single.items():
        if row[key] != value:
            return f"sweep row {key} {row[key]!r} differs from single check {value!r}"
    return None
