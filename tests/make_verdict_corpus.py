"""Write the verdict corpus that ``test_verdict_corpus.py`` compares against.

Each entry is one seeded space with s <= 8 summands and one tensor T: the
space itself (rational constants, so the file reads back exactly), the
``check`` verdict's status and pivot, the ``sigma`` table over the whole
lattice, one row per member: [J, attained, source, value], and the ``solve``
report: whether it converged, how many restarts ended each way, and for a
converged report the maximum and its argmax.  The test recomputes every
entry and compares status, pivot, attainment, source, convergence and the
restart counts exactly, each sigma and maximum to 1e-12 relative and each
argmax coordinate to 1e-9 relative, so a change that moves a verdict or a
solve shows up as a failed test, and a deliberate move as a regenerated
file.

Run from the repository root:

    PYTHONPATH=src python tests/make_verdict_corpus.py > tests/data/verdict_corpus.json
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys

import numpy as np

from homricci.sigma_apical import SigmaContext, existence_verdict
from homricci.solver import SolverError, maximize_S_on_MT
from homricci.space_model import load_space_spec
from homricci.subalgebras import intermediate_subalgebras

SEED = 1309
REQUESTS = 100
MAX_SUMMANDS = 8
DENSITY = (0.03, 0.25)
# lattices larger than this make the test slow without covering more
MAX_LATTICE = 40


def draw_space(rng: np.random.Generator) -> dict:
    """A space in the compact form of the corpus: dims, b and
    [i, j, k, "p/q"] triples over every multiset i <= j <= k."""
    s = int(rng.integers(2, MAX_SUMMANDS + 1))
    density = float(rng.uniform(*DENSITY))
    b = [1] * s if rng.random() < 0.8 else [int(v) for v in rng.integers(0, 3, s)]
    triples = [[i, j, k, f"{rng.integers(1, 9)}/{rng.integers(1, 5)}"]
               for i, j, k in itertools.combinations_with_replacement(range(1, s + 1), 3)
               if rng.random() < density]
    return {"d": [int(v) for v in rng.integers(1, 13, s)], "b": b, "triples": triples}


def draw_T(rng: np.random.Generator, s: int) -> list[float]:
    """T = 1 half of the time, otherwise four-decimal coordinates in [1/2, 2]."""
    if rng.random() < 0.5:
        return [1.0] * s
    return [round(float(np.exp(rng.uniform(-np.log(2), np.log(2)))), 4) for _ in range(s)]


def spec_of(space: dict):
    return load_space_spec({
        "name": "corpus", "d": space["d"], "b": space["b"],
        "triples": [{"i": i, "j": j, "k": k, "value": v} for i, j, k, v in space["triples"]],
    })


def verdicts(space: dict, T: list[float]) -> dict:
    """The check verdict, the sigma table and the solve report of one
    request.  The table is read from the context the check filled, which
    gives every sigma its context would compute alone."""
    spec = spec_of(space)
    ctx = SigmaContext(spec, T)
    verdict = existence_verdict(ctx)
    rows = ctx.closed_sigmas(intermediate_subalgebras(spec).all_proper)
    report = maximize_S_on_MT(spec, T)
    solve = {"converged": report.converged, "outcomes": dataclasses.asdict(report.outcomes)}
    if report.converged:
        solve.update(value=report.value, argmax=list(report.argmax))
    return {
        "status": verdict.status.value,
        "apical": None if verdict.apical is None else list(verdict.apical.sorted),
        "sigma": [[list(r.J.sorted), r.attained, r.source.value, r.value] for r in rows],
        "solve": solve,
    }


def corpus() -> list[dict]:
    rng = np.random.default_rng(SEED)
    entries = []
    while len(entries) < REQUESTS:
        space = draw_space(rng)
        T = draw_T(rng, len(space["d"]))
        lattice = intermediate_subalgebras(spec_of(space)).all_proper
        if not space["triples"] or not lattice or len(lattice) > MAX_LATTICE:
            continue
        try:
            entries.append({"space": space, "T": T, **verdicts(space, T)})
        except SolverError:  # a composite member with nothing closed inside it
            continue
    return entries


def main() -> None:
    lines = ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in corpus())
    sys.stdout.write(f'{{"seed":{SEED},"requests":[\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
