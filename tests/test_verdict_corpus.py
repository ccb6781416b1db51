"""Every verdict of the committed corpus is reproduced.

``tests/data/verdict_corpus.json`` holds 100 seeded check, sigma and solve
requests on spaces with s <= 8 (see ``make_verdict_corpus.py``).  Status,
pivot, attainment, source, solve convergence and restart outcome counts must
match exactly, every sigma value and solved maximum to 1e-12 relative and
every argmax coordinate to 1e-9 relative, so a change to the numerics that
moves a verdict or a solve fails here.
"""

import json
from pathlib import Path

import pytest

from make_verdict_corpus import verdicts

CORPUS = json.loads((Path(__file__).parent / "data" / "verdict_corpus.json").read_text())["requests"]


def test_corpus_verdicts_are_reproduced():
    assert len(CORPUS) == 100
    for entry in CORPUS:
        got = verdicts(entry["space"], entry["T"])
        where = f"d={entry['space']['d']} T={entry['T']}"
        assert (got["status"], got["apical"]) == (entry["status"], entry["apical"]), where
        assert [row[:3] for row in got["sigma"]] == [row[:3] for row in entry["sigma"]], where
        for row, want in zip(got["sigma"], entry["sigma"]):
            assert row[3] == pytest.approx(want[3], rel=1e-12, abs=0.0), (where, row[0])
        solve, want = got["solve"], entry["solve"]
        assert (solve["converged"], solve["outcomes"]) == (want["converged"], want["outcomes"]), where
        assert solve.keys() == want.keys(), where
        if want["converged"]:
            assert solve["value"] == pytest.approx(want["value"], rel=1e-12, abs=0.0), where
            assert solve["argmax"] == pytest.approx(want["argmax"], rel=1e-9, abs=0.0), where
