"""Tests of the benchmark's own logic; run with ``python3 -m pytest bench/tests``.

None of these import the program.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from bench import checks, workloads  # noqa: E402
from bench.run import tail  # noqa: E402
from bench.trace import Span, self_times  # noqa: E402


def _inputs(workload: str, seed: int, index: int) -> dict[str, str]:
    batch = workloads.batch(workload, seed, index)
    out = {name: workloads.space_file_text(doc) for name, doc in batch.files.items()}
    out["argv"] = repr([request.argv(Path("W")) for request in batch.requests])
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = _inputs(workload, 3, 1)
    assert first == _inputs(workload, 3, 1)
    assert first != _inputs(workload, 4, 1)
    assert first != _inputs(workload, 3, 2)


def test_sparse_specs_have_the_promised_structure():
    for doc in workloads.unattained_family():
        multisets = [(e["i"], e["j"], e["k"]) for e in doc["triples"]]
        closed = workloads.closed_masks(workloads.SPARSE_SUMMANDS, multisets)
        composite = [m for m in closed if m & (m - 1)]
        lo, hi = workloads.SPARSE_COMPOSITE_BAND
        assert lo <= len(composite) <= hi
        assert all(any(c != m and c & m == c for c in closed) for m in composite)


def test_unattained_batches_check_the_fixed_family():
    family = {tuple(d["d"]): sorted((e["i"], e["j"], e["k"], e["value"]) for e in d["triples"])
              for d in workloads.unattained_family()}
    for seed, index in ((0, 0), (5, 3)):
        batch = workloads.batch("unattained", seed, index)
        assert sorted(r.command for r in batch.requests) == ["check", "check", "solve"]
        for doc in batch.files.values():
            triples = sorted((e["i"], e["j"], e["k"], e["value"]) for e in doc["triples"])
            assert family[tuple(doc["d"])] == triples


def test_mixed_specs_only_use_distinct_indices():
    import random

    doc = workloads.mixed_spec(random.Random(0), "m")
    multisets = [(e["i"], e["j"], e["k"]) for e in doc["triples"]]
    assert all(i < j < k for i, j, k in multisets)
    assert 0.2 < len(multisets) / 560 < 0.4
    assert len(workloads.closed_pairs(16, multisets)) == workloads.MIXED_CLOSED_PAIRS


def test_catalog_batch_composition_is_fixed():
    batch = workloads.batch("catalog", 0, 0)
    commands = [(r.command, r.space) for r in batch.requests]
    assert commands[-1] == ("sweep", "G2_U2_long")
    for name in workloads.CATALOG:
        for command, count in workloads.CATALOG_MIX:
            assert commands.count((command, name)) == count


@pytest.mark.parametrize("n, expected", [
    (10, None),                    # nothing has ten samples beyond it
    (20, (50, 10.0, 10)),
    (100, (90, 90.0, 10)),
    (199, (90, 180.0, 19)),        # p95 would leave only 9 beyond
    (200, (95, 190.0, 10)),
    (1000, (99, 990.0, 10)),
    (2000, (99.5, 1990.0, 10)),
])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, expected):
    samples = [float(v) for v in range(n, 0, -1)]
    assert tail(samples) == expected


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        Span(1, "request", 0.0, 10.0),
        Span(2, "check", 1.0, 4.0, parent=1),
        Span(3, "sigma", 1.5, 3.0, parent=2),
        Span(4, "slice", 2.0, 2.5, parent=3),
        # two sweep workers side by side, overlapping each other
        Span(5, "check", 5.0, 8.0, parent=1),
        Span(6, "check", 6.0, 9.0, parent=1),
        # a child that outlives its parent only counts inside the parent
        Span(7, "compile", 9.5, 11.0, parent=1),
    ]
    own = self_times(spans)
    assert own[4] == pytest.approx(0.5)
    assert own[3] == pytest.approx(1.0)
    assert own[2] == pytest.approx(1.5)
    assert own[1] == pytest.approx(10.0 - 3.0 - 4.0 - 0.5)
    assert own[5] == pytest.approx(3.0)


def test_ricci_fit_recovers_a_known_ricci_tensor():
    # for the normal metric x = (1, 1, 1) of E6/Sp3xSp1, whose only constant
    # is [123] = a, the Ricci eigenvalues are 1/2 - a / (2 d_m)
    doc = workloads.CATALOG["E6_Sp3xSp1"]
    x = [1.0, 1.0, 1.0]
    ricci = tuple(0.5 - 3.5 / (2 * d) for d in doc["d"])
    c, residual = checks.ricci_fit(doc, x, ricci)
    assert c == pytest.approx(1.0, abs=1e-15)
    assert residual < 1e-15
    _, residual = checks.ricci_fit(doc, x, (1.0, 1.0, 1.0))
    assert residual > 1e-3
