"""Closed-loop benchmark of the homricci command line.

    python3 bench/run.py --workload catalog --seed 0 --seconds 30 --trace 0

One client in one fresh process sends requests through
``homricci.cli.run(argv)`` in process, each after the previous one has
answered, in batches drawn from the seed (see ``bench/workloads.py``).  It
starts another batch only while one more batch of the median length so far
would end within ``--seconds``, and always completes the one it started, so
a run lasts about ``--seconds`` and at least one batch.  Every response is
checked.  The report lines name every metric
with its unit; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).

With ``--trace 1`` even batches run untraced and odd ones traced, so the
tracing overhead is the difference of their median wall times in one
process.  Spans are written to ``bench/.out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import checks, workloads  # noqa: E402
from bench.trace import Tracer, install, layer_metrics  # noqa: E402

SETUP_SAMPLES = 9          # the run's own set-up plus eight in child processes
PROBE_TIMEOUT_S = 120
TAIL_PERCENTILES = (50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
TAIL_BEYOND = 10


class SetupError(RuntimeError):
    pass


@dataclass
class Response:
    code: int | None
    out: str
    err: str
    seconds: float
    warnings: int


def send(cli, argv: list[str], tracer: Tracer | None = None, request_id: int = 0) -> Response:
    """One request, with stdout, stderr and numpy RuntimeWarnings captured."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.begin_request(request_id, caught) if tracer else None
            start = perf_counter()
            try:
                code = cli.run(argv)
            except Exception:  # a crash is one failed request, not a failed run
                code = None
                err.write(traceback.format_exc(limit=4))
            seconds = perf_counter() - start
            if span is not None:
                tracer.end_request(span)
    return Response(code, out.getvalue(), err.getvalue(), seconds, len(caught))


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program, write batch 0's space files and send the warm-up
    request; returns (seconds, cli module, batch 0)."""
    start = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("homricci.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import homricci from {SRC}: {exc}") from exc
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"homricci was imported from {cli.__file__}, not from {SRC}")
    first = workloads.batch(workload, seed, 0)
    first.write(workdir)
    warm = send(cli, list(workloads.WARMUP_ARGV))
    if warm.code != 0:
        raise SetupError(f"warm-up request exited {warm.code}: {warm.err.strip()}")
    return perf_counter() - start, cli, first


def probe(workload: str, seed: int, workdir: str) -> None:
    """Entry point of a set-up child process: print its set-up seconds."""
    seconds, _, _ = set_up(workload, seed, Path(workdir))
    print(repr(seconds))


def probe_setups(workload: str, seed: int, workdir: Path, count: int) -> list[float]:
    samples = []
    for k in range(count):
        where = workdir / f"probe{k}"
        code = (f"import sys; sys.path.insert(0, {str(ROOT)!r}); from bench.run import probe; "
                f"probe({workload!r}, {seed}, {str(where)!r})")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(where, ignore_errors=True)
    return samples


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond) for the highest percentile in
    TAIL_PERCENTILES with at least TAIL_BEYOND samples beyond it, by nearest
    rank; None when there are too few samples for any."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        rank = -(-round(p * 100) * n // 10000)      # ceil(p / 100 * n), exactly
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            best = (p, ordered[rank - 1], n - rank)
    return best


@dataclass
class Tally:
    """Everything the run measured and checked."""

    latencies: list[float] = field(default_factory=list)      # untraced requests, s
    walls: list[float] = field(default_factory=list)          # untraced batches, s
    traced_walls: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[tuple[tuple[int, int], str]] = field(default_factory=list)  # ((batch, request), why)
    solves: int = 0
    unsolved: int = 0
    verdicts: Counter = field(default_factory=Counter)
    sweep_points: int = 0
    sweep_seconds: float = 0.0
    warnings: int = 0
    batches: int = 0

    def failed(self) -> int:
        return len({key for key, _ in self.failures})


def run_batch(cli, batch: workloads.Batch, index: int, workdir: Path, tally: Tally,
              tracer: Tracer | None, wallach) -> list[tuple[workloads.Request, Response, checks.Outcome]]:
    done = []
    for n, request in enumerate(batch.requests):
        response = send(cli, request.argv(workdir), tracer, request_id=tally.attempted)
        outcome = checks.check_response(batch.document(request), request, response.code,
                                        response.out, response.err, wallach)
        tally.attempted += 1
        tally.warnings += response.warnings
        if tracer is None:
            tally.latencies.append(response.seconds)
        if outcome.failure:
            tally.failures.append(((index, n), f"{request.argv(workdir)}: {outcome.failure}"))
        if request.command == "solve":
            tally.solves += 1
            tally.unsolved += outcome.unsolved
        if request.command == "sweep":
            tally.sweep_points += outcome.sweep_points
            tally.sweep_seconds += response.seconds
        tally.verdicts.update(outcome.verdicts)
        done.append((request, response, outcome))
    wall = sum(response.seconds for _, response, _ in done)
    (tally.walls if tracer is None else tally.traced_walls).append(wall)
    tally.batches += 1
    return done


def verify_first_batch(cli, workload: str, seed: int, batch: workloads.Batch, done, workdir: Path,
                       tally: Tally) -> None:
    """Untimed follow-ups on batch 0: one sampled row of every sweep must
    match a single ``check`` at its T, and on ``catalog`` one sampled request
    sent again must answer with identical bytes."""
    rng = random.Random(f"{workload}:{seed}:verify")
    for n, (request, response, outcome) in enumerate(done):
        if request.command != "sweep" or outcome.failure:
            continue
        row = rng.choice(outcome.rows)
        T = ",".join(row[f"z{i}"] for i in range(1, len(batch.document(request)["d"]) + 1))
        single = workloads.Request("check", request.space, T, builtin=request.builtin)
        again = send(cli, single.argv(workdir))
        problem = (f"single check exited {again.code}: {again.err[:200]!r}" if again.code != 0
                   else checks.row_matches_check(row, again.out))
        if problem:
            tally.failures.append(((0, n), f"{request.argv(workdir)}: {problem}"))
    if workload == "catalog":
        n = rng.randrange(len(done))
        request, response, _ = done[n]
        again = send(cli, request.argv(workdir))
        if (again.code, again.out, again.err) != (response.code, response.out, response.err):
            tally.failures.append(((0, n), f"{request.argv(workdir)}: "
                                   "repeated request answered with different bytes"))


def end_to_end(tally: Tally, setup_samples: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(tally.walls), "s"),
        "req_p50_ms": (1000.0 * statistics.median(tally.latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def report_lines(workload: str, seed: int, tally: Tally, e2e: dict, setup_samples: list[float],
                 measured_s: float) -> list[str]:
    untraced = len(tally.walls)
    lines = [
        f"workload {workload}, seed {seed}: {tally.attempted} requests in {tally.batches} batches "
        f"over {measured_s:.1f} s",
        f"  setup_s            {e2e['setup_s'][0]:12.4f} s    median of {len(setup_samples)} set-ups",
        f"  wall_s             {e2e['wall_s'][0]:12.4f} s    median of {untraced} untraced batches",
        f"  req_p50_ms         {e2e['req_p50_ms'][0]:12.4f} ms   median of {len(tally.latencies)} requests",
    ]
    high = tail(tally.latencies)
    if high is None:
        lines.append(f"  req_tail_ms        absent: {len(tally.latencies)} requests, "
                     f"a tail needs {TAIL_BEYOND} beyond it")
    else:
        p, value, beyond = high
        lines.append(f"  req_tail_ms        {1000.0 * value:12.4f} ms   p{p:g} of "
                     f"{len(tally.latencies)} requests, {beyond} beyond it")
    if tally.sweep_points:
        lines.append(f"  sweep_points_per_s {tally.sweep_points / tally.sweep_seconds:12.4f} 1/s  "
                     f"{tally.sweep_points} points")
    else:
        lines.append("  sweep_points_per_s absent: no sweep requests")
    failed = tally.failed()
    lines.append(f"  failed_frac        {failed / tally.attempted:12.4f} ratio {failed} of {tally.attempted}")
    if tally.solves:
        lines.append(f"  unsolved_frac      {tally.unsolved / tally.solves:12.4f} ratio {tally.unsolved} of "
                     f"{tally.solves} solves")
    else:
        lines.append("  unsolved_frac      absent: no solve requests")
    lines.append(f"  peak_rss_mb        {e2e['peak_rss_mb'][0]:12.4f} MB")
    lines.append(f"  verdicts           {dict(sorted(tally.verdicts.items()))} over {tally.batches} batches")
    lines.append(f"  runtime_warnings   {tally.warnings} captured")
    lines += [f"  FAILED batch {b} request {n} {why}" for (b, n), why in tally.failures]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / "bench" / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        try:
            seconds, cli, first = set_up(args.workload, args.seed, workdir)
            setup_samples = [seconds] + probe_setups(args.workload, args.seed, workdir, SETUP_SAMPLES - 1)
        except (SetupError, OSError, subprocess.SubprocessError) as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 1
        from homricci import wallach_existence_check

        tracer = Tracer() if args.trace else None
        tally = Tally()
        start = perf_counter()
        index = 0
        batch_seconds = []
        while True:
            began = perf_counter()
            batch = first if index == 0 else workloads.batch(args.workload, args.seed, index)
            batch.write(workdir)
            traced = tracer is not None and index % 2 == 1
            uninstall = install(tracer) if traced else None
            try:
                done = run_batch(cli, batch, index, workdir, tally, tracer if traced else None,
                                 wallach_existence_check)
            finally:
                if uninstall is not None:
                    uninstall()
            batch_seconds.append(perf_counter() - began)   # without batch 0's follow-ups
            if index == 0:
                verify_first_batch(cli, args.workload, args.seed, batch, done, workdir, tally)
            index += 1
            enough = perf_counter() - start + statistics.median(batch_seconds) > args.seconds
            if enough and (tracer is None or tally.traced_walls):
                break
        measured = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(tally, setup_samples)
    for line in report_lines(args.workload, args.seed, tally, e2e, setup_samples, measured):
        print(line)
    if tracer is None:
        metrics = e2e
    else:
        traced = statistics.median(tally.traced_walls)
        metrics = layer_metrics(tracer, len(tally.traced_walls))
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - e2e["wall_s"][0], "s")
        for status in checks.VERDICTS:
            metrics[f"verdicts.{status}"] = (tally.verdicts[status] / tally.batches, "count")
        print(f"  per-layer numbers per traced batch ({len(tally.traced_walls)} traced, "
              f"{len(tally.walls)} untraced):")
        for name, (value, unit) in metrics.items():
            print(f"    {name:34s} {value:14.6g} {unit}")
        tracer.dump(ROOT / "bench" / ".out" / f"spans-{args.workload}-{args.seed}.jsonl")
    failed = tally.failed()
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
