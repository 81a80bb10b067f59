#!/usr/bin/env python3
"""Benchmark for alttamari: drives the public CLI in-process and reports metrics.

One workload per run, in a fresh interpreter, as a closed loop with one
client: each command is ``alttamari.cli.main(argv)`` with stdout and
stderr captured, and the next starts only after the previous returns.
Every output is checked; a command that exits non-zero or prints a wrong
result counts as failed.

    python3 bench/run.py --workload census --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --seed 1 --seconds 35        # all workloads, one process each
    python3 bench/run.py --replay bench/out/argv-census-seed1-trace0.json

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps the
library's layer functions (see ``spans.py``), runs every command once
traced and once untraced, and reports per-layer metrics per command plus
the tracing overhead. The generated argv list, and in a traced run the
spans, are written under ``bench/out``. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is non-zero when any output check failed or the program cannot
be imported from ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import pace
import quantiles
import spans
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# name -> unit. Timings exclude the client's own work (argv generation,
# output checks) and are scaled to a reference machine speed (pace.py);
# setup_s is measured in fresh interpreters.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# name -> unit; counts and times are per traced command unless the unit says otherwise.
PER_LAYER = {
    "paths.enumerate_nu_paths.calls": "calls/op",
    "paths.enumerate_nu_paths.busy_s": "s/op",
    "paths.delta_rotate.calls": "calls/op",
    "paths.delta_rotate.busy_s": "s/op",
    "paths.valleys.busy_s": "s/op",
    "order.build_lattice.self_s": "s/op",
    "order.closure_bytes": "B/lattice",
    "order.census.self_s": "s/op",
    "order.check_lattice_laws.calls": "calls/op",
    "order.check_lattice_laws.busy_s": "s/op",
    "order.lattices_built": "lattices/op",
    "trees.right_flushing.calls": "calls/op",
    "trees.right_flushing.busy_s": "s/op",
    "trees.build_region.calls": "calls/op",
    "vectors.reduced_column_vector.calls": "calls/op",
    "vectors.reduced_column_vector.busy_s": "s/op",
    "vectors.reduced_down_flushing.calls": "calls/op",
    "vectors.reduced_down_flushing.busy_s": "s/op",
    "vectors.reduced_column_order.calls": "calls/op",
    "vectors.region_reuse": "ratio",
    "transport.verify_theorem.self_s": "s/op",
    "transport.verify_theorem.deltas_checked": "deltas/op",
    "transport.horizontal_flushing.busy_s": "s/op",
    "transport.vertical_flushing.busy_s": "s/op",
    "oracle.closure_from_covers.busy_s": "s/op",
    "oracle.oracle_census.busy_s": "s/op",
    "cli.main.self_s": "s/op",
    "trace.overhead_frac": "ratio",
}

SETUP_REPEATS = 16
SETUP_SNIPPET = pace.REFERENCE_SOURCE + (
    "before = reference_loop()\n"
    "start = time.perf_counter()\n"
    "import alttamari.cli\n"
    "alttamari.cli.build_parser()\n"
    "seconds = time.perf_counter() - start\n"
    "print(seconds, (before + reference_loop()) / 2)\n"
)
# A reference loop runs at least this often between commands (see pace.py).
REFERENCE_EVERY_S = 0.25
SHOWN_FAILURES = 5


def load_cli():
    """Import the CLI from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import alttamari.cli as cli
    except ImportError as err:
        raise SystemExit(f"bench: cannot import alttamari from {SRC}: {err}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: alttamari was imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """``import alttamari.cli`` plus ``build_parser()`` in fresh interpreters.

    Returns (seconds, reference loop seconds in the same interpreter) per
    start. One unmeasured start first writes the bytecode caches, which
    users pay once.
    """
    command = [sys.executable, "-c", SETUP_SNIPPET]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def once() -> tuple[float, float]:
        done = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        seconds, reference = done.stdout.split()
        return float(seconds), float(reference)

    once()
    return [once() for _ in range(repeats)]


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    seconds: float


def invoke(cli, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing command is a failed command, the run goes on
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)


@dataclass
class Tally:
    workload: Workload
    reference: object
    attempted: int = 0
    failures: list[tuple[list[str], str]] = field(default_factory=list)

    def record(self, argv: list[str], outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.code != 0:
            lines = outcome.stderr.strip().splitlines() or [""]
            problem = f"exit {outcome.code}: {lines[-1]}"
        else:
            problem = self.workload.check(argv, outcome.stdout, outcome.stderr, self.reference)
        if problem:
            self.failures.append((argv, problem))


def run_plain(cli, commands, seconds: float | None, tally: Tally):
    """Closed loop until ``seconds`` have passed (or the commands run out).

    Returns the seconds per command, measured and scaled. The reference
    loop runs before the first command and again whenever
    ``REFERENCE_EVERY_S`` has passed; the commands in between are scaled by
    the mean of the references on either side of them.
    """
    times, scaled, pending = [], [], []

    def settle() -> float:
        after = pace.reference_loop()
        scaled.extend(pace.scale(t, (before + after) / 2) for t in pending)
        times.extend(pending)
        pending.clear()
        return after

    before = pace.reference_loop()
    start = last = time.perf_counter()
    for argv in commands:
        outcome = invoke(cli, argv)
        pending.append(outcome.seconds)
        tally.record(argv, outcome)
        now = time.perf_counter()
        done = seconds is not None and now - start >= seconds
        if done or now - last >= REFERENCE_EVERY_S:
            before = settle()
            last = time.perf_counter()
        if done:
            break
    if pending:
        settle()
    return times, scaled


def run_traced(cli, commands, seconds: float | None, tally: Tally, tracer: spans.Tracer):
    """Each command twice, traced and untraced, alternating which goes first.

    Returns the number of commands and the traced over untraced time, minus one.
    """
    ops = 0
    plain = traced = 0.0
    start = time.perf_counter()
    for op, argv in enumerate(commands):
        for with_trace in (False, True) if op % 2 == 0 else (True, False):
            if with_trace:
                tracer.begin_op(op)
                tracer.install()
            try:
                outcome = invoke(cli, argv)
            finally:
                if with_trace:
                    tracer.uninstall()
                    tracer.end_op()
            if with_trace:
                traced += outcome.seconds
            else:
                plain += outcome.seconds
            tally.record(argv, outcome)
        ops += 1
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return ops, traced / plain - 1.0


def layer_metrics(tracer: spans.Tracer, ops: int, overhead: float) -> dict[str, float]:
    totals = spans.summarize(tracer.log)
    empty = spans.LayerTotals(0, 0, 0)
    lattices = totals.get("order.build_lattice", empty).calls
    column_orders = totals.get("vectors.reduced_column_order", empty).calls
    special = {
        "order.closure_bytes": tracer.counts["order.closure_bytes"] / max(lattices, 1),
        "order.lattices_built": lattices / ops,
        "transport.verify_theorem.deltas_checked":
            tracer.counts["transport.verify_theorem.deltas_checked"] / ops,
        "vectors.region_reuse": len(tracer.regions) / column_orders if column_orders else 1.0,
        "trace.overhead_frac": overhead,
    }
    metrics = {}
    for name in PER_LAYER:
        if name in special:
            metrics[name] = special[name]
            continue
        span, _, kind = name.rpartition(".")
        layer = totals.get(span, empty)
        value = {"calls": layer.calls, "busy_s": layer.busy_ns / 1e9, "self_s": layer.self_ns / 1e9}[kind]
        metrics[name] = value / ops
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float | None, trace: bool,
                 replay: list[list[str]] | None = None) -> int:
    def commands():
        if replay is not None:
            return iter(replay)
        return workload.commands(random.Random(f"{workload.name}-{seed}"))

    cli = load_cli()
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: {workload.why}")
    if trace:
        tally = Tally(workload, workload.reference())
        tracer = spans.Tracer()
        ops, overhead = run_traced(cli, commands(), seconds, tally, tracer)
        metrics = layer_metrics(tracer, ops, overhead)
    else:
        # half the set-up samples before the loop and half after, so that
        # they do not all fall into one phase of a machine's load
        setup = measure_setup(SETUP_REPEATS // 2)
        tally = Tally(workload, workload.reference())
        times, scaled = run_plain(cli, commands(), seconds, tally)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += measure_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
        ops = len(times)
        times_ms = sorted(t * 1000 for t in times)
        scaled_ms = sorted(t * 1000 for t in scaled)
        metrics = {
            "ops_per_s": ops / sum(scaled),
            "op_ms.p50": statistics.median(scaled_ms),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median([pace.scale(*sample) for sample in setup]),
        }
    # The seed fixes the stream, so the commands that ran are regenerated
    # here rather than held in memory while peak RSS is being measured.
    ran = list(itertools.islice(commands(), ops))

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    argv_file = OUT / f"argv-{stem}.json"
    argv_file.write_text(json.dumps(
        {"workload": workload.name, "seed": seed, "trace": int(trace), "argv": ran}) + "\n")
    print(f"replay: {len(ran)} commands in {argv_file.relative_to(ROOT)}, first: {ran[0]}")
    if trace:
        span_file = OUT / f"spans-{stem}.tsv.gz"
        tracer.log.write_tsv(span_file)
        print(f"spans: {len(tracer.log)} in {span_file.relative_to(ROOT)}")
        if tracer.missing:
            print(f"not traced, absent from the library: {', '.join(tracer.missing)}")
    else:
        print(f"op_ms samples: {len(times_ms)}; times below are scaled to a reference loop"
              f" of {pace.REFERENCE_S} s (see pace.py)")
        if quantiles.tail_reportable(len(scaled_ms), 99):
            print(f"op_ms.p99 {quantiles.percentile(scaled_ms, 99)!r} ms")
        else:
            print(f"op_ms.p99 not reported: fewer than {quantiles.MIN_BEYOND} samples beyond it")
        print(f"unscaled: op_ms.p50 {statistics.median(times_ms)!r} ms,"
              f" setup_s {statistics.median([s for s, _ in setup])!r} s")
        print(f"setup_s samples: {len(setup)}")
    failed = len(tally.failures)
    print(f"failed_ops_frac {failed / tally.attempted!r} ({failed} of {tally.attempted})")
    for argv, problem in tally.failures[:SHOWN_FAILURES]:
        print(f"FAILED {argv}: {problem}")
    units = PER_LAYER if trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own interpreter; a table of every metric at the end."""
    rows, status = [], 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rows += [(name, metric, entry["value"], entry["unit"])
                 for metric, entry in result["metrics"].items()]
    for row in rows:
        print("{:<10} {:<42} {!r} {}".format(*row))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", help="argv file written by an earlier run; runs exactly those commands")
    args = parser.parse_args(argv)
    if args.replay:
        recorded = json.loads(Path(args.replay).read_text())
        return run_workload(WORKLOADS[recorded["workload"]], recorded["seed"], None,
                            bool(args.trace), replay=recorded["argv"])
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
