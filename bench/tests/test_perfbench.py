"""Tests for the benchmark's own code: quantiles, spans, checkers, tracer."""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
import random
import sys
from functools import cached_property
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for entry in (str(BENCH), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import checks  # noqa: E402
import pace  # noqa: E402
import quantiles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def cli_output(argv: list[str]) -> str:
    import alttamari.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert alttamari.cli.main(argv) == 0
    return out.getvalue()


# -- quantiles ---------------------------------------------------------------


def test_nearest_rank_percentiles():
    values = [float(v) for v in range(1000, 0, -1)]
    assert quantiles.percentile(values, 50) == 500.0
    assert quantiles.percentile(values, 99) == 990.0
    assert quantiles.percentile([7.0], 99) == 7.0


def test_tail_needs_ten_samples_beyond_it():
    assert quantiles.samples_beyond(1000, 99) == 10
    assert quantiles.tail_reportable(1000, 99)
    assert quantiles.samples_beyond(999, 99) == 9
    assert not quantiles.tail_reportable(999, 99)
    assert not quantiles.tail_reportable(12, 99)
    assert quantiles.tail_reportable(20, 50)
    with pytest.raises(ValueError):
        quantiles.rank(0, 50)


def test_reference_loop_scales_and_runs_from_its_source():
    assert pace.scale(3.0, 2 * pace.REFERENCE_S) == 1.5
    namespace: dict = {}
    exec(pace.REFERENCE_SOURCE, namespace)
    assert namespace["reference_loop"]() > 0
    compile(run.SETUP_SNIPPET, "setup", "exec")


# -- spans ---------------------------------------------------------------------


def test_self_time_nested_and_sibling_spans():
    log = spans.SpanLog()
    root = log.add("cli.main", 0, 100)
    first = log.add("order.build_lattice", 10, 30, root)
    second = log.add("order.census", 40, 70, root)
    inner = log.add("trees.right_flushing", 45, 55, second)
    assert spans.self_times(log) == [100 - 20 - 30, 20, 30 - 10, 10]
    totals = spans.summarize(log)
    assert totals["cli.main"] == spans.LayerTotals(1, 100, 50)
    assert totals["order.census"] == spans.LayerTotals(1, 30, 20)
    assert (first, inner) == (1, 3)


def test_busy_time_counts_nested_calls_of_one_name_once():
    log = spans.SpanLog()
    outer = log.add("paths.valleys", 0, 50)
    log.add("paths.valleys", 10, 20, outer)
    totals = spans.summarize(log)["paths.valleys"]
    assert totals == spans.LayerTotals(calls=2, busy_ns=50, self_ns=40 + 10)


def test_span_log_writes_one_line_per_span(tmp_path):
    log = spans.SpanLog()
    root = log.add("cli.main", 5, 9, op=3)
    log.add("order.census", 6, 8, root, op=3)
    target = tmp_path / "spans.tsv.gz"
    log.write_tsv(target)
    lines = gzip.decompress(target.read_bytes()).decode().splitlines()
    assert lines[0].split("\t") == ["op", "span", "parent", "name", "start_ns", "end_ns"]
    assert lines[2].split("\t") == ["3", "1", "0", "order.census", "6", "8"]


class LazyClosures:
    def __init__(self) -> None:
        self.computed = 0

    @cached_property
    def up(self) -> list[int]:
        self.computed += 1
        return [1 << 70, 3]

    @cached_property
    def down(self) -> list[int]:
        self.computed += 1
        return [5]


def test_closure_bytes_does_not_force_a_lazy_closure():
    lattice = LazyClosures()
    assert spans.closure_bytes(lattice) == 0
    assert lattice.computed == 0
    rows = lattice.up
    assert spans.closure_bytes(lattice) == sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))
    assert lattice.computed == 1


def test_tracer_wraps_caller_attributes_and_restores_them():
    import alttamari.cli
    import alttamari.order
    import alttamari.paths

    originals = (alttamari.order.delta_rotate, alttamari.cli.build_lattice,
                 alttamari.order.FiniteLattice.census)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert alttamari.order.delta_rotate is not originals[0]
        assert alttamari.paths.delta_rotate is alttamari.order.delta_rotate
        cli_output(["census", "--nu", "ENEEN", "--delta", "1,0", "--format", "json"])
    finally:
        tracer.uninstall()
        tracer.end_op()
    assert (alttamari.order.delta_rotate, alttamari.cli.build_lattice,
            alttamari.order.FiniteLattice.census) == originals
    assert tracer.missing == []
    totals = spans.summarize(tracer.log)
    assert totals["cli.main"].calls == 1
    assert totals["order.build_lattice"].calls == 1
    assert totals["order.census"].calls == 1
    assert totals["paths.delta_rotate"].calls > 0
    names = tracer.log.names
    assert tracer.log.parents[names.index("order.build_lattice")] == names.index("cli.main")
    assert tracer.counts["order.closure_bytes"] > 0


# -- output checkers -------------------------------------------------------------


@pytest.mark.parametrize("key", ["census", "left", "right"])
def test_census_checker_rejects_an_off_by_one(key):
    argv = ["census", "--nu", "ENEEN", "--delta", "2,0", "--format", "json"]
    reference = workloads.census_reference_for("ENEEN")
    stdout = cli_output(argv)
    assert checks.check_census(argv, stdout, reference) is None
    doc = json.loads(stdout)
    doc[key][-1] += 1
    assert "reference" in checks.check_census(argv, json.dumps(doc), reference)


def test_census_reference_matches_the_benchmark_lattice():
    reference = workloads.census_reference()
    assert reference.totals[:2] == (7752, 31008)
    assert reference.right == (31008, 7752, 1632, 272, 32, 2)


def test_census_reference_refuses_disagreeing_sources():
    with pytest.raises(ValueError):
        checks.census_reference(3, [(2, 2)], right_formula=[3])


def test_sweep_checker_needs_every_line_ok():
    reference = checks.sweep_reference(2, 3, lambda word: workloads.census_reference_for(word).totals)
    stdout = cli_output(["verify", "--max-size", "2", "--sample", "3"])
    assert checks.check_sweep(stdout, "", reference) is None
    assert checks.check_sweep(stdout.replace(", ok", ", MISMATCH", 1), "", reference)
    assert checks.check_sweep("\n".join(stdout.splitlines()[1:]), "", reference)
    assert checks.check_sweep(stdout, "oracle mismatch", reference)


@pytest.mark.parametrize("direction", ["h", "v"])
def test_transport_checker_counts_rows_and_columns(direction):
    argv = ["transport", "--nu", "NEENEE", "--delta", "2,0", "--delta2", "1,2",
            "--path", "NENEEE", "--direction", direction]
    stdout = cli_output(argv)
    assert checks.check_transport(argv, stdout) is None
    doc = json.loads(stdout)
    vector = next(iter(doc["preserved"].values()))
    vector[0], vector[-1] = vector[-1] + 1, vector[0] - 1
    assert checks.check_transport(argv, json.dumps(doc))
    doc = json.loads(stdout)
    doc["target"]["nodes"].pop()
    assert checks.check_transport(argv, json.dumps(doc))


def test_flush_checker_compares_rows_with_the_path():
    argv = ["flush", "--nu", "NEENEE", "--delta", "1,1", "--path", "NENEEE"]
    stdout = cli_output(argv)
    assert checks.check_flush(argv, stdout) is None
    assert checks.check_flush(argv[:-1] + ["NNEEEE"], stdout)


# -- workloads and the benchmark description ---------------------------------------


def test_streams_are_fixed_by_the_seed():
    for workload in workloads.WORKLOADS.values():
        first = list(itertools.islice(workload.commands(random.Random("s-1")), 20))
        again = list(itertools.islice(workload.commands(random.Random("s-1")), 20))
        other = list(itertools.islice(workload.commands(random.Random("s-2")), 20))
        assert first == again
        assert first != other


def test_path_sampler_stays_above_nu():
    draw = workloads.path_sampler(workloads.NU)
    rng = random.Random(0)
    bounds = list(itertools.accumulate(checks.composition(workloads.NU)))
    for _ in range(200):
        path = draw(rng)
        reach = list(itertools.accumulate(checks.composition(path)))
        assert len(reach) == len(bounds) and reach[-1] == bounds[-1]
        assert all(r <= b for r, b in zip(reach, bounds))


def test_benchmark_json_lists_what_the_benchmark_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
