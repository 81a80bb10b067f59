import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import alttamari
from alttamari.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_paths_listing(capsys):
    code, out, _ = run(capsys, "paths", "--nu", "ENEEN")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 7
    assert lines[0].split("\t") == ["0", "ENEEN", "1,2,0"]
    assert lines[-1].split("\t")[1] == "NNEEE"


def test_paths_single(capsys):
    code, out, _ = run(capsys, "paths", "--nu", "E")
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_one_path_lattices_with_more_rows_than_the_recursion_limit(capsys):
    tall = "N" * 1200
    code, out, err = run(capsys, "paths", "--nu", tall)
    assert (code, out, err) == (0, f"0\t{tall}\t{','.join('0' * 1201)}\n", "")
    code, out, err = run(capsys, "census", "--nu", tall, "--delta", ",".join("0" * 1200))
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["0\t1\t-\t-"]


def test_lattice_dot(capsys):
    code, out, _ = run(capsys, "lattice", "--nu", "ENEENN", "--delta", "1,0,0", "--format", "dot")
    assert code == 0
    assert out.count("->") == 24
    assert out.count("label=") == 16


def test_lattice_json(capsys):
    code, out, _ = run(capsys, "lattice", "--nu", "ENEEN", "--delta", "0,0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["elements"]) == 7
    assert len(doc["covers"]) == 8


def test_lattice_single_node(capsys):
    code, out, _ = run(capsys, "lattice", "--nu", "EEE", "--delta", "", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["elements"]) == 1
    assert doc["covers"] == []


def test_lattice_text_lists_covers_with_valley_ordinals(capsys):
    code, out, err = run(capsys, "lattice", "--nu", "ENEEN", "--delta", "1,0", "--format", "text")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "nu=ENEEN delta=1,0 elements=7 covers=8",
        "ENEEN -> ENENE (valley 1)",
        "ENEEN -> NEEEN (valley 0)",
        "ENENE -> ENNEE (valley 1)",
        "ENENE -> NEENE (valley 0)",
        "ENNEE -> NNEEE (valley 0)",
        "NEEEN -> NEENE (valley 0)",
        "NEENE -> NENEE (valley 0)",
        "NENEE -> NNEEE (valley 0)",
    ]


def test_lattice_rejects_bad_delta(capsys):
    code, _, err = run(capsys, "lattice", "--nu", "ENEEN", "--delta", "3,0", "--format", "json")
    assert code == 2
    assert "delta_1" in err


def test_census_text_and_json(capsys):
    code, out, _ = run(capsys, "census", "--nu", "ENEEN", "--delta", "1,0")
    assert code == 0
    assert out.splitlines()[1].split("\t") == ["0", "7", "-", "-"]
    assert out.splitlines()[2].split("\t") == ["1", "8", "8", "8"]
    code, out, _ = run(capsys, "census", "--nu", "ENEENN", "--delta", "0,0,0", "--format", "json")
    doc = json.loads(out)
    assert doc["census"] == [16, 24, 16, 3]


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "--nu", "ENEEN")
    assert code == 0
    assert "3 deltas" in out and "(7, 8, 4, 1)" in out and "ok" in out


def test_verify_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--max-size", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 31  # every word with at most 4 steps


def test_verify_needs_argument(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "usage" in err


def test_flush_path_to_tree(capsys):
    code, out, _ = run(capsys, "flush", "--nu", "ENEEN", "--delta", "2,0", "--path", "1,2,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["nodes"] == [[0, 0], [1, 0], [0, 1], [2, 1], [3, 1], [0, 2]]


def test_flush_tree_to_path(tmp_path, capsys):
    code, out, _ = run(capsys, "flush", "--nu", "ENEEN", "--delta", "2,0", "--path", "0,0,3")
    doc = json.loads(out)
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "flush", "--nu", "ENEEN", "--delta", "2,0", "--tree", str(tree_file))
    assert code == 0
    assert json.loads(out)["composition"] == [0, 0, 3]


def test_flush_rejects_path_below(capsys):
    code, _, err = run(capsys, "flush", "--nu", "ENEEN", "--delta", "2,0", "--path", "2,1,0")
    assert code == 3
    assert "weakly above" in err


def test_flush_needs_one_input(capsys):
    code, _, err = run(capsys, "flush", "--nu", "ENEEN", "--delta", "2,0")
    assert code == 2


def test_transport_horizontal(capsys):
    code, out, _ = run(
        capsys,
        "transport", "--nu", "3,1,0,2,2,0,3,0", "--delta", "1,0,2,2,0,3,0",
        "--delta2", "0,0,1,2,0,1,0", "--path", "1,0,1,1,3,2,1,2", "--direction", "h",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["preserved"]["row_vector"] == [1, 0, 1, 1, 3, 2, 1, 2]


def test_transport_vertical(capsys):
    code, out, _ = run(
        capsys,
        "transport", "--nu", "3,1,0,2,2,0,3,0", "--delta", "1,0,2,2,0,3,0",
        "--delta2", "0,0,1,2,0,1,0", "--path", "1,0,1,1,3,2,1,2", "--direction", "v",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["preserved"]["reduced_column_vector"] == [0, 1, 0, 0, 0, 0, 1, 1, 0, 3, 0]


def test_transport_identity(capsys):
    code, out, _ = run(
        capsys,
        "transport", "--nu", "ENEEN", "--delta", "1,0", "--delta2", "1,0",
        "--path", "1,2,0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["source"] == doc["target"]


def test_mtamari_check(capsys):
    code, out, _ = run(capsys, "mtamari-check", "--m", "2", "--n", "3")
    assert code == 0
    assert "MISMATCH" not in out


def test_mtamari_check_reports_a_formula_mismatch(capsys, monkeypatch):
    import alttamari.cli

    formula = alttamari.cli.mtamari_right_formula
    monkeypatch.setattr(
        alttamari.cli,
        "mtamari_right_formula",
        lambda m, n, length: formula(m, n, length) + (length == 1),
    )
    code, out, err = run(capsys, "mtamari-check", "--m", "2", "--n", "3")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (4, "", 3)
    assert lines[0].endswith(" MISMATCH") and all(line.endswith(" ok") for line in lines[1:])


@pytest.mark.parametrize(
    "m, n, message",
    [
        ("2", "0", "--n must be >= 1, got 0"),
        ("2", "-2", "--n must be >= 1, got -2"),
        ("0", "3", "--m must be >= 1, got 0"),
        ("-1", "3", "--m must be >= 1, got -1"),
    ],
)
def test_mtamari_check_rejects_sizes_below_one(capsys, monkeypatch, m, n, message):
    import alttamari.cli

    def refuse(arg):
        raise AssertionError("nothing may be built for a usage error")

    for name in ("build_lattice", "enumerate_nu_paths"):
        monkeypatch.setattr(alttamari.cli, name, refuse)
    code, out, err = run(capsys, "mtamari-check", "--m", m, "--n", n)
    assert code == 2
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_json_outputs_round_trip(tmp_path, capsys):
    out_file = tmp_path / "lat.json"
    code, _, _ = run(
        capsys, "lattice", "--nu", "ENEEN", "--delta", "1,0", "--format", "json",
        "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["nu"] == "ENEEN"


def test_main_calls_in_one_process_share_no_options(tmp_path, capsys):
    out_file = tmp_path / "census.json"
    argv = ["census", "--nu", "ENEEN", "--delta", "1,0", "--format", "json"]
    assert run(capsys, *argv, "--out", str(out_file)) == (0, "", "")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == out_file.read_text()
    assert json.loads(out)["census"] == [7, 8, 4, 1]


def test_dot_output_stable(capsys):
    _, first, _ = run(capsys, "lattice", "--nu", "ENEEN", "--delta", "1,0", "--format", "dot")
    _, second, _ = run(capsys, "lattice", "--nu", "ENEEN", "--delta", "1,0", "--format", "dot")
    assert first == second


def test_verify_rejects_negative_max_size(capsys):
    code, out, err = run(capsys, "verify", "--max-size", "-1")
    assert code == 2
    assert out == ""
    assert "--max-size" in err


def test_verify_refuses_a_max_size_above_twelve(capsys, monkeypatch):
    # the sweep walks 2^(size + 1) - 1 words; 13 letters is already refused before any build
    from alttamari.order import FiniteLattice

    def refuse(lattice, delta):
        raise AssertionError("no lattice may be built")

    monkeypatch.setattr(FiniteLattice, "__init__", refuse)
    code, out, err = run(capsys, "verify", "--max-size", "13")
    assert code == 2
    assert out == ""
    assert err == "usage error: --max-size must be <= 12, got 13\n"


@pytest.mark.parametrize("sample", ["1", "0", "-3"])
def test_verify_rejects_samples_below_two(capsys, sample):
    code, out, err = run(capsys, "verify", "--nu", "NEENEENEE", "--sample", sample)
    assert code == 2
    assert out == ""
    assert err == f"usage error: --sample must be >= 2, got {sample}\n"


HUGE = "9" * 30  # past sys.maxsize, so refused before anything is allocated


@pytest.mark.parametrize(
    "argv",
    [
        ("paths", "--nu", HUGE),
        ("lattice", "--nu", f"1,{HUGE}", "--delta", "0"),
        ("mtamari-check", "--m", HUGE, "--n", "1"),
        ("mtamari-check", "--m", "1", "--n", HUGE),
    ],
    ids=["paths", "lattice", "mtamari_m", "mtamari_n"],
)
def test_a_path_too_long_to_spell_out_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert f"more than {sys.maxsize} steps" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("paths", "--nu", "0,100000000000"),
        ("census", "--nu", "0,100000000000", "--delta", "0"),
        ("mtamari-check", "--m", "100000000000", "--n", "1"),
    ],
    ids=["paths", "census", "mtamari"],
)
def test_a_path_too_long_for_memory_is_a_usage_error(capsys, monkeypatch, argv):
    from alttamari import paths

    class Scarce(str):
        """An east step whose runs past 1,000 letters do not fit in memory."""

        def __mul__(self, count):
            if count > 1000:
                raise MemoryError
            return str(self) * count

    monkeypatch.setattr(paths, "EAST", Scarce(paths.EAST))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "usage error: composition (0, 100000000000) is too long to spell out\n"


def test_a_long_composition_too_long_for_memory_is_named_by_its_length(capsys, monkeypatch):
    from alttamari import paths

    class Scarce(str):
        def __mul__(self, count):
            raise MemoryError

    monkeypatch.setattr(paths, "EAST", Scarce(paths.EAST))
    code, out, err = run(capsys, "paths", "--nu", ",".join("1" * 21))
    assert (code, out) == (2, "")
    assert err == "usage error: composition of 21 entries is too long to spell out\n"


def use_cores(monkeypatch, count: int) -> None:
    """Make a ``verify --max-size`` sweep see this many cores, and so start that many workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
def workers(request, monkeypatch):
    use_cores(monkeypatch, request.param)
    return request.param


def sweep(capsys, *argv):
    """``run`` for a verify sweep, which must leave no child process behind."""
    result = run(capsys, "verify", *argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return result


def logged(path, line: str) -> None:
    # a forked worker's calls are counted too: appends to a file survive the process
    with open(path, "a") as handle:
        handle.write(line + "\n")


def test_verify_sweep_builds_each_lattice_once(capsys, monkeypatch, tmp_path):
    from alttamari.order import FiniteLattice
    from alttamari.paths import all_base_paths, increment_box

    log = tmp_path / "built"
    init = FiniteLattice.__init__

    def counting(lattice, delta):
        logged(log, f"{delta.nu.word} {delta}")
        init(lattice, delta)

    monkeypatch.setattr(FiniteLattice, "__init__", counting)
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        log.write_text("")
        code, _, _ = sweep(capsys, "--max-size", "3", "--sample", "2")
        assert code == 0
        built = log.read_text().splitlines()
        assert len(built) == sum(len(list(increment_box(nu))) for nu in all_base_paths(3))
        assert len(set(built)) == len(built)


def test_verify_sweep_cross_checks_every_base_word(capsys, monkeypatch, tmp_path):
    # the empty word and E, EE, EEE get the lattice laws and the oracle too
    from alttamari import oracle
    from alttamari.paths import all_base_paths, increment_box

    log = tmp_path / "closures"
    closure_from_covers = oracle.closure_from_covers

    def counting(size, covers):
        logged(log, str(size))
        return closure_from_covers(size, covers)

    monkeypatch.setattr(oracle, "closure_from_covers", counting)
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        log.write_text("")
        code, _, _ = sweep(capsys, "--max-size", "3", "--sample", "2")
        assert code == 0
        closures = log.read_text().splitlines()
        assert len(closures) == sum(len(list(increment_box(nu))) for nu in all_base_paths(3))


@pytest.mark.parametrize(
    "argv",
    [
        ("--max-size", "5"),
        ("--max-size", "5", "--sample", "3", "--seed", "5"),
        ("--nu", "NE", "--max-size", "2"),
    ],
    ids=["full", "sampled", "requested"],
)
def test_verify_sweep_output_does_not_depend_on_the_worker_count(capsys, monkeypatch, argv):
    use_cores(monkeypatch, 1)
    serial = sweep(capsys, *argv)
    for cores in (2, 3):
        use_cores(monkeypatch, cores)
        assert sweep(capsys, *argv) == serial
    assert serial[0] == 0 and serial[2] == ""


def test_sweep_cost_is_the_box_times_the_squared_lattice_size():
    from alttamari.cli import _sweep_cost
    from alttamari.paths import all_base_paths, enumerate_nu_paths, increment_box

    for nu in all_base_paths(6):
        assert _sweep_cost(nu) == len(list(increment_box(nu))) * len(enumerate_nu_paths(nu)) ** 2


@pytest.mark.parametrize("count", [2, 3, 4])
def test_sweep_assignment_gives_each_word_one_child_and_evens_the_load(count):
    from alttamari.cli import _assign, _sweep_cost
    from alttamari.paths import all_base_paths

    for size in range(9):
        costs = [_sweep_cost(nu) for nu in all_base_paths(size)]
        owners = _assign(costs, count)
        assert len(owners) == len(costs) and set(owners) <= set(range(count))
        loads = [sum(cost for cost, owner in zip(costs, owners) if owner == w) for w in range(count)]
        assert max(loads) <= sum(costs) / count + max(costs)


def test_verify_sweep_children_send_back_only_lines_and_counts(capsys, monkeypatch, tmp_path):
    import pickle

    log = tmp_path / "frames"
    dumps = pickle.dumps

    def leaves(value):
        if isinstance(value, (tuple, list)):
            for part in value:
                yield from leaves(part)
        else:
            yield value

    def logging_dumps(frame, *args, **kwargs):
        logged(log, " ".join(type(leaf).__name__ for leaf in leaves(frame)))
        return dumps(frame, *args, **kwargs)

    use_cores(monkeypatch, 2)
    monkeypatch.setattr(pickle, "dumps", logging_dumps)
    code, out, _ = sweep(capsys, "--max-size", "4")
    frames = log.read_text().splitlines()
    assert code == 0 and len(frames) == len(out.splitlines())  # one frame per word, all from children
    assert {name for frame in frames for name in frame.split()} == {"str", "int"}


def test_verify_sweep_reports_oracle_mismatches_in_sweep_order(capsys, monkeypatch, workers):
    # only EN with delta (0,) has a 2-element lattice among the words of at most 2 steps
    from alttamari import oracle

    _, expected, _ = sweep(capsys, "--max-size", "2")
    oracle_census = oracle.oracle_census

    def wrong_once(matrix):
        census = oracle_census(matrix)
        return census + (1,) if len(matrix) == 2 else census

    monkeypatch.setattr(oracle, "oracle_census", wrong_once)
    assert sweep(capsys, "--max-size", "2") == (4, expected, "  oracle mismatch at delta=(0,)\n")


def test_verify_sweep_stops_at_a_late_lattice_law_breach(capsys, monkeypatch, workers):
    from alttamari.order import FiniteLattice, LatticeLawError

    _, expected, _ = sweep(capsys, "--max-size", "3")
    check_lattice_laws = FiniteLattice.check_lattice_laws

    def breach_at_nnn(lattice):
        if lattice.delta.nu.word == "NNN":
            raise LatticeLawError("no meet of 0 and 1")
        return check_lattice_laws(lattice)

    monkeypatch.setattr(FiniteLattice, "check_lattice_laws", breach_at_nnn)
    code, out, err = sweep(capsys, "--max-size", "3")
    assert (code, err) == (4, "invariant breach: no meet of 0 and 1\n")
    assert out == "".join(expected.splitlines(keepends=True)[:-1])  # NNN is the last word


@pytest.mark.parametrize("failing", ["pipe", "fork"])
@pytest.mark.parametrize("call", [1, 2])
def test_verify_sweep_runs_in_the_parent_what_no_child_took(capsys, monkeypatch, failing, call):
    use_cores(monkeypatch, 1)
    expected = sweep(capsys, "--max-size", "4")
    use_cores(monkeypatch, 2)
    real, calls = getattr(os, failing), []

    def refusing(*args):
        calls.append(args)
        if len(calls) == call:
            raise OSError(11, "Resource temporarily unavailable")
        return real(*args)

    monkeypatch.setattr(os, failing, refusing)
    assert sweep(capsys, "--max-size", "4") == expected
    assert len(calls) == call


def test_verify_sweep_redoes_in_the_parent_what_a_dead_child_left(capsys, monkeypatch, tmp_path):
    import alttamari.cli
    from alttamari.paths import all_base_paths

    use_cores(monkeypatch, 1)
    expected = sweep(capsys, "--max-size", "4")
    use_cores(monkeypatch, 2)
    parent, cross_check = os.getpid(), alttamari.cli._cross_check
    log = tmp_path / "checked"

    def dying_at_nen(nu):
        if os.getpid() != parent and nu.word == "NEN":
            os._exit(9)
        logged(log, f"{os.getpid()} {nu.word}")
        return cross_check(nu)

    monkeypatch.setattr(alttamari.cli, "_cross_check", dying_at_nen)
    assert sweep(capsys, "--max-size", "4") == expected
    checked = [line.split(" ") for line in log.read_text().splitlines()]
    words = [nu.word for nu in all_base_paths(4)]
    owners = alttamari.cli._assign([alttamari.cli._sweep_cost(nu) for nu in all_base_paths(4)], 2)
    at = words.index("NEN")
    left = {word for word, owner in zip(words[at:], owners[at:]) if owner == owners[at]}
    assert len(left) > 1  # the dead child had more to do than NEN
    assert {word for pid, word in checked if int(pid) == parent} == left
    assert sorted(word for _, word in checked) == sorted(words)


@pytest.mark.parametrize("cores, forks", [(1, 0), (2, 2), (64, 3), (None, 2)])
def test_verify_sweep_starts_at_most_one_child_per_core_and_base_word(
    capsys, monkeypatch, cores, forks
):
    # --max-size 1 sweeps 3 words: the empty one, E and N
    if cores is None:  # no affinity mask to read: the machine's 2 cores count
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    else:
        use_cores(monkeypatch, cores)
    real, calls = os.fork, []

    def counting():
        calls.append(None)
        return real()

    monkeypatch.setattr(os, "fork", counting)
    code, out, _ = sweep(capsys, "--max-size", "1")
    assert (code, len(out.splitlines()), len(calls)) == (0, 3, forks)


def test_verify_sweep_runs_serially_without_fork(capsys, monkeypatch):
    use_cores(monkeypatch, 1)
    expected = sweep(capsys, "--max-size", "3")
    use_cores(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert sweep(capsys, "--max-size", "3") == expected


def test_verify_checks_a_requested_path_inside_the_sweep_once(capsys):
    code, out, _ = run(capsys, "verify", "--nu", "NE", "--max-size", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7  # every word with at most 2 steps
    assert [line.split(":")[0] for line in lines].count("NE") == 1


def eneen_tree(*nodes) -> str:
    """A tree file over ENEEN and delta (2, 0) that holds these nodes."""
    return json.dumps({"nu": "ENEEN", "delta": [2, 0], "nodes": list(nodes)})


@pytest.mark.parametrize(
    "content, needle",
    [
        (None, "No such file"),
        ("{not json", "cannot read tree file"),
        ("[" * 100_000, "cannot read tree file"),  # json raises RecursionError, not ValueError
        (json.dumps({"nu": "ENEEN", "delta": [2, 0]}), "lacks the key 'nodes'"),
        (json.dumps([1, 2]), "holds no tree"),
        (json.dumps({"nu": 5, "delta": [2, 0], "nodes": []}), "holds no tree"),
        (json.dumps({"nu": "ENEEN", "delta": "2,0", "nodes": []}), "holds no tree"),
        (eneen_tree([0, 2, 1]), "holds no tree"),
        (json.dumps({"nu": "ENXEN", "delta": [2, 0], "nodes": []}), "invalid step"),
        (eneen_tree([0, 2]), "expected 6"),
        (eneen_tree([0, 1], [0, 2], [1, 0], [2, 1], [3, 1], [5, 0]), "outside the region"),
        (eneen_tree([0, 1], [0, 2], [1, 0], [1, 2], [2, 1], [3, 1]), "incompatible nodes"),
        (eneen_tree([0, 0], [0, 1], [1, 0], [1, 1], [2, 1], [3, 1]), "misses the top-left corner"),
    ],
    ids=[
        "missing", "bad-json", "too-deep", "no-nodes", "not-an-object", "nu-not-a-word",
        "delta-not-a-list", "node-not-a-pair", "bad-nu", "not-a-tree", "outside-the-region",
        "incompatible-nodes", "no-top-left-corner",
    ],
)
def test_flush_refuses_unreadable_tree_files(tmp_path, capsys, content, needle):
    tree_file = tmp_path / "tree.json"
    if content is not None:
        tree_file.write_text(content)
    code, out, err = run(capsys, "flush", "--nu", "ENEEN", "--delta", "2,0", "--tree", str(tree_file))
    assert code == 3
    assert out == ""
    assert err.startswith("validation error: ") and needle in err
    assert len(err.splitlines()) == 1


def test_flush_does_not_hide_library_faults_as_input_faults(tmp_path, capsys, monkeypatch):
    import alttamari.cli

    _, out, _ = run(capsys, "flush", "--nu", "ENEN", "--delta", "1,0", "--path", "NEEN")
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(out)

    def broken(data):
        raise TypeError("a fault in the library")

    monkeypatch.setattr(alttamari.cli, "tree_from_json", broken)
    with pytest.raises(TypeError, match="a fault in the library"):
        alttamari.cli.main(["flush", "--nu", "ENEN", "--delta", "1,0", "--tree", str(tree_file)])


@pytest.mark.parametrize("nu, delta", [("ENEEN", "2,0"), ("ENEN", "0,0")])
def test_flush_refuses_a_tree_over_other_increments(tmp_path, capsys, nu, delta):
    _, out, _ = run(capsys, "flush", "--nu", "ENEN", "--delta", "1,0", "--path", "NEEN")
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(out)
    code, out, err = run(capsys, "flush", "--nu", nu, "--delta", delta, "--tree", str(tree_file))
    assert code == 3
    assert out == ""
    assert "lies over nu=ENEN delta=1,0" in err


def assert_breach(code, out, err):
    assert code == 4
    assert out == ""
    assert err.startswith("invariant breach: ")
    assert "Traceback" not in err


def test_census_breach_exits_4(monkeypatch, capsys):
    import alttamari.counting

    # no excursion walk finishes, so the right entries fall short of the valleys
    monkeypatch.setattr(alttamari.counting, "_right_histogram", lambda rows, entries: Counter())
    code, out, err = run(capsys, "census", "--nu", "ENEEN", "--delta", "1,0")
    assert_breach(code, out, err)
    assert err == "invariant breach: length-1 counts disagree: left=8 right=0\n"


@pytest.mark.parametrize("direction, flushing", [("h", "horizontal_flushing"), ("v", "vertical_flushing")])
def test_transport_breach_exits_4(monkeypatch, capsys, direction, flushing):
    import alttamari.cli
    from alttamari.trees import bottom_tree

    monkeypatch.setattr(alttamari.cli, flushing, lambda tree, target: bottom_tree(target))
    assert_breach(*run(
        capsys, "transport", "--nu", "ENEEN", "--delta", "1,0", "--delta2", "0,0",
        "--path", "0,0,3", "--direction", direction,
    ))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["paths", "--nu", "\u00b2"], "invalid composition entry '\u00b2' at index 0"),
        (["paths", "--nu", "1,\u0663"], "invalid composition entry '\u0663' at index 1"),
        (["census", "--nu", "NEE", "--delta", "\u00b2"], "invalid increment entry '\u00b2' at index 0"),
    ],
)
def test_entries_take_ascii_digits_only(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["census", "--nu", "NE"], "the following arguments are required: --delta"),
        (["verify", "--max-size", "x"], "argument --max-size: invalid int value: 'x'"),
        (
            ["census", "--nu", "NE", "--delta", "1", "--format", "dot"],
            "argument --format: invalid choice: 'dot' (choose from 'json', 'text')",
        ),
    ],
    ids=["missing", "not_an_int", "bad_choice"],
)
def test_a_malformed_command_line_is_a_one_line_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["census", "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: alttamari census ")


def test_flush_refuses_a_tree_file_with_a_non_ascii_nu(tmp_path, capsys):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps({"nu": "\u00b2", "delta": [], "nodes": []}))
    code, out, err = run(capsys, "flush", "--nu", "NEE", "--delta", "1", "--tree", str(tree_file))
    assert (code, out) == (3, "")
    assert err.startswith("validation error: ") and "invalid composition entry" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["census", "lattice"])
def test_unwritable_out_file_is_a_validation_error(tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, command, "--nu", "NE", "--delta", "1", "--out", str(target))
    assert (code, out) == (3, "")
    assert err.startswith(f"validation error: cannot write output file {str(target)!r}: ")
    assert len(err.splitlines()) == 1
    assert not target.parent.exists()


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "alttamari.cli", *args]


def cli_env() -> dict[str, str]:
    """The environment for a CLI child process that imports this checkout's package."""
    src = str(Path(alttamari.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_capped(limit: int, *args: str) -> tuple[int, str, str]:
    """Run the CLI in a child process whose address space is capped at ``limit`` bytes.

    The cap is set in the child only, between fork and exec.
    """
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run(
        cli_argv(*args), capture_output=True, text=True, env=cli_env(), preexec_fn=cap, timeout=300
    )
    return done.returncode, done.stdout, done.stderr


MB = 1 << 20
NE2_8 = "NEE" * 8  # 43,263 paths: a census builds their down closure, ~120 MB
NE2_9 = "NEE" * 9  # 246,675 paths: their skeleton and covers alone pass 256 MB


@pytest.mark.parametrize(
    "argv, lines",
    [
        (("mtamari-check", "--m", "2", "--n", "8"), 8),
        (("verify", "--nu", NE2_8, "--sample", "2"), 1),
    ],
    ids=["mtamari", "verify"],
)
def test_census_only_commands_fit_in_256_mb(argv, lines):
    code, out, err = run_capped(256 * MB, *argv)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == lines and "MISMATCH" not in out


def test_a_base_too_long_for_memory_is_a_usage_error():
    # (1,) * 10^8 alone takes 800 MB; the message names the base, not its composition
    code, out, err = run_capped(256 * MB, "mtamari-check", "--m", "1", "--n", "100000000")
    assert (code, out, err) == (2, "", "usage error: (N E^1)^100000000 is too long to build\n")


def test_running_out_of_memory_is_a_validation_error():
    argv = ("lattice", "--nu", NE2_9, "--delta", ",".join("0" * 9), "--format", "json")
    assert run_capped(256 * MB, *argv) == (3, "", "validation error: out of memory\n")


CENSUS_ONLY = pytest.mark.parametrize(
    "argv, expected",
    [
        (("verify", "--nu", "NEENEEN"), ["NEENEEN: 9 deltas, census (12, 16, 11, 3, 1), ok"]),
        (
            ("verify", "--nu", "NEENEEN", "--sample", "3", "--seed", "4"),
            ["NEENEEN: 3 deltas, census (12, 16, 11, 3, 1), ok"],
        ),
        (
            ("mtamari-check", "--m", "2", "--n", "3"),
            [
                "m=2 n=3 length=1: formula 16, census 16 ok",
                "m=2 n=3 length=2: formula 2, census 2 ok",
                "m=2 n=3 length=3: formula 0, census 0 ok",
            ],
        ),
    ],
    ids=["verify", "verify-sampled", "mtamari"],
)


@CENSUS_ONLY
def test_census_only_commands_build_no_lattice(capsys, monkeypatch, argv, expected):
    from alttamari.order import FiniteLattice

    def refuse(lattice, delta):
        raise AssertionError("no lattice may be built")

    monkeypatch.setattr(FiniteLattice, "__init__", refuse)
    assert run(capsys, *argv) == (0, "".join(line + "\n" for line in expected), "")


@CENSUS_ONLY
def test_census_only_commands_list_no_path(capsys, monkeypatch, argv, expected):
    from alttamari import counting, order, paths, transport

    def refuse(*args):
        raise AssertionError("no path may be listed")

    for module in (paths, counting, order, transport, alttamari.cli):
        for name in ("enumerate_nu_paths", "path_census"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert run(capsys, *argv) == (0, "".join(line + "\n" for line in expected), "")


def test_mtamari_check_counts_far_past_enumeration_in_seconds(capsys):
    # (N E^2)^30 has ~1.1 * 10^22 paths
    start = time.perf_counter()
    code, out, err = run(capsys, "mtamari-check", "--m", "2", "--n", "30")
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 30 and all(line.endswith(" ok") for line in lines)


def test_verify_samples_a_box_too_large_to_list():
    # (N E^2)^30 has 3^30 ~ 2 * 10^14 increment vectors
    code, out, err = run_capped(256 * MB, "verify", "--nu", "NEE" * 30, "--sample", "20")
    assert (code, err) == (0, "")
    assert out.startswith("NEE" * 30 + ": 20 deltas, census (") and out.endswith(", ok\n")


def test_a_closed_stdout_ends_quietly_with_exit_1():
    # a reader that stops early, like ``| head -1``, gets no traceback on stderr
    argv = cli_argv("paths", "--nu", "NEENEENEENEENEENEENEE")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
    assert proc.stdout.readline().split(b"\t")[1] == b"NEENEENEENEENEENEENEE"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""
