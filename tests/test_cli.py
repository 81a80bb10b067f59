import json

import pytest

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


def test_json_outputs_round_trip(tmp_path, capsys):
    out_file = tmp_path / "lat.json"
    code, _, _ = run(
        capsys, "lattice", "--nu", "ENEEN", "--delta", "1,0", "--format", "json",
        "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["nu"] == "ENEEN"


def test_dot_output_stable(capsys):
    _, first, _ = run(capsys, "lattice", "--nu", "ENEEN", "--delta", "1,0", "--format", "dot")
    _, second, _ = run(capsys, "lattice", "--nu", "ENEEN", "--delta", "1,0", "--format", "dot")
    assert first == second


def test_verify_rejects_negative_max_size(capsys):
    code, out, err = run(capsys, "verify", "--max-size", "-1")
    assert code == 2
    assert out == ""
    assert "--max-size" in err


@pytest.mark.parametrize(
    "content, needle",
    [
        (None, "No such file"),
        ("{not json", "cannot read tree file"),
        (json.dumps({"nu": "ENEEN", "delta": [2, 0]}), "lacks the key 'nodes'"),
        (json.dumps([1, 2]), "holds no tree"),
        (json.dumps({"nu": 5, "delta": [2, 0], "nodes": []}), "holds no tree"),
        (json.dumps({"nu": "ENEEN", "delta": "2,0", "nodes": []}), "holds no tree"),
        (json.dumps({"nu": "ENEEN", "delta": [2, 0], "nodes": [[0, 2, 1]]}), "holds no tree"),
        (json.dumps({"nu": "ENXEN", "delta": [2, 0], "nodes": []}), "invalid step"),
        (json.dumps({"nu": "ENEEN", "delta": [2, 0], "nodes": [[0, 2]]}), "expected 6"),
    ],
    ids=[
        "missing", "bad-json", "no-nodes", "not-an-object", "nu-not-a-word",
        "delta-not-a-list", "node-not-a-pair", "bad-nu", "not-a-tree",
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
    import alttamari.order

    monkeypatch.setattr(alttamari.order, "reduced_column_vector", lambda tree: ())
    assert_breach(*run(capsys, "census", "--nu", "ENEEN", "--delta", "1,0"))


@pytest.mark.parametrize("direction, flushing", [("h", "horizontal_flushing"), ("v", "vertical_flushing")])
def test_transport_breach_exits_4(monkeypatch, capsys, direction, flushing):
    import alttamari.cli
    from alttamari.trees import bottom_tree, build_region

    monkeypatch.setattr(
        alttamari.cli, flushing, lambda tree, delta2: bottom_tree(build_region(tree.region.nu, delta2))
    )
    assert_breach(*run(
        capsys, "transport", "--nu", "ENEEN", "--delta", "1,0", "--delta2", "0,0",
        "--path", "0,0,3", "--direction", direction,
    ))
