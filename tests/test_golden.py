"""Byte-for-byte outputs of the command line, kept in ``tests/golden/``.

Each command in ``COMMANDS`` runs through ``main()`` in this process.  Its
stdout and stderr must equal ``golden/<name>.stdout`` and
``golden/<name>.stderr``, and its exit code the entry for it in
``golden/exit_codes.json``.  The files were written by

    PYTHONPATH=src python tests/test_golden.py

which reruns every command and overwrites them.  A change to a golden
file is a change of the program's output, and needs a reason.  The tree
file ``golden/flush_tree.json`` is an input, not an output: it is the
``--out`` file of the ``flush_path`` command, and ``flush_tree`` reads it
back, the second half of the round trip.  Exit code
4 is pinned by the fault-injection tests in ``test_cli.py``, since no
well-formed input breaches an invariant of working code.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from alttamari.cli import main

GOLDEN = Path(__file__).parent / "golden"
NEE7 = "NEE" * 7
TRANSPORT = (
    "transport", "--nu", "3,1,0,2,2,0,3,0", "--delta", "1,0,2,2,0,3,0",
    "--delta2", "0,0,1,2,0,1,0", "--path", "1,0,1,1,3,2,1,2",
)

COMMANDS: dict[str, tuple[str, ...]] = {
    "census_json": ("census", "--nu", NEE7, "--delta", "1,0,2,1,0,2,1", "--format", "json"),
    "census_text": ("census", "--nu", NEE7, "--delta", "1,0,2,1,0,2,1", "--format", "text"),
    "lattice_text": ("lattice", "--nu", "ENEEN", "--delta", "1,0", "--format", "text"),
    "lattice_json": ("lattice", "--nu", "ENEEN", "--delta", "1,0", "--format", "json"),
    "lattice_dot": ("lattice", "--nu", "ENEEN", "--delta", "1,0", "--format", "dot"),
    "lattice_dot_nee3": ("lattice", "--nu", "NEENEENEE", "--delta", "2,1,0", "--format", "dot"),
    "verify_sweep_sample": ("verify", "--max-size", "7", "--sample", "3", "--seed", "5"),
    "verify_sweep_8": ("verify", "--max-size", "8"),
    "verify_nu": ("verify", "--nu", "NEENEENEENEE"),
    "transport_h": TRANSPORT + ("--direction", "h"),
    "transport_v": TRANSPORT + ("--direction", "v"),
    "flush_path": ("flush", "--nu", "ENEEN", "--delta", "2,0", "--path", "NEENE"),
    "flush_tree": (
        "flush", "--nu", "ENEEN", "--delta", "2,0", "--tree", str(GOLDEN / "flush_tree.json"),
    ),
    "mtamari_check": ("mtamari-check", "--m", "2", "--n", "6"),
    "usage_error": ("lattice", "--nu", "ENEEN", "--delta", "3,0"),
    "validation_error": ("flush", "--nu", "ENEEN", "--delta", "2,0", "--path", "EENEN"),
}


def run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", COMMANDS)
def test_command_output_matches_its_golden_files(name):
    code, out, err = run(COMMANDS[name])
    assert code == json.loads(read(GOLDEN / "exit_codes.json"))[name]
    assert out == read(GOLDEN / f"{name}.stdout")
    assert err == read(GOLDEN / f"{name}.stderr")


def write_golden_files() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in COMMANDS.items():
        codes[name], out, err = run(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode("utf-8"))
        (GOLDEN / f"{name}.stderr").write_bytes(err.encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    write_golden_files()
