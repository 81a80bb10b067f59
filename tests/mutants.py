"""Mutants of the library that the test suite must kill.

Usage: ``python tests/mutants.py`` runs every mutant.

Each mutant names a file of the repository, a text that occurs in it exactly
once, the text that replaces it, and the tests that must each fail once it is
replaced.  The listed tests first run once on an unchanged copy, where every
one must pass.  Then each mutant is applied to a fresh temporary copy of
``src``, and only its tests run there, so the working tree never changes.
``tests`` and ``pyproject.toml`` are copied too, because pytest puts the
``src`` beside ``pyproject.toml`` first on the import path.  The exit status
is 1 when a listed test passes under its mutant, or when an old text does not
occur exactly once.  Tier-1 does not collect this file, which is not named
``test_*.py``.

Only mutants that change behaviour belong here.  The sweep's key in
``cli._cross_check`` may drop or reorder offsets (``offsets[:-1]``,
``offsets[1:]``, ``sorted(offsets)``) without changing any result, since
``offsets[-1]`` is always 1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # a run that never ends does not pass: it counts as a kill


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


ORDER, PATHS = "src/alttamari/order.py", "src/alttamari/paths.py"
COUNTING = "src/alttamari/counting.py"
SIZE = "table[k + 1][sum(mu[: k + 1]) - 1] if k < n else 1"


def of_order(*names: str) -> tuple[str, ...]:
    """The node ids of the named tests in ``tests/test_order.py``."""
    return tuple(f"tests/test_order.py::{name}" for name in names)


BLOCKS = of_order(
    "test_a_build_makes_one_rotation_per_block_of_groups",
    "test_grouped_covers_match_one_rotation_per_valley",
    "test_benchmark_lattice_covers_match_one_rotation_per_valley",
)
CLOSURE = of_order(
    "test_closures_match_the_oracle",
    "test_benchmark_lattice_closure_matches_the_oracle",
    "test_interval_totals_at_delta_zero_match_the_two_path_count",
)
CENSUS = "tests/test_counting.py::test_census_for_matches_path_census_for_every_pair_up_to_size_8"
EXCURSIONS = ("tests/test_paths.py::test_excursion_ends_match_the_chained_oracle_excursions", CENSUS)

MUTANTS = [
    Mutant("block size + 1", ORDER, f"size = {SIZE}", f"size = ({SIZE}) + 1", BLOCKS),
    Mutant(
        "block size - 1, at least 1",
        ORDER,
        f"size = {SIZE}",
        f"size = max(1, ({SIZE}) - 1)",
        BLOCKS,
    ),
    Mutant(
        "rank offset summed one row too far",
        "tests/conftest.py",
        "for j in range(y, k))",
        "for j in range(y, k + 1))",
        of_order("test_a_rotation_moves_the_id_by_the_completions_it_passes"),
    ),
    Mutant(
        "down_closure swept top down",
        ORDER,
        "    for i, (row, slots) in enumerate(zip(down, groups)):\n",
        "    for i in reversed(range(len(groups))):\n        row, slots = down[i], groups[i]\n",
        CLOSURE,
    ),
    Mutant(
        "every block offset + 1",
        ORDER,
        "offsets += [_rank(table, rotated) - r] * size",
        "offsets += [_rank(table, rotated) - r + 1] * size",
        BLOCKS[1:] + of_order("test_covers_match_naive_rotations"),
    ),
    Mutant(
        "down_closure skips each element's last group",
        ORDER,
        "        for r in slots:\n",
        "        for r in slots[:-1]:\n",
        CLOSURE + of_order("test_lattice_laws_reject_a_cyclic_order"),
    ),
    Mutant(
        "_right_row adds a right entry on the last row",
        COUNTING,
        "rights[run + 1] += total\n",
        "rights[run + 1] += total + 1\n",
        (
            CENSUS,
            "tests/test_counting.py::test_census_for_matches_the_oracle_excursion_rewrites",
            "tests/test_golden.py::test_command_output_matches_its_golden_files[census_json]",
        ),
    ),
    Mutant(
        "excursion_ends breaks at elevation <= mu_k",
        PATHS,
        "if elevation < composition[k]:",
        "if elevation <= composition[k]:",
        EXCURSIONS,
    ),
    Mutant(
        "excursion_ends keeps the elevation after an end",
        PATHS,
        "        elevation = 0\n    if not ends:",
        "    if not ends:",
        EXCURSIONS,
    ),
    Mutant(
        "covers() runs k upward",
        ORDER,
        "for k in range(len(slots) - 1, -1, -1):",
        "for k in range(len(slots)):",
        of_order(
            "test_covers_match_naive_rotations",
            "test_grouped_covers_match_one_rotation_per_valley",
            "test_json_export_round_trip",
        )
        + (
            "tests/test_cli.py::test_lattice_text_lists_covers_with_valley_ordinals",
            "tests/test_golden.py::test_command_output_matches_its_golden_files[lattice_json]",
        ),
    ),
]


def copy_repo(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def failed_tests(root: Path, tests: list[str]) -> set[str] | None:
    """The node ids that fail or error when pytest runs ``tests`` in root; None if it never ends.

    Exit status 2 means a module under test could not be imported: every test fails.
    """
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE"]
    try:
        run = subprocess.run(
            argv + tests, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None
    if run.returncode == 2:
        return set(tests)
    if run.returncode not in (0, 1):
        sys.exit(f"pytest exited {run.returncode} in {root}:\n{run.stdout}{run.stderr}")
    lines = run.stdout.splitlines()
    return {line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))}


def failed(test: str, ids: set[str]) -> bool:
    """Whether the test, or any parametrized case of it, is among the failed node ids."""
    return any(i == test or i.startswith(test + "[") for i in ids)


def main() -> int:
    bad = [
        f"{m.name}: the old text occurs {count} times in {m.path}"
        for m in MUTANTS
        if (count := (ROOT / m.path).read_text().count(m.old)) != 1
    ] + [f"{m.name}: lists no test" for m in MUTANTS if not m.tests]
    if bad:
        sys.exit("\n".join(bad))
    tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "unchanged"
        copy_repo(root)
        if failed_tests(root, tests) != set():
            sys.exit("the listed tests do not all pass on an unchanged copy")
    survivors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch) / "mutant"
            copy_repo(root)
            target = root / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
            ids = failed_tests(root, list(mutant.tests))
        passed = [] if ids is None else [t for t in mutant.tests if not failed(t, ids)]
        survivors += bool(passed)
        verdict = "SURVIVED" if passed else "killed"
        print(f"{verdict:8} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
        for test in passed:
            print(f"         passed: {test}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
