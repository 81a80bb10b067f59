"""Output checks for the benchmark's CLI commands.

Nothing here imports alttamari. Expected censuses come from reference
values that the caller computes once per run with the brute-force oracle
and the closed m-Tamari formula; tree outputs are checked by counting
nodes per row and per column straight from the emitted JSON, against the
path composition and the region bounds written out below.

Every checker returns ``None`` when the output is right and a one-line
reason otherwise.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass


def composition(word: str) -> tuple[int, ...]:
    """East steps before the first north step, then after each north step."""
    runs = [0]
    for step in word:
        if step == "N":
            runs.append(0)
        else:
            runs[-1] += 1
    return tuple(runs)


def option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def delta_entries(text: str) -> tuple[int, ...]:
    return tuple(int(piece) for piece in text.split(",")) if text else ()


def row_bounds(nu: str, delta: tuple[int, ...]) -> list[tuple[int, int]]:
    """Row y of the grid region spans [sum_{k>y}(nu_k - delta_k), m - sum_{k>y} delta_k]."""
    comp = composition(nu)
    n, m = len(comp) - 1, sum(comp)
    bounds = []
    for y in range(n + 1):
        later_nu = sum(comp[y + 1 :])
        later_delta = sum(delta[y:])  # delta_k is delta[k - 1]
        bounds.append((later_nu - later_delta, m - later_delta))
    return bounds


def reduced_vector(nodes: list[tuple[int, int]], nu: str, delta: tuple[int, ...]) -> list[int]:
    """Relevant nodes per reduced column, minus one, shortest column first.

    The relevant points of a row are all but its leftmost; a reduced
    column x in 1..m has as many relevant region points as rows y with
    lo_y < x <= hi_y, and ties go right to left.
    """
    bounds = row_bounds(nu, delta)
    m = sum(composition(nu))
    length = {x: sum(1 for lo, hi in bounds if lo < x <= hi) for x in range(1, m + 1)}
    count = dict.fromkeys(length, 0)
    for x, y in nodes:
        if x != bounds[y][0]:
            count[x] += 1
    return [count[x] - 1 for x in sorted(length, key=lambda x: (length[x], -x))]


# -- census ------------------------------------------------------------------


@dataclass(frozen=True)
class CensusReference:
    """Linear interval counts that hold for every increment vector of nu."""

    totals: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]


def _trim(counts) -> tuple[int, ...]:
    counts = list(counts)
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def census_reference(
    elements: int, marked: list[tuple[int, int]], right_formula: list[int] | None = None
) -> CensusReference:
    """Census from the element count and the marked-path counts by length.

    ``marked[k - 1]`` is the (left, right) marked-path count for length k.
    Length-1 intervals are the covers, counted once on each side; longer
    ones are left or right, never both. ``right_formula``, when given, must
    agree with the right counts.
    """
    left = _trim(pair[0] for pair in marked)
    right = _trim(pair[1] for pair in marked)
    if right_formula is not None and right != _trim(right_formula):
        raise ValueError(f"marked right counts {right} disagree with the formula {right_formula}")
    if left[:1] != right[:1]:
        raise ValueError(f"left and right cover counts differ: {left[:1]} {right[:1]}")
    longer = [0] * max(len(left), len(right))
    for counts in (left, right):
        for k, count in enumerate(counts[1:], start=1):
            longer[k] += count
    return CensusReference(_trim((elements,) + left[:1] + tuple(longer[1:])), left, right)


def check_census(argv: list[str], stdout: str, reference: CensusReference) -> str | None:
    try:
        doc = json.loads(stdout)
    except ValueError as err:
        return f"census output is not JSON: {err}"
    if doc.get("nu") != option(argv, "--nu"):
        return f"census echoes nu {doc.get('nu')!r}"
    if tuple(doc.get("delta", ())) != delta_entries(option(argv, "--delta")):
        return f"census echoes delta {doc.get('delta')!r}"
    for key, expected in (
        ("census", reference.totals),
        ("left", reference.left),
        ("right", reference.right),
    ):
        got = tuple(doc.get(key, ()))
        if got != expected:
            return f"census {key} {got} != reference {expected}"
    return None


# -- sweep -----------------------------------------------------------------

VERIFY_LINE = re.compile(r"^(\(empty\)|[NE]+): (\d+) deltas, census \(([\d, ]*)\), (\w+)$")


def all_words(max_size: int) -> list[str]:
    return [
        "".join("N" if bits >> i & 1 else "E" for i in range(length))
        for length in range(max_size + 1)
        for bits in range(1 << length)
    ]


def sweep_reference(max_size: int, sample: int, census_of) -> dict[str, tuple[int, tuple[int, ...]]]:
    """Per base word: the number of deltas verify samples, and the expected census."""
    expected = {}
    for word in all_words(max_size):
        box = 1
        for part in composition(word)[1:]:
            box *= part + 1
        expected[word] = (min(box, sample), census_of(word))
    return expected


def check_sweep(stdout: str, stderr: str, reference: dict) -> str | None:
    if stderr:
        return f"verify wrote to stderr: {stderr.splitlines()[0]!r}"
    seen = set()
    for line in stdout.splitlines():
        match = VERIFY_LINE.match(line)
        if match is None:
            return f"unexpected verify line {line!r}"
        word, deltas, census, status = match.groups()
        word = "" if word == "(empty)" else word
        if status != "ok":
            return f"verify reports {status} for {word!r}"
        if word in seen or word not in reference:
            return f"unexpected or repeated base word {word!r}"
        seen.add(word)
        totals = tuple(int(piece) for piece in census.split(",") if piece.strip())
        if (int(deltas), totals) != reference[word]:
            return f"{word!r}: {deltas} deltas, census {totals}; expected {reference[word]}"
    if len(seen) != len(reference):
        return f"verify covered {len(seen)} of {len(reference)} base words"
    return None


# -- flush and transport -----------------------------------------------------


def _check_tree(tree: dict, nu: str, delta: tuple[int, ...], label: str) -> str | None:
    comp = composition(nu)
    if tree.get("nu") != nu or tuple(tree.get("delta", ())) != delta:
        return f"{label} tree is over nu={tree.get('nu')!r} delta={tree.get('delta')!r}"
    nodes = [tuple(p) for p in tree.get("nodes", ())]
    expected = sum(comp) + len(comp)  # m + n + 1
    if len(set(nodes)) != len(nodes) or len(nodes) != expected:
        return f"{label} tree has {len(set(nodes))} distinct of {len(nodes)} nodes, expected {expected}"
    bounds = row_bounds(nu, delta)
    for x, y in nodes:
        if not (0 <= y < len(bounds) and bounds[y][0] <= x <= bounds[y][1]):
            return f"{label} node ({x},{y}) outside the region"
    return None


def row_counts(tree: dict, n: int) -> list[int]:
    """Nodes per row, minus one: the row vector."""
    counts = [-1] * (n + 1)
    for _, y in tree["nodes"]:
        counts[y] += 1
    return counts


def check_flush(argv: list[str], stdout: str) -> str | None:
    try:
        tree = json.loads(stdout)
    except ValueError as err:
        return f"flush output is not JSON: {err}"
    nu, path = option(argv, "--nu"), option(argv, "--path")
    problem = _check_tree(tree, nu, delta_entries(option(argv, "--delta")), "flushed")
    if problem:
        return problem
    comp = list(composition(path))
    if row_counts(tree, len(comp) - 1) != comp:
        return f"flushed tree rows {row_counts(tree, len(comp) - 1)} != path composition {comp}"
    return None


def check_transport(argv: list[str], stdout: str) -> str | None:
    try:
        doc = json.loads(stdout)
    except ValueError as err:
        return f"transport output is not JSON: {err}"
    nu, path = option(argv, "--nu"), option(argv, "--path")
    delta = delta_entries(option(argv, "--delta"))
    delta2 = delta_entries(option(argv, "--delta2"))
    source, target = doc.get("source", {}), doc.get("target", {})
    problem = _check_tree(source, nu, delta, "source") or _check_tree(target, nu, delta2, "target")
    if problem:
        return problem
    comp = list(composition(path))
    n = len(comp) - 1
    if row_counts(source, n) != comp:
        return f"source rows {row_counts(source, n)} != path composition {comp}"
    preserved = doc.get("preserved", {})
    if option(argv, "--direction") == "h":
        kept = {"row_vector": comp}
        got = {"row_vector": row_counts(target, n)}
    else:
        vector = reduced_vector([tuple(p) for p in source["nodes"]], nu, delta)
        kept = {"reduced_column_vector": vector}
        got = {"reduced_column_vector": reduced_vector([tuple(p) for p in target["nodes"]], nu, delta2)}
    if preserved != kept:
        return f"preserved {preserved} != counted {kept}"
    if got != kept:
        return f"target counts {got} != source counts {kept}"
    return None
