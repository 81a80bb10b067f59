"""The benchmark's workloads: seeded CLI argument streams and their references.

Each workload is an endless stream of argv lists drawn from a
``random.Random`` seeded by the workload name and the run's seed, so a seed
fixes the stream. The program sees only the generated argv. Reference
values for the output checks are computed once per run, from the
brute-force ``alttamari.oracle`` and the closed m-Tamari formula, which
share no code with the lattice build.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import checks

NU = "NEE" * 7  # (NE^2)^7: 7,752 paths, 2,187 increment vectors, 31,008 covers
SWEEP_MAX_SIZE = 7
SWEEP_SAMPLE = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[random.Random], Iterator[list[str]]]
    reference: Callable[[], object]
    check: Callable[[list[str], str, str, object], str | None]


def random_delta(rng: random.Random, nu: str) -> str:
    return ",".join(str(rng.randint(0, part)) for part in checks.composition(nu)[1:])


def path_sampler(nu: str) -> Callable[[random.Random], str]:
    """Draws paths weakly above nu, uniformly over all of them."""
    reach = list(itertools.accumulate(checks.composition(nu)))
    n, m = len(reach) - 1, reach[-1]
    # ways[y][x]: completions from (x, y) to (m, n) that stay weakly above nu
    ways = [[0] * (m + 2) for _ in range(n + 2)]
    ways[n][m] = 1
    for y in range(n, -1, -1):
        for x in range(reach[y], -1, -1):
            if (x, y) != (m, n):
                ways[y][x] = ways[y + 1][x] + (ways[y][x + 1] if x < reach[y] else 0)

    def draw(rng: random.Random) -> str:
        steps = []
        x = y = 0
        while (x, y) != (m, n):
            if rng.randrange(ways[y][x]) < ways[y + 1][x]:
                steps.append("N")
                y += 1
            else:
                steps.append("E")
                x += 1
        return "".join(steps)

    return draw


# -- census ------------------------------------------------------------------
# One large lattice per command: enumeration, covers, closures, trees,
# reduced vectors and the census, all in bulk. Element and cover counts do
# not depend on delta, so every seed does the same work with different
# cover targets. Census by paths, lazy closures and integer covers show here.


def census_commands(rng: random.Random) -> Iterator[list[str]]:
    while True:
        yield ["census", "--nu", NU, "--delta", random_delta(rng, NU), "--format", "json"]


def census_reference_for(word: str, right_formula: list[int] | None = None) -> checks.CensusReference:
    from alttamari import oracle

    marked = []
    length = 1
    while True:
        counts = oracle.dyck_marked_counts(word, length)
        if counts == (0, 0):
            break
        marked.append(counts)
        length += 1
    return checks.census_reference(oracle.count_paths_above(word), marked, right_formula)


def census_reference() -> checks.CensusReference:
    from alttamari.transport import mtamari_right_formula

    comp = checks.composition(NU)
    parts, height = comp[1], len(comp) - 1
    return census_reference_for(
        NU, [mtamari_right_formula(parts, height, k) for k in range(1, height + 1)]
    )


# -- sweep -----------------------------------------------------------------
# Many small lattices: every base path with at most 7 steps, every delta of
# each, meet/join of every pair and the oracle cross-check. Per-lattice fixed
# costs dominate and the closures are needed, so making closures lazy or
# skipping them must show no loss here.


def sweep_commands(rng: random.Random) -> Iterator[list[str]]:
    while True:
        yield [
            "verify",
            "--max-size", str(SWEEP_MAX_SIZE),
            "--sample", str(SWEEP_SAMPLE),
            "--seed", str(rng.randrange(2**31)),
        ]


def sweep_reference() -> dict:
    return checks.sweep_reference(
        SWEEP_MAX_SIZE, SWEEP_SAMPLE, lambda word: census_reference_for(word).totals
    )


# -- transport -------------------------------------------------------------
# Single bijections on one tree, no lattice: right flushing of a random
# nu-path, then horizontal or vertical transport to another delta. Trees,
# vectors and transport run once per command, so per-command fixed costs
# (region shape data, argument parsing, JSON) dominate. Caching one grid
# region per (nu, delta) should move this workload; census by paths, lazy
# closures and integer covers should leave it unchanged.


def transport_commands(rng: random.Random) -> Iterator[list[str]]:
    random_path = path_sampler(NU)
    while True:
        kind = rng.choice(("flush", "h", "v"))
        delta, path = random_delta(rng, NU), random_path(rng)
        if kind == "flush":
            yield ["flush", "--nu", NU, "--delta", delta, "--path", path]
        else:
            yield [
                "transport", "--nu", NU, "--delta", delta,
                "--delta2", random_delta(rng, NU), "--path", path, "--direction", kind,
            ]


def check_transport_or_flush(argv, stdout, stderr, reference) -> str | None:
    if argv[0] == "flush":
        return checks.check_flush(argv, stdout)
    return checks.check_transport(argv, stdout)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census",
            "census --nu (NE^2)^7 --delta <seeded> --format json: one 7,752-element lattice per"
            " command; paths, covers, closures, trees, vectors and census in bulk",
            census_commands,
            census_reference,
            lambda argv, out, err, ref: checks.check_census(argv, out, ref),
        ),
        Workload(
            "sweep",
            "verify --max-size 7 --sample 3 --seed <seeded>: 1,616 lattices of at most 35 elements"
            " per command; per-lattice fixed costs, closures and the oracle are needed",
            sweep_commands,
            sweep_reference,
            lambda argv, out, err, ref: checks.check_sweep(out, err, ref),
        ),
        Workload(
            "transport",
            "seeded flush --path and transport --direction h|v on (NE^2)^7: one tree per command,"
            " no lattice; region data, argument parsing and JSON dominate",
            transport_commands,
            lambda: None,
            check_transport_or_flush,
        ),
    )
}
