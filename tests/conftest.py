from __future__ import annotations

from itertools import accumulate
from typing import Iterator

import pytest

from alttamari import IncrementVector, LatticePath, increment_box, oracle
from alttamari.counting import _rows
from alttamari.paths import all_base_paths, delta_rotate, excursion_ends, valleys


def all_instances(max_size: int) -> Iterator[tuple[LatticePath, IncrementVector]]:
    for nu in all_base_paths(max_size):
        for delta in increment_box(nu):
            yield nu, delta


def rank_offset(mu: tuple[int, ...], delta: IncrementVector, y: int) -> int:
    """id(rotated) - id(mu) by the rank identity: sum_{j=y}^{k-1} completions[j+1][p_j].

    p_j is mu's east steps through row j, and k is the row where the
    excursion after the valley ending row y ends.
    """
    completions = _rows(delta.nu).completions
    prefixes = list(accumulate(mu))
    k = excursion_ends(mu, delta, y)[0]
    return sum(completions[j + 1][prefixes[j]] for j in range(y, k))


def rotated_covers(lattice) -> tuple[tuple[int, int, int], ...]:
    """The sorted covers (i, high, k): one ``delta_rotate`` at each valley k of each path i."""
    delta = lattice.delta
    ids = {mu: i for i, mu in enumerate(lattice.elements)}
    return tuple(
        sorted(
            (i, ids[delta_rotate(mu, delta, y)], k)
            for i, mu in enumerate(lattice.elements)
            for k, y in enumerate(valleys(mu))
        )
    )


def count_nested_pairs(nu_word: str) -> int:
    """The pairs (lower, upper) of paths weakly above nu with upper weakly above lower.

    A two-path dynamic program that shares no code with ``order``.  A path
    weakly above nu leaves each height y < n by a north step at some
    x <= reach[y], x never decreasing, and ends at x = m on height n; upper
    is weakly above lower when it leaves every height at an x no larger.
    ``ways[u][v]`` counts the pairs of prefixes whose upper and lower paths
    leave height y at u <= v: the sum of the previous height's counts with
    both x's no larger, a 2D prefix sum, so the work is O(n m^2).  At
    delta = 0 the lattice is ordered by "weakly above", so this is its
    number of intervals a <= b.
    """
    reach = oracle._east_reach(nu_word)
    m = reach[-1]
    ways = [[int(u <= v <= reach[0]) for v in range(m + 1)] for u in range(m + 1)]
    for high in reach[1:]:
        sums, below = [], [0] * (m + 1)
        for u, row in enumerate(ways):
            below = [a + b for a, b in zip(below, accumulate(row))]
            sums.append([total if u <= v <= high else 0 for v, total in enumerate(below)])
        ways = sums
    return ways[m][m]


def transpose(rows: list[int]) -> list[int]:
    """Bitset rows of the converse relation."""
    size = len(rows)
    return [sum(1 << i for i in range(size) if rows[i] >> j & 1) for j in range(size)]


@pytest.fixture(scope="session")
def eneen() -> LatticePath:
    return LatticePath("ENEEN")
