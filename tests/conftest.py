from __future__ import annotations

from itertools import accumulate
from typing import Iterator

import pytest

from alttamari import IncrementVector, LatticePath, increment_box
from alttamari.counting import _rows
from alttamari.paths import all_base_paths, excursion_ends


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


def transpose(rows: list[int]) -> list[int]:
    """Bitset rows of the converse relation."""
    size = len(rows)
    return [sum(1 << i for i in range(size) if rows[i] >> j & 1) for j in range(size)]


@pytest.fixture(scope="session")
def eneen() -> LatticePath:
    return LatticePath("ENEEN")
