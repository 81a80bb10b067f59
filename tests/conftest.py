from __future__ import annotations

from typing import Iterator

import pytest

from alttamari import IncrementVector, LatticePath, increment_box
from alttamari.paths import all_base_paths


def all_instances(max_size: int) -> Iterator[tuple[LatticePath, IncrementVector]]:
    for nu in all_base_paths(max_size):
        for delta in increment_box(nu):
            yield nu, delta


def transpose(rows: list[int]) -> list[int]:
    """Bitset rows of the converse relation."""
    size = len(rows)
    return [sum(1 << i for i in range(size) if rows[i] >> j & 1) for j in range(size)]


@pytest.fixture(scope="session")
def eneen() -> LatticePath:
    return LatticePath("ENEEN")
