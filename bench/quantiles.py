"""Order statistics for latency samples.

A timing is reported as its median and, where the sample is large enough,
a tail percentile. A tail percentile is only reported when at least
``MIN_BEYOND`` samples lie beyond it; with fewer it is one or two
outliers, not a tail.
"""

from __future__ import annotations

MIN_BEYOND = 10


def rank(count: int, percent: int) -> int:
    """1-based nearest rank of the given whole percentile among ``count`` samples."""
    if count < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0 < percent <= 100:
        raise ValueError(f"percentile {percent} outside 1..100")
    return max(1, -(-percent * count // 100))


def percentile(values: list[float], percent: int) -> float:
    """Nearest-rank percentile: the smallest sample with ``percent``% at or below it."""
    return sorted(values)[rank(len(values), percent) - 1]


def samples_beyond(count: int, percent: int) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank percentile."""
    return count - rank(count, percent)


def tail_reportable(count: int, percent: int) -> bool:
    return samples_beyond(count, percent) >= MIN_BEYOND
