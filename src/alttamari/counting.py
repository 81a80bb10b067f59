"""The census of one alt nu-Tamari lattice: its linear intervals counted by length.

A linear interval is counted once from its bottom path mu.  At a valley
ending row y, moving 1..mu_y east steps of row y up to the end of the
excursion that follows gives one left interval of each length: row y < n
holds one left entry, mu_y.  Moving one east step past 1..r consecutive
excursions (:func:`alttamari.paths.excursion_ends`) gives one right
interval of each length: each valley (mu_y > 0) holds one right entry, r.
The census is the histogram of these entries over all nu-paths, turned
into counts of entries >= k.  :func:`path_census` takes the histogram path
by path, over any upper set of paths: rotations only raise a path, so an
interval whose bottom lies in an upper set lies wholly in it.

:func:`census_for` lists no path.  A path is a walk up the rows of nu:
after row y it has made x <= b_y east steps, b_y being the reach of nu at
row y.  The tables of :func:`_rows` count, once per nu, the walks from the
start to each point and from each point to the end; the left histogram
and the lattice size follow from them and do not depend on delta.

A right entry is a second walk that follows the rule of
:func:`alttamari.paths.excursion_ends`, started at every valley at once.
Its state before row k is (east steps so far, elevation, excursions so
far), weighted by the number of path prefixes that reach it.  Row k adds
delta_k to the elevation e and picks mu_k east steps: with e > mu_k the
excursion goes on, with e == mu_k it closes on the last east step and the
next one starts, and with e < mu_k (or on row n) the walk is finished.
A finished walk is closed by the number of ways to complete its path.  A
walk that never finishes drops out, and the length-1 check below, which
requires as many right entries as valleys, turns it into a
:class:`LatticeLawError`.

By the theorem every delta of nu has the census of delta = 0, where a
right entry is the run of north steps after its valley: the entries >= k
are the factors E N^k, a valley at x ending row y and then k - 1 rows
without east steps.  :func:`census_by_paths` reads them off the tables.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from operator import mul, sub
from typing import NamedTuple, Sequence

from .paths import IncrementVector, LatticePath, excursion_ends, valleys


class LatticeLawError(AssertionError):
    """A meet or join failed to exist; would falsify the lattice property."""


@dataclass(frozen=True)
class Census:
    """Linear interval counts: totals from length 0, left/right from length 1."""

    totals: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("totals", "left", "right"):
            object.__setattr__(self, name, _trim(list(getattr(self, name))))

    def to_json_dict(self) -> dict:
        return {
            "census": list(self.totals),
            "left": list(self.left),
            "right": list(self.right),
        }

    def __str__(self) -> str:
        return f"totals={self.totals} left={self.left} right={self.right}"


def _trim(counts: list[int]) -> tuple[int, ...]:
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def _count_at_least(histogram: Counter, longest: int) -> list[int]:
    """Entry k - 1 is the number of histogram entries >= k, for k = 1..longest."""
    counts = [0] * longest
    running = 0
    for k in range(longest, 0, -1):
        running += histogram[k]
        counts[k - 1] = running
    return counts


def census_from_histograms(size: int, lefts: Counter, rights: Counter) -> Census:
    """Linear interval counts of a poset of ``size`` elements from its entry histograms.

    ``lefts[l]`` left entries l stand for that many left intervals of each
    length 1..l, and the same for right entries.  Length-1 intervals are
    the covers, counted once from each side, so the two counts must agree.
    """
    longest = max(chain(lefts, rights), default=0)
    left = _count_at_least(lefts, longest)
    right = _count_at_least(rights, longest)
    if left[:1] != right[:1]:
        raise LatticeLawError(f"length-1 counts disagree: left={left[0]} right={right[0]}")
    totals = [size] + left[:1] + [a + b for a, b in zip(left[1:], right[1:])]
    return Census(tuple(totals), tuple(left), tuple(right))


def path_census(paths: Sequence[tuple[int, ...]], delta: IncrementVector) -> Census:
    """The census of an upper set of delta-rotation paths, their entries taken path by path."""
    return census_from_histograms(
        len(paths),
        Counter(entry for mu in paths for entry in mu[:-1]),
        Counter(len(excursion_ends(mu, delta, y)) for mu in paths for y in valleys(mu)),
    )


class _Rows(NamedTuple):
    """The delta-free tables of nu; x ranges over 0..b_y at row y."""

    reach: tuple[int, ...]
    # valleys[y]: the pairs (x, w) with w > 0 prefixes whose row y < n ends with a valley at x
    valleys: tuple[tuple[tuple[int, int], ...], ...]
    # completions[y][x]: ways from x east steps before row y to the end
    completions: tuple[tuple[int, ...], ...]
    lefts: Counter


@lru_cache(maxsize=16)
def _rows(nu: LatticePath) -> _Rows:
    """Valley and completion counts of the paths weakly above nu, and its left histogram."""
    reach, n = nu.east_prefixes, nu.n
    # before[y][x]: prefixes with x east steps on entering row y
    before, valleys = [], []
    entering = (1,)
    for y in range(n):
        row = entering + (0,) * (reach[y] + 1 - len(entering))
        entering = tuple(accumulate(row))
        before.append(row)
        valleys.append(tuple((x, w) for x, w in enumerate(map(sub, entering, row)) if w))
    completions = [(1,) * (reach[n] + 1)]
    for y in range(n - 1, -1, -1):
        completions.insert(0, tuple(accumulate(completions[0][reach[y] :: -1]))[::-1])
    lefts: Counter = Counter()
    for y, row in enumerate(before):
        after = completions[y + 1]
        for entry in range(1, reach[y] + 1):
            lefts[entry] += sum(map(mul, row[: reach[y] + 1 - entry], after[entry:]))
    return _Rows(reach, tuple(valleys), tuple(completions), +lefts)


def _right_histogram(rows: _Rows, entries: tuple[int, ...]) -> Counter:
    """How many valleys of the paths are followed by each number of consecutive excursions.

    A walk with x east steps so far and elevation e closes its excursion
    at reach x + e.  So the walks are grouped by (x + e, excursions so
    far), each group holding its weights by x.  Whether a walk finishes or
    closes on row k depends on its group alone, and a walk that goes on
    moves to one of x..x + e - 1 in its group, which one prefix sum over x
    counts for the whole group.
    """
    reach, completions = rows.reach, rows.completions
    n = len(entries)
    width = reach[n] + 1
    rights: Counter = Counter()
    walks: defaultdict = defaultdict(lambda: [0] * width)
    for k in range(1, n + 1):
        for x, weight in rows.valleys[k - 1]:
            walks[x, 0][x] += weight
        bound, ahead = reach[k], completions[k]
        going: defaultdict = defaultdict(lambda: [0] * width)
        for (close, run), weights in walks.items():
            close += entries[k - 1]
            if close <= bound:
                total = sum(weights)
                if k == n:
                    rights[run + 1] += total
                    continue
                going[close, run + 1][close] += total  # mu_k == e: the next excursion starts
                if close < bound:
                    rights[run + 1] += total * ahead[close + 1]  # mu_k > e: finished
            if close and k < n:  # mu_k < e: the excursion goes on
                carried = going[close, run]
                for x, weight in enumerate(accumulate(weights[: min(close, bound + 1)])):
                    carried[x] += weight
        walks = going
    return rights


def census_for(delta: IncrementVector) -> Census:
    """The census of the alt nu-Tamari lattice of delta, counted without listing its paths."""
    rows = _rows(delta.nu)
    rights = _right_histogram(rows, delta.entries)
    return census_from_histograms(rows.completions[0][0], rows.lefts, rights)


@lru_cache(maxsize=16)
def census_by_paths(nu: LatticePath) -> Census:
    """The census every delta of nu must have, that of delta = 0, counted without delta."""
    rows, n = _rows(nu), nu.n
    at_least = [
        sum(w * rows.completions[y + k][x] for y in range(n - k + 1) for x, w in rows.valleys[y])
        for k in range(1, n + 2)
    ]
    rights = Counter({k: at_least[k - 1] - at_least[k] for k in range(1, n + 1)})
    return census_from_histograms(rows.completions[0][0], rows.lefts, +rights)
