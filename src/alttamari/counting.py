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

One row of this walk is :func:`_right_row`: it takes the walks and the
right entries found before row k and returns new ones after it, the
valleys ending row k started, and changes neither input.  The histogram
of one delta is its fold over rows 1..n, and :func:`right_histograms` is
that fold over a run of deltas.  The state before row k depends on
delta_1..delta_{k-1} alone, so a delta is recounted only from the first
entry where it differs from the one before: in box order, where the last
entries change fastest, most deltas recount a row or two.  Reading one
delta ahead, the fold keeps the states only up to the row where the walk
of the next delta starts: one for a single delta, few for a sorted sample
of a long nu.

By the theorem every delta of nu has the census of delta = 0, where a
right entry is the run of north steps after its valley: the entries >= k
are the factors E N^k, a valley at x ending row y and then k - 1 rows
without east steps.  :func:`delta_free_histogram` reads them off the
tables, and :func:`census_by_paths` is its census.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, pairwise
from operator import add, mul, sub
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .paths import ContractError, IncrementVector, LatticePath, excursion_ends, valleys


class LatticeLawError(AssertionError):
    """A lattice law failed, such as a missing meet or join; would falsify the lattice property."""


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


def _count_at_least(histogram: Mapping[int, int], longest: int) -> list[int]:
    """Entry k - 1 is the number of histogram entries >= k, for k = 1..longest."""
    counts = [0] * longest
    running = 0
    for k in range(longest, 0, -1):
        running += histogram.get(k, 0)
        counts[k - 1] = running
    return counts


def census_from_histograms(
    size: int, lefts: Mapping[int, int], rights: Mapping[int, int]
) -> Census:
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


def _right_row(
    rows: _Rows, k: int, d: int, walks: dict, rights: Sequence[int]
) -> tuple[dict, list[int]]:
    """Row k of the right walk with delta_k = d: the walks and rights after it.

    ``rights[r]`` counts the right entries r found so far.  A walk with x
    east steps so far and elevation e closes its excursion at reach x + e.
    So the walks are grouped by (x + e, excursions so far), each group
    holding its weights by x.  Whether a walk finishes or closes on row k
    depends on its group alone, and a walk that goes on moves to one of
    x..x + e - 1 in its group, which one prefix sum over x counts for the
    whole group.  The inputs are left as they are; the walks returned hold
    the valleys ending row k, which start walks on row k + 1.
    """
    reach, ahead = rows.reach, rows.completions[k]
    n, bound = len(reach) - 1, reach[k]
    width = reach[n] + 1
    rights = list(rights)
    going: defaultdict = defaultdict(lambda: [0] * width)
    for (close, run), weights in walks.items():
        close += d
        if close <= bound:
            total = sum(weights)
            if k == n:
                rights[run + 1] += total
                continue
            going[close, run + 1][close] += total  # mu_k == e: the next excursion starts
            if close < bound:
                rights[run + 1] += total * ahead[close + 1]  # mu_k > e: finished
        if close and k < n:  # mu_k < e: the excursion goes on
            carried, end = going[close, run], min(close, bound + 1)
            carried[:end] = map(add, carried, accumulate(weights[:end]))
    for x, weight in rows.valleys[k] if k < n else ():
        going[x, 0][x] += weight
    return going, rights


def right_histograms(
    nu: LatticePath, deltas: Iterable[IncrementVector]
) -> Iterator[tuple[IncrementVector, tuple[int, ...]]]:
    """Each increment vector of nu with its right histogram, sharing rows across them.

    Entry r of a histogram, trailing zeros trimmed, counts the right
    entries r: the fold of :func:`_right_row` over rows 1..n, started on
    row 0 with no walk.  Reading one delta ahead, the states are kept only
    up to the first entry where the next delta differs, where its walk
    starts; ``ContractError`` for a delta over another base.
    """
    rows, n = _rows(nu), nu.n
    states = [_right_row(rows, 0, 0, {}, (0,) * (n + 1))]
    for delta, following in pairwise(chain(deltas, [None])):
        if delta.nu != nu:
            raise ContractError(f"increment vector over {delta.nu.word!r}, not {nu.word!r}")
        entries, state = delta.entries, states[-1]
        ahead = following.entries if following is not None else ()
        keep = next((i for i, (a, b) in enumerate(zip(entries, ahead)) if a != b), len(ahead))
        for k in range(len(states), n + 1):
            state = _right_row(rows, k, entries[k - 1], *state)
            if k <= keep:
                states.append(state)
        del states[keep + 1 :]
        yield delta, _trim(list(state[1]))


def census_for(delta: IncrementVector) -> Census:
    """The census of the alt nu-Tamari lattice of delta, counted without listing its paths."""
    rows = _rows(delta.nu)
    ((_, rights),) = right_histograms(delta.nu, [delta])
    return census_from_histograms(rows.completions[0][0], rows.lefts, dict(enumerate(rights)))


@lru_cache(maxsize=16)
def delta_free_histogram(nu: LatticePath) -> tuple[int, ...]:
    """The right histogram every delta of nu must have, that of delta = 0, counted without delta."""
    rows, n = _rows(nu), nu.n
    at_least = [
        sum(w * rows.completions[y + k][x] for y in range(n - k + 1) for x, w in rows.valleys[y])
        for k in range(1, n + 2)
    ]
    return _trim([0] + [at_least[k - 1] - at_least[k] for k in range(1, n + 1)])


@lru_cache(maxsize=16)
def census_by_paths(nu: LatticePath) -> Census:
    """The census every delta of nu must have: that of :func:`delta_free_histogram`."""
    rows = _rows(nu)
    rights = dict(enumerate(delta_free_histogram(nu)))
    return census_from_histograms(rows.completions[0][0], rows.lefts, rights)
