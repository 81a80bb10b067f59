"""Lattice paths, nu-paths and the increment-vector rotation calculus.

A lattice path is a word in the steps N (north) and E (east).  It is
equivalently encoded as a composition (nu_0, ..., nu_n) where nu_0 is the
number of initial east steps and nu_i the number of east steps following
the i-th north step.  A nu-path is a path with the same endpoints as a base
path nu that stays weakly above it.  The library represents a nu-path by
its composition, a plain tuple of integers; :class:`LatticePath` parses
and prints words, and the base path nu is one.

An increment vector delta = (delta_1, ..., delta_n) with 0 <= delta_i <=
nu_i selects one alt nu-Tamari lattice.  The covering moves of that
lattice are the delta-rotations implemented here: the east step of a
valley is exchanged with the delta-excursion that follows it, where a
north step N_i adds delta_i to the elevation and an east step takes 1
off.  delta = 0 gives plain valley flips (the nu-Dyck lattice) and
delta_i = nu_i gives the nu-Tamari rotations.

On compositions a rotation moves one east step.  A valley ending row j
(mu_j > 0, j < n) starts an excursion at the north step into row j + 1;
the excursion ends on the first row k > j whose delta_k brings the
running elevation to at most mu_k, and the rotated path has mu_j - 1 and
mu_k + 1.  Since the step moves to a strictly higher row, the rotated
path lies strictly above the old one and stays weakly above nu.  A walk
that reaches row n ends there, whatever delta_n is, because for mu weakly
above nu, sum_{i>j} delta_i <= sum_{i>j} nu_i <= sum_{i>j} mu_i; so
delta_n changes no rotation, and deltas that differ only there give one
lattice.  When the excursion ends with row k's last east step, the next
excursion starts right after it; :func:`excursion_ends` walks this run of
consecutive excursions for the census, and :func:`delta_rotate` walks only
to the first end.  :func:`delta_rotate` checks the domain of both walks.

An increment vector carries its base path, so delta alone fixes the
lattice, its region and its ambient base; no function takes nu beside it.
The ballot check (:func:`ballot_violation`), which characterizes nu-paths
and row and column vectors, and the valley rule (:func:`valleys`) live
here and nowhere else.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

NORTH = "N"
EAST = "E"


class PathSyntaxError(ValueError):
    """Raised when a path or increment literal cannot be parsed."""


class ContractError(ValueError):
    """Raised when an operation is applied outside its stated domain."""


@dataclass(frozen=True)
class LatticePath:
    """An immutable north/east lattice path from (0, 0) to (m, n)."""

    word: str

    def __post_init__(self) -> None:
        for pos, ch in enumerate(self.word):
            if ch not in (NORTH, EAST):
                raise PathSyntaxError(
                    f"invalid step {ch!r} at position {pos}; expected 'N' or 'E'"
                )

    @classmethod
    def from_composition(cls, composition: tuple[int, ...] | list[int]) -> "LatticePath":
        comp = tuple(composition)
        if not comp:
            raise PathSyntaxError("a composition needs at least one entry")
        if any(c < 0 for c in comp):
            raise PathSyntaxError(f"negative entry in composition {comp}")
        if sum(comp) + len(comp) - 1 > sys.maxsize:
            raise PathSyntaxError(f"composition {comp} spells more than {sys.maxsize} steps")
        try:
            parts = [EAST * comp[0]]
            for c in comp[1:]:
                parts.append(NORTH + EAST * c)
            word = "".join(parts)
        except MemoryError as err:
            # a message that spelled out a long composition would not fit either
            shown = comp if len(comp) <= 20 else f"of {len(comp)} entries"
            raise PathSyntaxError(f"composition {shown} is too long to spell out") from err
        return cls(word)

    @cached_property
    def composition(self) -> tuple[int, ...]:
        runs = [0]
        for ch in self.word:
            if ch == NORTH:
                runs.append(0)
            else:
                runs[-1] += 1
        return tuple(runs)

    @cached_property
    def east_prefixes(self) -> tuple[int, ...]:
        """Partial sums of the composition: entry j is the x-reach at height j."""
        return tuple(itertools.accumulate(self.composition))

    @property
    def m(self) -> int:
        return self.east_prefixes[-1]

    @property
    def n(self) -> int:
        return len(self.composition) - 1

    def __str__(self) -> str:
        return self.word


def _parse_entries(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated entries, each one or more ASCII digits."""
    entries = []
    for pos, piece in enumerate(text.split(",")):
        piece = piece.strip()
        if not (piece.isascii() and piece.isdigit()):
            raise PathSyntaxError(f"invalid {what} entry {piece!r} at index {pos}")
        entries.append(int(piece))
    return tuple(entries)


def parse_path(text: str) -> LatticePath:
    """Parse a path literal, either a step word ("ENEENN") or a composition ("1,2,0,0")."""
    text = text.strip()
    if "," in text or text.isdigit():
        return LatticePath.from_composition(_parse_entries(text, "composition"))
    return LatticePath(text.upper())


def reverse_path(path: LatticePath) -> LatticePath:
    """Read the word right to left swapping N and E; an involution."""
    swapped = {NORTH: EAST, EAST: NORTH}
    return LatticePath("".join(swapped[ch] for ch in reversed(path.word)))


def all_base_paths(max_size: int) -> Iterator[LatticePath]:
    """Every step word with at most max_size letters, the empty one included."""
    for length in range(max_size + 1):
        for bits in range(1 << length):
            yield LatticePath("".join(NORTH if bits >> i & 1 else EAST for i in range(length)))


@dataclass(frozen=True)
class Violation:
    condition: int
    index: int | None
    message: str

    def __str__(self) -> str:
        return self.message


def ballot_violation(
    v: tuple[int, ...], bounds: tuple[int, ...], what: str, letter: str, require_total: bool
) -> Violation | None:
    """The first condition v breaks: (0) length of bounds, (1) no negative entry,
    (2) prefix sums within those of bounds, (3) if require_total, equal totals."""
    if len(v) != len(bounds):
        return Violation(0, None, f"{what} has {len(v)} entries, expected {len(bounds)}")
    for i, entry in enumerate(v):
        if entry < 0:
            return Violation(1, i, f"condition (1): negative entry {letter}_{i}={entry}")
    total = bound = 0
    for j, (entry, cap) in enumerate(zip(v, bounds)):
        total += entry
        bound += cap
        if total > bound:
            return Violation(2, j, f"condition (2): prefix sum {total} > {bound} at j={j}")
    if require_total and total != bound:
        return Violation(3, None, f"condition (3): total {total} != {bound}")
    return None


def is_weakly_above(composition: tuple[int, ...], base: tuple[int, ...]) -> bool:
    """Whether a composition ends where base does, never east of it on the way."""
    return ballot_violation(composition, base, "composition", "mu", require_total=True) is None


@dataclass(frozen=True)
class IncrementVector:
    """Entries (delta_1, ..., delta_n) with 0 <= delta_i <= nu_i."""

    entries: tuple[int, ...]
    nu: LatticePath

    def __post_init__(self) -> None:
        comp = self.nu.composition
        if len(self.entries) != self.nu.n:
            raise ContractError(
                f"increment vector {self.entries} has {len(self.entries)} entries, "
                f"base has {self.nu.n} north steps"
            )
        for i, d in enumerate(self.entries, start=1):
            if not 0 <= d <= comp[i]:
                raise ContractError(
                    f"increment entry delta_{i}={d} out of range 0..{comp[i]}"
                )

    @classmethod
    def zero(cls, nu: LatticePath) -> "IncrementVector":
        return cls((0,) * nu.n, nu)

    @classmethod
    def maximal(cls, nu: LatticePath) -> "IncrementVector":
        return cls(nu.composition[1:], nu)

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.entries)


def parse_increments(text: str, nu: LatticePath) -> IncrementVector:
    text = text.strip()
    if text == "":
        return IncrementVector((), nu)
    return IncrementVector(_parse_entries(text, "increment"), nu)


def box_size(nu: LatticePath) -> int:
    """The number of increment vectors for nu, prod_i (nu_i + 1)."""
    return math.prod(c + 1 for c in nu.composition[1:])


def box_vector(nu: LatticePath, index: int) -> IncrementVector:
    """The increment vector at ``index`` in 0..box_size(nu) - 1, the last entry running fastest."""
    entries = []
    for bound in reversed(nu.composition[1:]):
        index, entry = divmod(index, bound + 1)
        entries.append(entry)
    if index:
        raise ContractError(f"box index out of range 0..{box_size(nu) - 1}")
    return IncrementVector(tuple(reversed(entries)), nu)


def increment_box(nu: LatticePath) -> Iterator[IncrementVector]:
    """All increment vectors for nu, i.e. the box prod_i {0..nu_i}, in ``box_vector`` order."""
    ranges = (range(c + 1) for c in nu.composition[1:])
    return (IncrementVector(entries, nu) for entries in itertools.product(*ranges))


def valleys(composition: tuple[int, ...]) -> list[int]:
    """The rows y < n with east steps: each ends with a valley, an east step then a north step."""
    return [y for y in range(len(composition) - 1) if composition[y]]


def enumerate_nu_paths(nu: LatticePath) -> list[tuple[int, ...]]:
    """The compositions of all paths weakly above nu, in canonical order (nu first, top path last).

    The canonical order sorts compositions lexicographically in decreasing
    order.  Since every nu-path has prefix sums bounded by those of nu, the
    base path nu itself always comes first and the top path N^n E^m last;
    the order is also a linear extension of every alt nu-Tamari lattice.
    Each next path takes one east step off the highest row j < n that has
    one and gives the rows above j as many as nu allows.
    """
    comp, bounds, n, m = nu.composition, nu.east_prefixes, nu.n, nu.m
    mu = list(comp)
    results = [comp]
    j = n - 1
    while j >= 0:
        if not mu[j]:
            j -= 1
            continue
        slack = bounds[j] - m + mu[n]  # rows j + 1..n - 1 are empty
        mu[j] -= 1
        mu[j + 1 :] = comp[j + 1 :]
        mu[j + 1] += slack + 1
        results.append(tuple(mu))
        j = n - 1
    return results


def excursion_ends(composition: tuple[int, ...], delta: IncrementVector, row: int) -> tuple[int, ...]:
    """The rows on which the consecutive excursions after the valley ending ``row`` end.

    The first excursion starts with the north step leaving ``row``.
    Walking up from the next row with elevation 0, row k adds delta_k; if
    the elevation is then at most mu_k, the excursion ends on row k after
    that many east steps.  Otherwise row k's east steps take mu_k off the
    elevation and the walk goes on.  An excursion that ends with the last
    east step of row k < n is followed by the next one, which starts with
    the north step leaving row k; :func:`delta_rotate` checks the domain.
    """
    delta_rotate(composition, delta, row)
    ends: list[int] = []
    elevation = 0
    for k, d in enumerate(delta.entries[row:], start=row + 1):
        elevation += d
        if elevation > composition[k]:
            elevation -= composition[k]
            continue
        ends.append(k)
        if elevation < composition[k]:
            break
        elevation = 0
    return tuple(ends)


def delta_rotate(composition: tuple[int, ...], delta: IncrementVector, row: int) -> tuple[int, ...]:
    """Rotate at the valley ending row ``row``: one east step moves up to the excursion's end.

    The end is the first of :func:`excursion_ends`, which lists every end
    of the run; this walk restates that rule but stops at the first end
    (elevation at most mu_k) and builds no list of ends.  It checks the domain
    of both walks inline: in the 7,751 rotations of a ~13 ms (NE^2)^7 build, one
    shared walk cost 1.3-1.9 ms and a shared check helper alone 0.2-0.4 ms.
    """
    entries = delta.entries
    n = len(entries)
    if len(composition) != n + 1:
        raise ContractError(
            f"composition {composition} has {len(composition)} entries, "
            f"base has {n} north steps"
        )
    if not (0 <= row < n and composition[row] > 0):
        raise ContractError(f"the end of row {row} of {composition} is not a valley")
    elevation = 0
    for k in range(row + 1, n + 1):
        elevation += entries[k - 1]
        if elevation <= composition[k]:
            rotated = list(composition)
            rotated[row] -= 1
            rotated[k] += 1
            return tuple(rotated)
        elevation -= composition[k]
    raise ContractError(f"elevation never returns to zero after row {row} of {composition}")


def ambient_base(delta: IncrementVector) -> LatticePath:
    """The path (m - sum(delta), delta_1, ..., delta_n) lying weakly below nu.

    Rotating nu-paths by delta coincides with rotating them over this path,
    so the alt lattice embeds as the interval from nu to the top path inside
    the full rotation lattice of this base.
    """
    head = delta.nu.m - sum(delta.entries)
    return LatticePath.from_composition((head,) + delta.entries)
