"""Lattice paths, nu-paths and the increment-vector rotation calculus.

A lattice path is a word in the steps N (north) and E (east).  It is
equivalently encoded as a composition (nu_0, ..., nu_n) where nu_0 is the
number of initial east steps and nu_i the number of east steps following
the i-th north step.  A nu-path is a path with the same endpoints as a base
path nu that stays weakly above it.

An increment vector delta = (delta_1, ..., delta_n) with 0 <= delta_i <=
nu_i selects one alt nu-Tamari lattice.  The covering moves of that
lattice are the delta-rotations implemented here: the east step of a
valley is exchanged with the delta-excursion that follows it.  delta = 0
gives plain valley flips (the nu-Dyck lattice) and delta_i = nu_i gives
the nu-Tamari rotations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
        parts = [EAST * comp[0]]
        for c in comp[1:]:
            parts.append(NORTH + EAST * c)
        return cls("".join(parts))

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

    def composition_str(self) -> str:
        return ",".join(str(c) for c in self.composition)

    def __str__(self) -> str:
        return self.word


def parse_path(text: str) -> LatticePath:
    """Parse a path literal, either a step word ("ENEENN") or a composition ("1,2,0,0")."""
    text = text.strip()
    if "," in text or text.isdigit():
        entries = []
        for pos, piece in enumerate(text.split(",")):
            piece = piece.strip()
            if not piece.isdigit():
                raise PathSyntaxError(f"invalid composition entry {piece!r} at index {pos}")
            entries.append(int(piece))
        return LatticePath.from_composition(tuple(entries))
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


def is_weakly_above(path: LatticePath, base: LatticePath) -> bool:
    if path.m != base.m or path.n != base.n:
        return False
    return all(p <= b for p, b in zip(path.east_prefixes, base.east_prefixes))


@dataclass(frozen=True)
class NuPath:
    """A path together with the base path it lies weakly above."""

    path: LatticePath
    base: LatticePath

    def __post_init__(self) -> None:
        if self.path.m != self.base.m or self.path.n != self.base.n:
            raise ContractError(
                f"endpoints differ: {self.path.word!r} ends at "
                f"({self.path.m},{self.path.n}), base at ({self.base.m},{self.base.n})"
            )
        if not is_weakly_above(self.path, self.base):
            raise ContractError(f"{self.path.word!r} is not weakly above {self.base.word!r}")

    @property
    def composition(self) -> tuple[int, ...]:
        return self.path.composition

    def __str__(self) -> str:
        return self.path.word


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
    entries = []
    for pos, piece in enumerate(text.split(",")):
        piece = piece.strip()
        if not piece.isdigit():
            raise PathSyntaxError(f"invalid increment entry {piece!r} at index {pos}")
        entries.append(int(piece))
    return IncrementVector(tuple(entries), nu)


def increment_box(nu: LatticePath) -> Iterator[IncrementVector]:
    """All increment vectors for nu, i.e. the box prod_i {0..nu_i}."""
    ranges = [range(c + 1) for c in nu.composition[1:]]
    for entries in itertools.product(*ranges):
        yield IncrementVector(entries, nu)


@dataclass(frozen=True)
class Valley:
    """An east step immediately followed by a north step."""

    index: int  # position of the east step in the word
    point: tuple[int, int]  # lattice point between the two steps


def valleys(path: LatticePath) -> tuple[Valley, ...]:
    found = []
    x = y = 0
    word = path.word
    for i, ch in enumerate(word):
        if ch == EAST:
            x += 1
            if i + 1 < len(word) and word[i + 1] == NORTH:
                found.append(Valley(i, (x, y)))
        else:
            y += 1
    return tuple(found)


def enumerate_nu_paths(nu: LatticePath) -> list[NuPath]:
    """All paths weakly above nu, in canonical order (nu first, top path last).

    The canonical order sorts compositions lexicographically in decreasing
    order.  Since every nu-path has prefix sums bounded by those of nu, the
    base path nu itself always comes first and the top path N^n E^m last;
    the order is also a linear extension of every alt nu-Tamari lattice.
    """
    bounds = nu.east_prefixes
    n = nu.n
    m = nu.m
    results: list[tuple[int, ...]] = []

    def extend(prefix: list[int], total: int) -> None:
        j = len(prefix)
        if j == n:
            prefix.append(m - total)
            results.append(tuple(prefix))
            prefix.pop()
            return
        # largest entries first gives decreasing lexicographic order directly
        for c in range(bounds[j] - total, -1, -1):
            prefix.append(c)
            extend(prefix, total + c)
            prefix.pop()

    extend([], 0)
    return [NuPath(LatticePath.from_composition(comp), nu) for comp in results]


def delta_altitude_profile(mu: NuPath, delta: IncrementVector) -> tuple[int, ...]:
    """Running altitude along mu: +delta_i at the i-th north step, -1 at each east step."""
    _check_bound(mu, delta)
    profile = [0]
    norths = 0
    for ch in mu.path.word:
        if ch == NORTH:
            norths += 1
            profile.append(profile[-1] + delta.entries[norths - 1])
        else:
            profile.append(profile[-1] - 1)
    return tuple(profile)


def delta_excursion(mu: NuPath, delta: IncrementVector, north_ordinal: int) -> range:
    """Half-open step range of the excursion starting at the given north step.

    The excursion is the shortest subpath starting at the north_ordinal-th
    north step (1-based) whose total elevation is zero, where a north step
    N_i contributes +delta_i and an east step -1.
    """
    _check_bound(mu, delta)
    word = mu.path.word
    if not 1 <= north_ordinal <= mu.path.n:
        raise ContractError(f"no north step number {north_ordinal} in {word!r}")
    seen = 0
    start = -1
    for i, ch in enumerate(word):
        if ch == NORTH:
            seen += 1
            if seen == north_ordinal:
                start = i
                break
    elevation = 0
    ordinal = north_ordinal - 1
    for j in range(start, len(word)):
        if word[j] == NORTH:
            ordinal += 1
            elevation += delta.entries[ordinal - 1]
        else:
            elevation -= 1
        if elevation == 0:
            return range(start, j + 1)
    raise ContractError(
        f"elevation never returns to zero after north step {north_ordinal} of {word!r}"
    )


def area_below(path: LatticePath) -> int:
    """Boxes between the path and the south-east corner of its bounding rectangle."""
    m = path.m
    return sum(m - p for p in path.east_prefixes[:-1])


def delta_rotate(mu: NuPath, delta: IncrementVector, valley: Valley) -> NuPath:
    """Exchange the valley's east step with the excursion that follows it."""
    _check_bound(mu, delta)
    word = mu.path.word
    i = valley.index
    if not (0 <= i < len(word) - 1 and word[i] == EAST and word[i + 1] == NORTH):
        raise ContractError(f"step {i} of {word!r} is not a valley")
    north_ordinal = word[: i + 2].count(NORTH)
    span = delta_excursion(mu, delta, north_ordinal)
    rotated = word[:i] + word[span.start : span.stop] + EAST + word[span.stop :]
    result = NuPath(LatticePath(rotated), mu.base)
    if area_below(result.path) <= area_below(mu.path):
        raise ContractError(f"rotation at step {i} of {word!r} did not raise the path")
    return result


def ambient_base(nu: LatticePath, delta: IncrementVector) -> LatticePath:
    """The path (m - sum(delta), delta_1, ..., delta_n) lying weakly below nu.

    Rotating nu-paths by delta coincides with rotating them over this path,
    so the alt lattice embeds as the interval from nu to the top path inside
    the full rotation lattice of this base.
    """
    _check_nu(nu, delta)
    head = nu.m - sum(delta.entries)
    return LatticePath.from_composition((head,) + delta.entries)


def _check_bound(mu: NuPath, delta: IncrementVector) -> None:
    if delta.nu != mu.base:
        raise ContractError(
            f"increment vector is bound to {delta.nu.word!r}, path lies over {mu.base.word!r}"
        )


def _check_nu(nu: LatticePath, delta: IncrementVector) -> None:
    if delta.nu != nu:
        raise ContractError(f"increment vector is bound to {delta.nu.word!r}, not {nu.word!r}")
