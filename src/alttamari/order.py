"""Alt nu-Tamari lattices as finite posets, with linear-interval machinery.

The lattice on the nu-paths has one cover per valley of each element,
given by the delta-rotation at that valley.  Elements are the paths'
compositions, indexed in the canonical enumeration order, which is a
linear extension (the base path gets id 0, the top path the last id), so
the reachability closure is a single sweep over the elements' upper
cover lists and the order queries reduce to bit tricks on its rows.
Words are spelled out only for export.

The lattice laws are checked by meets alone, with the classic criterion:
a finite poset with a top in which every two elements have a meet is a
lattice (Davey and Priestley, *Introduction to Lattices and Order*, 2nd
ed., ch. 2), since the join of a and b is then the meet of their common
upper bounds, which the top makes a non-empty set.

Every delta of one nu orders the same elements, so the elements, their ids
and their valley rows are enumerated once per nu and shared by all of that
nu's lattices (:func:`_skeleton`); a lattice builds only its upper covers
and one closure of its order, ``down`` (:func:`down_closure`), from which
every order query is read.

Non-trivial linear intervals split into left intervals and right
intervals; :mod:`alttamari.counting` counts both on paths.  On trees a
left interval rotates a run of nodes in one row up from the bottom tree,
and a right interval a run of nodes in one column down from the top
tree; the witnesses below find those runs, and the row and reduced
column vectors count them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from types import MappingProxyType
from typing import Mapping

from .counting import Census, LatticeLawError, census_for
from .paths import (
    ContractError,
    IncrementVector,
    LatticePath,
    delta_rotate,
    enumerate_nu_paths,
    valleys,
)
from .trees import (
    GridTree,
    Point,
    build_region,
    left_flushing,
    right_flushing,
    tree_rotation,
    tree_rotation_down,
)

TRIVIAL = "trivial"
LEFT = "left"
RIGHT = "right"
NON_LINEAR = "non-linear"


@dataclass(frozen=True)
class _RunL:
    run: tuple[Point, ...]


@dataclass(frozen=True)
class HorizontalL(_RunL):
    """A row run q_0..q_l of tree nodes, left to right."""

    @property
    def row(self) -> int:
        return self.run[0][1]


@dataclass(frozen=True)
class VerticalL(_RunL):
    """A column run q'_0..q'_l of tree nodes, top down."""

    @property
    def column(self) -> int:
        return self.run[0][0]


@dataclass(frozen=True)
class IntervalRecord:
    bottom: int
    top: int
    length: int
    kind: str
    also_right: bool = False
    witness: HorizontalL | VerticalL | None = None


@lru_cache(maxsize=16)
def _skeleton(nu: LatticePath) -> tuple[tuple, Mapping, tuple]:
    """The paths weakly above nu in canonical order, their ids and each one's valley rows."""
    elements = tuple(enumerate_nu_paths(nu))
    ids = MappingProxyType({mu: i for i, mu in enumerate(elements)})
    return elements, ids, tuple(tuple(valleys(mu)) for mu in elements)


def down_closure(uppers: list[list[int]]) -> list[int]:
    """The ``down`` rows, closed in one sweep over the upper cover lists.

    Bit i of row j is set when i <= j.  Canonical order is a linear
    extension: covers go from lower to higher ids.  Sweeping bottom-up,
    every lower cover of i has already pushed its final row into i's, so
    i's row is complete when it is reached.
    """
    down = [0] * len(uppers)
    for i, highs in enumerate(uppers):
        row = down[i] | 1 << i
        down[i] = row
        for j in highs:
            down[j] |= row
    return down


class FiniteLattice:
    """One alt nu-Tamari lattice: its elements, upper covers and ``down`` closure.

    The elements, their ids and valley rows are shared with every lattice of
    the same nu.  ``upper_covers[i]`` holds the ids of the delta-rotations of
    element i in valley order, and ``down`` is closed from them; ``down[j]``
    holds the elements below j, and every order query reads it.  The sorted
    cover triples and the trees are derived on first read.
    """

    def __init__(self, delta: IncrementVector):
        self.delta = delta
        elements, ids, valley_rows = _skeleton(delta.nu)
        self.elements, self._ids = elements, ids
        self.upper_covers: list[list[int]] = [
            [ids[delta_rotate(mu, delta, y)] for y in rows]
            for mu, rows in zip(elements, valley_rows)
        ]
        self.down = down_closure(self.upper_covers)

    # -- basic queries ------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def element_id(self, mu: tuple[int, ...]) -> int:
        try:
            return self._ids[tuple(mu)]
        except KeyError:
            raise ContractError(f"{tuple(mu)} is not an element of this lattice") from None

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.elements) - 1

    def leq(self, a: int, b: int) -> bool:
        return bool(self.down[b] >> a & 1)

    def meet(self, a: int, b: int) -> int:
        down = self.down
        bounds = down[a] & down[b]
        if not bounds:
            raise LatticeLawError(f"elements {a} and {b} have no common lower bound")
        # ids are a linear extension, so the meet can only be the largest id;
        # down[z] is within bounds, so it is the meet when the two are equal
        z = bounds.bit_length() - 1
        if bounds != down[z]:
            raise LatticeLawError(f"elements {a} and {b} have no meet")
        return z

    def join(self, a: int, b: int) -> int:
        down = self.down
        pair = 1 << a | 1 << b
        bounds = [z for z in range(max(a, b), len(down)) if down[z] & pair == pair]
        if not bounds:
            raise LatticeLawError(f"elements {a} and {b} have no common upper bound")
        # ids are a linear extension, so the join can only be the least id
        z = bounds[0]
        if not all(down[w] >> z & 1 for w in bounds):
            raise LatticeLawError(f"elements {a} and {b} have no join")
        return z

    def check_lattice_laws(self) -> int:
        """Raise LatticeLawError unless this is a lattice; returns the number of pairs a < b.

        A finite poset with a top in which every two elements have a meet is
        a lattice (Davey and Priestley, ch. 2).  So the last id, the only
        one a top can have in a linear extension, must be above every
        element, and each pair a < b needs a meet (a meets itself).
        The common lower bounds ``down[a] & down[b]`` are a down-set, and
        they have a meet when one of them is above all the others.  Ids are
        a linear extension, so only the largest id z among them can be; as
        ``down[z]`` lies within the bounds, z is the meet exactly when the
        two are equal.  The top is checked on its own because meets alone do
        not give one: a vee has every meet and no top.  Empty bounds are
        checked on their own because ``(0).bit_length() - 1`` is -1, which
        indexes the last row, so the comparison would rest on that wrap.
        """
        down = self.down
        size = len(down)
        if down[-1] != (1 << size) - 1:
            raise LatticeLawError(f"element {size - 1} is not above every element: no top")
        for a in range(size):
            row = down[a]
            for b in range(a + 1, size):
                bounds = row & down[b]
                if not bounds or bounds != down[bounds.bit_length() - 1]:
                    raise LatticeLawError(f"elements {a} and {b} have no meet")
        return size * (size - 1) // 2

    # -- trees and vectors ---------------------------------------------

    @cached_property
    def trees(self) -> tuple[GridTree, ...]:
        region = build_region(self.delta)
        return tuple(right_flushing(mu, region) for mu in self.elements)

    def tree_id(self, tree: GridTree) -> int:
        return self.element_id(left_flushing(tree))

    # -- linear intervals ----------------------------------------------

    def is_linear(self, a: int, b: int) -> tuple[bool, int]:
        """Whether [a, b] is a chain, and its length (cover count).

        Ids are a linear extension, so the members taken in id order form a
        chain exactly when each lies below the next.
        """
        if not self.leq(a, b):
            raise ContractError(f"element {a} is not below element {b}")
        down = self.down
        members = [z for z in range(a, b + 1) if down[b] >> z & 1 and down[z] >> a & 1]
        linear = all(down[high] >> low & 1 for low, high in zip(members, members[1:]))
        return linear, len(members) - 1

    def census(self) -> Census:
        """The census, counted row by row by :func:`alttamari.counting.census_for`."""
        return census_for(self.delta)

    def classify(self, bottom: int, top: int) -> IntervalRecord:
        linear, length = self.is_linear(bottom, top)
        if not linear:
            return IntervalRecord(bottom, top, length, NON_LINEAR)
        if length == 0:
            return IntervalRecord(bottom, top, 0, TRIVIAL)
        lower, upper = self.trees[bottom], self.trees[top]
        left = left_witness(lower, upper, length)
        right = right_witness(lower, upper, length)
        if length == 1:
            if left is None or right is None:
                raise LatticeLawError(f"cover [{bottom},{top}] lacks a left or right witness")
            return IntervalRecord(bottom, top, 1, LEFT, also_right=True, witness=left)
        if (left is None) == (right is None):
            raise LatticeLawError(
                f"linear interval [{bottom},{top}] of length {length} has "
                f"{'both' if left else 'no'} witnesses"
            )
        if left is not None:
            return IntervalRecord(bottom, top, length, LEFT, witness=left)
        return IntervalRecord(bottom, top, length, RIGHT, witness=right)

    # -- export ---------------------------------------------------------

    @cached_property
    def covers(self) -> tuple[tuple[int, int, int], ...]:
        """The covers (low, high, valley ordinal), sorted; for export."""
        uppers = enumerate(self.upper_covers)
        return tuple(sorted((low, high, k) for low, highs in uppers for k, high in enumerate(highs)))

    def to_json_dict(self) -> dict:
        return {
            "nu": self.delta.nu.word,
            "delta": list(self.delta.entries),
            "elements": [
                {"id": i, "path": LatticePath.from_composition(mu).word}
                for i, mu in enumerate(self.elements)
            ],
            "covers": [[low, high] for low, high, _ in self.covers],
            "linear_counts": list(self.census().totals),
        }

    def to_dot(self) -> str:
        lines = ["digraph alttamari {", "  rankdir=BT;"]
        for i, mu in enumerate(self.elements):
            label = ",".join(map(str, mu))
            lines.append(f'  n{i} [label="{label}"];')
        for low, high, _ in self.covers:
            lines.append(f"  n{low} -> n{high};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_lattice(delta: IncrementVector) -> FiniteLattice:
    return FiniteLattice(delta)


def left_intervals_from(tree: GridTree, length: int) -> list[HorizontalL]:
    """One horizontal L per row (top row excluded) holding >= length + 1 nodes."""
    if length < 1:
        raise ContractError("left intervals have length >= 1")
    region = tree.region
    found = []
    for y in range(region.n):
        xs = tree.by_row[y]
        if len(xs) - 1 < length:
            continue
        found.append(HorizontalL(tuple((x, y) for x in xs[: length + 1])))
    return found


def right_intervals_to(tree: GridTree, length: int) -> list[VerticalL]:
    """One vertical L per reduced column holding >= length + 1 relevant nodes."""
    if length < 1:
        raise ContractError("right intervals have length >= 1")
    found = []
    for x in tree.region.reduced_column_order:
        relevant = tree.relevant_column(x)
        if len(relevant) - 1 < length:
            continue
        found.append(VerticalL(tuple((x, y) for y in relevant[::-1][: length + 1])))
    return found


def left_witness(bottom: GridTree, top: GridTree, length: int) -> HorizontalL | None:
    """The horizontal L of the given length that rotates bottom into top, if any."""
    for cand in left_intervals_from(bottom, length):
        if apply_horizontal(bottom, cand).nodes == top.nodes:
            return cand
    return None


def right_witness(bottom: GridTree, top: GridTree, length: int) -> VerticalL | None:
    """The vertical L of the given length that rotates top down into bottom, if any."""
    for cand in right_intervals_to(top, length):
        if apply_vertical(top, cand).nodes == bottom.nodes:
            return cand
    return None


def apply_horizontal(tree: GridTree, ell: HorizontalL) -> GridTree:
    """The top tree of the left interval: rotate the run left to right."""
    return reduce(tree_rotation, ell.run[:-1], tree)


def apply_vertical(tree: GridTree, ell: VerticalL) -> GridTree:
    """The bottom tree of the right interval: rotate the run down, top first."""
    return reduce(tree_rotation_down, ell.run[:-1], tree)


def extension_check(delta: IncrementVector, delta2: IncrementVector) -> int:
    """Assert that growing the increment vector only removes relations.

    Requires two increment vectors of the same nu with delta <= delta2
    entrywise; checks that the order for delta2 is contained in the order
    for delta and returns the number of related pairs checked.
    """
    if delta.nu != delta2.nu or any(d > d2 for d, d2 in zip(delta.entries, delta2.entries)):
        raise ContractError(
            f"increment vectors {delta.entries} of {delta.nu.word!r} and "
            f"{delta2.entries} of {delta2.nu.word!r} are not comparable"
        )
    coarse = build_lattice(delta)
    fine = build_lattice(delta2)
    checked = 0
    for fine_row, coarse_row in zip(fine.down, coarse.down):
        if fine_row & ~coarse_row:
            raise LatticeLawError(
                f"order for delta={delta2.entries} is not contained in delta={delta.entries}"
            )
        checked += fine_row.bit_count()
    return checked
