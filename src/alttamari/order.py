"""Alt nu-Tamari lattices as finite posets, with linear-interval machinery.

The lattice on the nu-paths has one cover per valley of each element,
given by the delta-rotation at that valley.  Elements are indexed in the
canonical enumeration order, which is a linear extension (the base path
gets id 0, the top path the last id), so reachability closures are a
single sweep and meet/join reduce to bit tricks on the closure rows.

Non-trivial linear intervals split into left intervals, generated from a
bottom tree by rotating a run of nodes in one row, and right intervals,
generated towards a top tree by down-rotating a run of nodes in one
column.  The number of left intervals of length k below a tree is the
number of row-vector entries (last row excluded) that are >= k; dually
for right intervals with the reduced column vector.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .paths import (
    ContractError,
    IncrementVector,
    LatticePath,
    NuPath,
    delta_rotate,
    enumerate_nu_paths,
    valleys,
)
from .trees import (
    GridRegion,
    GridTree,
    Point,
    build_region,
    left_flushing,
    right_flushing,
    tree_rotation,
    tree_rotation_down,
)
from .vectors import reduced_column_vector

TRIVIAL = "trivial"
LEFT = "left"
RIGHT = "right"
NON_LINEAR = "non-linear"


class LatticeLawError(AssertionError):
    """A meet or join failed to exist; would falsify the lattice property."""


@dataclass(frozen=True)
class _RunL:
    anchor: Point
    run: tuple[Point, ...]

    @property
    def length(self) -> int:
        return len(self.run) - 1


@dataclass(frozen=True)
class HorizontalL(_RunL):
    """A row run q_0..q_l of tree nodes with the parent p of q_0 on top."""

    @property
    def row(self) -> int:
        return self.run[0][1]


@dataclass(frozen=True)
class VerticalL(_RunL):
    """A column run q'_0..q'_l of tree nodes, top down, with the parent p of q'_0."""

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


class FiniteLattice:
    """One alt nu-Tamari lattice, fully materialized."""

    def __init__(self, nu: LatticePath, delta: IncrementVector):
        if delta.nu != nu:
            raise ContractError(f"increment vector bound to {delta.nu.word!r}, not {nu.word!r}")
        self.nu = nu
        self.delta = delta
        self.region: GridRegion = build_region(nu, delta)
        self.elements: tuple[NuPath, ...] = tuple(enumerate_nu_paths(nu))
        self._ids = {mu.composition: i for i, mu in enumerate(self.elements)}
        self.covers: tuple[tuple[int, int, int], ...] = self._build_covers()
        self.up, self.down = self._build_closures()

    # -- construction -------------------------------------------------

    def _build_covers(self) -> tuple[tuple[int, int, int], ...]:
        covers = []
        for low, mu in enumerate(self.elements):
            for ordinal, valley in enumerate(valleys(mu.path)):
                rotated = delta_rotate(mu, self.delta, valley)
                covers.append((low, self._ids[rotated.composition], ordinal))
        covers.sort()
        return tuple(covers)

    def _build_closures(self) -> tuple[list[int], list[int]]:
        size = len(self.elements)
        succ = [0] * size
        pred = [0] * size
        for low, high, _ in self.covers:
            succ[low] |= 1 << high
            pred[high] |= 1 << low
        up = [0] * size
        down = [0] * size
        # canonical order is a linear extension: covers go from lower to
        # higher ids, so one sweep per direction closes the relation.
        for i in range(size - 1, -1, -1):
            acc = 1 << i
            rest = succ[i]
            while rest:
                j = rest & -rest
                acc |= up[j.bit_length() - 1]
                rest ^= j
            up[i] = acc
        for i in range(size):
            acc = 1 << i
            rest = pred[i]
            while rest:
                j = rest & -rest
                acc |= down[j.bit_length() - 1]
                rest ^= j
            down[i] = acc
        return up, down

    # -- basic queries ------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def element_id(self, mu: NuPath | LatticePath | tuple[int, ...]) -> int:
        key = mu.composition if isinstance(mu, (NuPath, LatticePath)) else tuple(mu)
        try:
            return self._ids[key]
        except KeyError:
            raise ContractError(f"{key} is not an element of this lattice") from None

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.elements) - 1

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def interval_bits(self, a: int, b: int) -> int:
        return self.up[a] & self.down[b]

    def meet(self, a: int, b: int) -> int:
        bounds = self.down[a] & self.down[b]
        if not bounds:
            raise LatticeLawError(f"elements {a} and {b} have no common lower bound")
        # ids are a linear extension, so the meet can only be the largest id
        z = bounds.bit_length() - 1
        if bounds & ~self.down[z]:
            raise LatticeLawError(f"elements {a} and {b} have no meet")
        return z

    def join(self, a: int, b: int) -> int:
        bounds = self.up[a] & self.up[b]
        if not bounds:
            raise LatticeLawError(f"elements {a} and {b} have no common upper bound")
        z = (bounds & -bounds).bit_length() - 1
        if bounds & ~self.up[z]:
            raise LatticeLawError(f"elements {a} and {b} have no join")
        return z

    def check_lattice_laws(self) -> int:
        """Meet and join of every pair; returns the number of pairs checked."""
        size = len(self.elements)
        for a in range(size):
            for b in range(a, size):
                self.meet(a, b)
                self.join(a, b)
        return size * (size + 1) // 2

    # -- trees and vectors ---------------------------------------------

    @cached_property
    def trees(self) -> tuple[GridTree, ...]:
        return tuple(right_flushing(mu, self.region) for mu in self.elements)

    @cached_property
    def reduced_vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(reduced_column_vector(tree) for tree in self.trees)

    def tree_id(self, tree: GridTree) -> int:
        return self.element_id(left_flushing(tree))

    # -- linear intervals ----------------------------------------------

    def is_linear(self, a: int, b: int) -> tuple[bool, int]:
        """Whether [a, b] is a chain, and its length (cover count)."""
        if not self.leq(a, b):
            raise ContractError(f"element {a} is not below element {b}")
        bits = self.interval_bits(a, b)
        size = bits.bit_count()
        rest = bits
        while rest:
            low = rest & -rest
            z = low.bit_length() - 1
            if (self.up[z] | self.down[z]) & bits != bits:
                return False, size - 1
            rest ^= low
        return True, size - 1

    def census(self) -> Census:
        n = self.nu.n
        rows = Counter(entry for mu in self.elements for entry in mu.composition[:n])
        columns = Counter(entry for vec in self.reduced_vectors for entry in vec)
        longest = max(chain(rows, columns), default=0)
        left = _count_at_least(rows, longest)
        right = _count_at_least(columns, longest)
        covers = len(self.covers)
        if longest >= 1 and (left[0] != covers or right[0] != covers):
            raise LatticeLawError(
                f"length-1 counts disagree: covers={covers} left={left[0]} right={right[0]}"
            )
        totals = [len(self.elements), covers] + [a + b for a, b in zip(left[1:], right[1:])]
        return Census(tuple(totals), tuple(left), tuple(right))

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

    def to_json_dict(self) -> dict:
        return {
            "nu": self.nu.word,
            "delta": list(self.delta.entries),
            "elements": [
                {"id": i, "path": mu.path.word} for i, mu in enumerate(self.elements)
            ],
            "covers": [[low, high] for low, high, _ in self.covers],
            "linear_counts": list(self.census().totals),
        }

    def to_dot(self) -> str:
        lines = ["digraph alttamari {", "  rankdir=BT;"]
        for i, mu in enumerate(self.elements):
            lines.append(f'  n{i} [label="{mu.path.composition_str()}"];')
        for low, high, _ in self.covers:
            lines.append(f"  n{low} -> n{high};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_lattice(nu: LatticePath, delta: IncrementVector) -> FiniteLattice:
    return FiniteLattice(nu, delta)


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
        run = tuple((x, y) for x in xs[: length + 1])
        above = [yy for yy in tree.by_column.get(xs[0], ()) if yy > y]
        if not above:
            raise ContractError(f"leftmost node ({xs[0]},{y}) has no parent above")
        found.append(HorizontalL((xs[0], min(above)), run))
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
        run = tuple((x, y) for y in relevant[::-1][: length + 1])
        top_y = run[0][1]
        lefts = [xx for xx in tree.by_row[top_y] if xx < x]
        if not lefts:
            raise ContractError(f"column-top node ({x},{top_y}) has no parent to its left")
        found.append(VerticalL((max(lefts), top_y), run))
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
    current = tree
    for q in ell.run[:-1]:
        current = tree_rotation(current, q)
    return current


def apply_vertical(tree: GridTree, ell: VerticalL) -> GridTree:
    """The bottom tree of the right interval: rotate the run down, top first."""
    current = tree
    for q in ell.run[:-1]:
        current = tree_rotation_down(current, q)
    return current


def extension_check(nu: LatticePath, delta: IncrementVector, delta2: IncrementVector) -> int:
    """Assert that growing the increment vector only removes relations.

    Requires delta <= delta2 entrywise; checks that the order for delta2 is
    contained in the order for delta and returns the number of related
    pairs checked.
    """
    if delta.nu != nu or delta2.nu != nu:
        raise ContractError("increment vectors must be bound to nu")
    if any(d > d2 for d, d2 in zip(delta.entries, delta2.entries)):
        raise ContractError(f"increment vectors {delta.entries} and {delta2.entries} are not comparable")
    coarse = build_lattice(nu, delta)
    fine = build_lattice(nu, delta2)
    checked = 0
    for i in range(len(fine.elements)):
        if fine.up[i] & ~coarse.up[i]:
            raise LatticeLawError(
                f"order for delta={delta2.entries} is not contained in delta={delta.entries}"
            )
        checked += fine.up[i].bit_count()
    return checked
