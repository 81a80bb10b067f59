"""Grid regions and the tree model of alt nu-Tamari lattices.

An increment vector delta of a base path nu fixes the region: the set of
lattice points of the staircase shape sitting above the ambient base path
(see :func:`alttamari.paths.ambient_base`) and cut off from below-left so
that row y spans exactly the x-interval

    [sum_{k>y} (nu_k - delta_k),  m - sum_{k>y} delta_k].

Trees are maximal sets of pairwise compatible points in the region: two
points are incompatible when one is strictly southwest of the other and
the rectangle they span stays inside the ambient staircase.  Every tree
has exactly m + n + 1 nodes and contains the region's top-left corner.

The region's shape is worked out once, on :class:`GridRegion`: the floor
and length of every column, the number of relevant points per column (a
point is relevant unless it is the leftmost of its row) and the two
column orders that index column and reduced column vectors.

A nu-path is its composition mu.  The right flushing bijection sends it
to the tree with mu_i + 1 nodes in row i, filling rows bottom to top and
right to left while skipping every position that sits above an already
placed node that is not the leftmost of its row.  Left flushing inverts
it by reading off the per-row node counts as a composition.  The census
does not go through trees: it counts linear intervals from their bottom
paths, row by row (:func:`alttamari.counting.census_for`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .paths import (
    ContractError,
    IncrementVector,
    LatticePath,
    PathSyntaxError,
    is_weakly_above,
    parse_path,
)

Point = tuple[int, int]


class RotationError(ContractError):
    """Raised when a point does not admit the requested tree rotation."""


class RotationLeavesRegion(RotationError):
    """The rotation is valid in the ambient staircase but exits the region."""


@dataclass(frozen=True)
class GridRegion:
    """Lattice points available to the trees of the alt nu-Tamari lattice of delta."""

    delta: IncrementVector

    @property
    def nu(self) -> LatticePath:
        return self.delta.nu

    @property
    def m(self) -> int:
        return self.nu.m

    @property
    def n(self) -> int:
        return self.nu.n

    @cached_property
    def row_lo(self) -> tuple[int, ...]:
        comp = self.nu.composition
        deltas = self.delta.entries
        n = self.n
        lo = [0] * (n + 1)
        for y in range(n - 1, -1, -1):
            lo[y] = lo[y + 1] + comp[y + 1] - deltas[y]
        return tuple(lo)

    @cached_property
    def row_hi(self) -> tuple[int, ...]:
        prefixes = self.nu.east_prefixes
        return tuple(lo + prefixes[y] for y, lo in enumerate(self.row_lo))

    def contains(self, x: int, y: int) -> bool:
        return 0 <= y <= self.n and self.row_lo[y] <= x <= self.row_hi[y]

    def _count_columns(self, skip: int) -> tuple[int, ...]:
        """Per column x, the rows y with row_lo[y] + skip <= x <= row_hi[y]."""
        change = [0] * (self.m + 2)
        for lo, hi in zip(self.row_lo, self.row_hi):
            change[lo + skip] += 1
            change[hi + 1] -= 1
        return tuple(itertools.accumulate(change[:-1]))

    @cached_property
    def column_lengths(self) -> tuple[int, ...]:
        """Points in each column x; a column is a run of rows ending at row n."""
        return self._count_columns(0)

    @cached_property
    def reduced_column_lengths(self) -> tuple[int, ...]:
        """Relevant points in each column x (zero for the leftmost column)."""
        return self._count_columns(1)

    @cached_property
    def column_floor(self) -> tuple[int, ...]:
        """Lowest row of each column x."""
        return tuple(self.n + 1 - length for length in self.column_lengths)

    @cached_property
    def column_order(self) -> tuple[int, ...]:
        """Columns x = 0..m sorted by (length ascending, x descending)."""
        lengths = self.column_lengths
        return tuple(sorted(range(self.m + 1), key=lambda x: (lengths[x], -x)))

    @cached_property
    def reduced_column_order(self) -> tuple[int, ...]:
        """The m reduced columns (x = 1..m), shortest first, right to left on ties."""
        lengths = self.reduced_column_lengths
        return tuple(sorted(range(1, self.m + 1), key=lambda x: (lengths[x], -x)))

    def points(self) -> list[Point]:
        return [
            (x, y)
            for y in range(self.n + 1)
            for x in range(self.row_lo[y], self.row_hi[y] + 1)
        ]

    def is_nonrelevant(self, x: int, y: int) -> bool:
        """Non-relevant points are the leftmost of each row."""
        return self.row_lo[y] == x

    @property
    def top_corner(self) -> Point:
        return (0, self.n)


def build_region(delta: IncrementVector) -> GridRegion:
    return GridRegion(delta)


def compatible(p: Point, q: Point, region: GridRegion) -> bool:
    """Compatibility in the ambient staircase of the region.

    p and q are incompatible when one is strictly southwest of the other
    and the rectangle spanned by them lies inside the staircase above the
    ambient base path: its bottom-right corner (x, y) has x <= row_hi[y].
    """
    (px, py), (qx, qy) = p, q
    if px == qx or py == qy:
        return True
    if (px < qx) != (py < qy):
        return True
    return max(px, qx) > region.row_hi[min(py, qy)]


@dataclass(frozen=True)
class GridTree:
    """A maximal compatible point set in a region; m + n + 1 nodes."""

    region: GridRegion
    nodes: frozenset[Point]

    @cached_property
    def by_row(self) -> dict[int, list[int]]:
        rows: dict[int, list[int]] = {y: [] for y in range(self.region.n + 1)}
        for x, y in self.nodes:
            rows[y].append(x)
        for xs in rows.values():
            xs.sort()
        return rows

    @cached_property
    def by_column(self) -> dict[int, list[int]]:
        cols: dict[int, list[int]] = {}
        for x, y in self.nodes:
            cols.setdefault(x, []).append(y)
        for ys in cols.values():
            ys.sort()
        return cols

    def relevant_column(self, x: int) -> list[int]:
        """Rows of the relevant nodes in column x, ascending."""
        return [y for y in self.by_column.get(x, ()) if not self.region.is_nonrelevant(x, y)]

    def sorted_nodes(self) -> list[Point]:
        return sorted(self.nodes, key=lambda p: (p[1], p[0]))

    def validate(self) -> None:
        region = self.region
        expected = region.m + region.n + 1
        if len(self.nodes) != expected:
            raise ContractError(f"tree has {len(self.nodes)} nodes, expected {expected}")
        if region.top_corner not in self.nodes:
            raise ContractError("tree misses the top-left corner of its region")
        points = sorted(self.nodes)
        for x, y in points:
            if not region.contains(x, y):
                raise ContractError(f"node ({x},{y}) outside the region")
        for i, p in enumerate(points):
            for q in points[i + 1 :]:
                if not compatible(p, q, region):
                    raise ContractError(f"incompatible nodes {p} and {q}")

    def to_json_dict(self) -> dict:
        return {
            "nu": self.region.nu.word,
            "delta": list(self.region.delta.entries),
            "nodes": [list(p) for p in self.sorted_nodes()],
        }

    def __str__(self) -> str:
        return " ".join(f"({x},{y})" for x, y in self.sorted_nodes())


def tree_from_json(data) -> GridTree:
    """The tree of a document as ``GridTree.to_json_dict`` writes it; ContractError on any fault."""
    if not isinstance(data, dict):
        raise ContractError("holds no tree: not a JSON object")
    for key in ("nu", "delta", "nodes"):
        if key not in data:
            raise ContractError(f"lacks the key {key!r}")
    if not (
        isinstance(data["nu"], str)
        and _is_int_list(data["delta"])
        and isinstance(data["nodes"], list)
        and all(_is_int_list(node) and len(node) == 2 for node in data["nodes"])
    ):
        raise ContractError(
            "holds no tree: expected a word nu, "
            "a list of integers delta and nodes as pairs of integers"
        )
    try:
        delta = IncrementVector(tuple(data["delta"]), parse_path(data["nu"]))
        tree = GridTree(build_region(delta), frozenset((x, y) for x, y in data["nodes"]))
        tree.validate()
    except (ContractError, PathSyntaxError) as err:
        raise ContractError(f"holds no tree: {err}") from err
    return tree


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def _first_after(values: list[int], v: int) -> int | None:
    return next((c for c in values if c > v), None)


def _last_before(values: list[int], v: int) -> int | None:
    return max((c for c in values if c < v), default=None)


def _rotate(tree: GridTree, q: Point, up: bool) -> GridTree:
    """Move the corner q of its rectangle to the opposite corner.

    The rectangle is spanned by q and its nearest tree neighbours in its
    column and its row: above and to the right of q for an up rotation,
    below and to the left for a down rotation.  It must hold no other
    nodes, and the new corner must stay inside the region.
    """
    name = "rotation" if up else "down rotation"
    if q not in tree.nodes:
        raise RotationError(f"{q} is not a node of the tree")
    x, y = q
    nearest = _first_after if up else _last_before
    x2 = nearest(tree.by_row[y], x)
    y2 = nearest(tree.by_column.get(x, []), y)
    if x2 is None or y2 is None:
        raise RotationError(f"{q} admits no {name}: missing corner witnesses")
    (x0, x1), (y0, y1) = sorted((x, x2)), sorted((y, y2))
    others = tree.nodes - {q, (x2, y), (x, y2)}
    if any(x0 <= px <= x1 and y0 <= py <= y1 for px, py in others):
        raise RotationError(f"{q} admits no {name}: rectangle not clear")
    target = (x2, y2)
    if not tree.region.contains(*target):
        raise RotationLeavesRegion(f"{name} at {q} lands outside the region at {target}")
    return GridTree(tree.region, tree.nodes - {q} | {target})


def tree_rotation(tree: GridTree, q: Point) -> GridTree:
    """Rotate up at q: replace q by the top-right corner of its rectangle."""
    return _rotate(tree, q, up=True)


def tree_rotation_down(tree: GridTree, q: Point) -> GridTree:
    """Inverse rotation: move q to the lower-left corner of its rectangle."""
    return _rotate(tree, q, up=False)


def right_flushing(mu: tuple[int, ...], region: GridRegion) -> GridTree:
    """The tree with mu_i + 1 nodes in row i.

    Rows are filled bottom to top, each row right to left, skipping the
    columns blocked by a previously placed node that is not the leftmost
    of its row (such a node forbids every position above it).
    """
    if not is_weakly_above(mu, region.nu.composition):
        raise ContractError(f"{mu} is not weakly above {region.nu.composition}")
    blocked: set[int] = set()
    nodes: list[Point] = []
    for y, count in enumerate(mu):
        lo, hi = region.row_lo[y], region.row_hi[y]
        placed = []
        x = hi
        while len(placed) < count + 1 and x >= lo:
            if x not in blocked:
                placed.append(x)
            x -= 1
        if len(placed) < count + 1:
            raise ContractError(f"row {y} cannot hold {count + 1} nodes")
        nodes.extend((x, y) for x in placed)
        blocked.update(placed[:-1])  # all but the leftmost placed
    return GridTree(region, frozenset(nodes))


def left_flushing(tree: GridTree) -> tuple[int, ...]:
    """The composition with as many east steps per row as the tree has extra nodes."""
    counts = [len(tree.by_row[y]) for y in range(tree.region.n + 1)]
    if any(c == 0 for c in counts):
        raise ContractError("tree has an empty row")
    return tuple(c - 1 for c in counts)


def bottom_tree(region: GridRegion) -> GridTree:
    return right_flushing(region.nu.composition, region)
