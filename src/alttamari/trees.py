"""Grid regions and the tree model of alt nu-Tamari lattices.

For a base path nu and an increment vector delta, the region is the set of
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

The right flushing bijection sends a nu-path to the tree with mu_i + 1
nodes in row i, filling rows bottom to top and right to left while
skipping every position that sits above an already placed node that is
not the leftmost of its row.  Left flushing inverts it by reading off the
per-row node counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .paths import (
    ContractError,
    IncrementVector,
    LatticePath,
    NuPath,
    ambient_base,
    parse_path,
)

Point = tuple[int, int]


class RotationError(ContractError):
    """Raised when a point does not admit the requested tree rotation."""


class RotationLeavesRegion(RotationError):
    """The rotation is valid in the ambient staircase but exits the region."""


@dataclass(frozen=True)
class GridRegion:
    """Lattice points available to the trees of one alt nu-Tamari lattice."""

    nu: LatticePath
    delta: IncrementVector

    def __post_init__(self) -> None:
        if self.delta.nu != self.nu:
            raise ContractError(
                f"increment vector bound to {self.delta.nu.word!r}, not {self.nu.word!r}"
            )

    @cached_property
    def ambient(self) -> LatticePath:
        return ambient_base(self.nu, self.delta)

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

    def row_span(self, y: int) -> tuple[int, int]:
        return self.row_lo[y], self.row_hi[y]

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

    def column_length(self, x: int) -> int:
        return self.column_lengths[x]

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


def build_region(nu: LatticePath, delta: IncrementVector) -> GridRegion:
    return GridRegion(nu, delta)


def compatible(p: Point, q: Point, region: GridRegion) -> bool:
    """Compatibility in the ambient staircase of the region.

    p and q are incompatible when one is strictly southwest of the other
    and the rectangle spanned by them lies inside the staircase above the
    ambient base path, i.e. its bottom-right corner does not poke below it.
    """
    (px, py), (qx, qy) = p, q
    if px == qx or py == qy:
        return True
    if (px < qx) != (py < qy):
        return True
    reach = region.ambient.east_prefixes
    return max(px, qx) > reach[min(py, qy)]


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
        lo = self.region.row_lo
        return [y for y in self.by_column.get(x, ()) if lo[y] != x]

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


def tree_from_json(data: dict) -> GridTree:
    nu = parse_path(data["nu"])
    delta = IncrementVector(tuple(data["delta"]), nu)
    region = build_region(nu, delta)
    tree = GridTree(region, frozenset((x, y) for x, y in data["nodes"]))
    tree.validate()
    return tree


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


def right_flushing(mu: NuPath, region: GridRegion) -> GridTree:
    """The tree with mu_i + 1 nodes in row i.

    Rows are filled bottom to top, each row right to left, skipping the
    columns blocked by a previously placed node that is not the leftmost
    of its row (such a node forbids every position above it).
    """
    if mu.base != region.nu:
        raise ContractError(
            f"path lies over {mu.base.word!r} but the region is for {region.nu.word!r}"
        )
    blocked: set[int] = set()
    nodes: list[Point] = []
    for y, count in enumerate(mu.composition):
        lo, hi = region.row_span(y)
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


def left_flushing(tree: GridTree) -> NuPath:
    """The nu-path with as many east steps per row as the tree has extra nodes."""
    counts = [len(tree.by_row[y]) for y in range(tree.region.n + 1)]
    if any(c == 0 for c in counts):
        raise ContractError("tree has an empty row")
    composition = tuple(c - 1 for c in counts)
    return NuPath(LatticePath.from_composition(composition), tree.region.nu)


def bottom_tree(region: GridRegion) -> GridTree:
    return right_flushing(NuPath(region.nu, region.nu), region)
