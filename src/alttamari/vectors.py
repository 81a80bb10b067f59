"""Row, column and reduced column vectors of grid trees.

A tree is determined by any one of three count vectors:

* row vector: nodes per row, minus one; equals the composition of the
  path obtained by left flushing.
* column vector: nodes per column, minus one, with the columns read from
  shortest to longest and right to left among equal lengths.
* reduced column vector: the same count restricted to relevant nodes
  (everything except the leftmost point of each row) over the m reduced
  columns, ordered the same way.

The column lengths and both column orders are shape data of the region,
cached on :class:`alttamari.trees.GridRegion`; the functions here that
return them only read the region.

The down flushing algorithms reconstruct the tree from the column or the
reduced column vector by filling columns right to left, bottom to top,
skipping positions to the left of an already placed node that is not the
topmost of its column.  In the reduced variant, the non-relevant points of
a column that are still unblocked are forced into the tree before the
counted relevant nodes are placed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .paths import ContractError, LatticePath, reverse_path
from .trees import GridRegion, GridTree, Point


class VectorValidationError(ValueError):
    """A candidate vector violates its characterization."""


@dataclass(frozen=True)
class Violation:
    condition: int
    index: int | None
    message: str

    def __str__(self) -> str:
        return self.message


def row_vector(tree: GridTree) -> tuple[int, ...]:
    return tuple(len(tree.by_row[y]) - 1 for y in range(tree.region.n + 1))


def column_order(region: GridRegion) -> tuple[int, ...]:
    """Column x-coordinates sorted by (length ascending, x descending)."""
    return region.column_order


def column_vector(tree: GridTree) -> tuple[int, ...]:
    cols = tree.by_column
    return tuple(len(cols.get(x, ())) - 1 for x in tree.region.column_order)


def relevant_points(region: GridRegion) -> tuple[frozenset[Point], frozenset[Point]]:
    """Partition the region's points into (relevant, non-relevant)."""
    nonrelevant = frozenset((lo, y) for y, lo in enumerate(region.row_lo))
    return frozenset(region.points()) - nonrelevant, nonrelevant


def reduced_column_length(region: GridRegion, x: int) -> int:
    """Number of relevant points in column x (zero for the leftmost column)."""
    return region.reduced_column_lengths[x]


def reduced_column_order(region: GridRegion) -> tuple[int, ...]:
    """The m reduced columns (x = 1..m), shortest first, right to left on ties."""
    return region.reduced_column_order


def reduced_column_vector(tree: GridTree) -> tuple[int, ...]:
    return tuple(len(tree.relevant_column(x)) - 1 for x in tree.region.reduced_column_order)


def _ballot_check(
    v: tuple[int, ...], bounds: tuple[int, ...], what: str, letter: str, require_total: bool
) -> Violation | None:
    """Nonnegative entries whose prefix sums stay within those of bounds."""
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


def validate_row_vector(r: tuple[int, ...], nu: LatticePath) -> Violation | None:
    return _ballot_check(r, nu.composition, "row vector", "r", require_total=True)


def validate_column_vector(c: tuple[int, ...], nu: LatticePath) -> Violation | None:
    return _ballot_check(c, reverse_path(nu).composition, "vector", "c", require_total=True)


def validate_reduced_column_vector(c: tuple[int, ...], nu: LatticePath) -> Violation | None:
    bounds = reverse_path(nu).composition[:-1]
    return _ballot_check(c, bounds, "vector", "c", require_total=False)


def down_flushing(c: tuple[int, ...], region: GridRegion) -> GridTree:
    """The unique tree whose column vector is c.

    Columns are processed geometrically right to left; within a column the
    prescribed number of nodes goes to the lowest unblocked positions, and
    afterwards every placed node except the topmost blocks the positions to
    its left in its row.
    """
    problem = validate_column_vector(tuple(c), region.nu)
    if problem is not None:
        raise VectorValidationError(str(problem))
    count_at = {x: c[i] + 1 for i, x in enumerate(region.column_order)}
    return _flush_columns(region, lambda x: count_at[x], force_nonrelevant=False)


def reduced_down_flushing(c: tuple[int, ...], region: GridRegion) -> GridTree:
    """The unique tree whose reduced column vector is c."""
    problem = validate_reduced_column_vector(tuple(c), region.nu)
    if problem is not None:
        raise VectorValidationError(str(problem))
    count_at = {x: c[i] + 1 for i, x in enumerate(region.reduced_column_order)}
    return _flush_columns(region, lambda x: count_at.get(x, 0), force_nonrelevant=True)


def _flush_columns(region: GridRegion, count_at, force_nonrelevant: bool) -> GridTree:
    # blocked[y] = largest x whose node blocks row y; positions strictly left
    # of it are unavailable.
    blocked: dict[int, int] = {}
    nodes: list[Point] = []
    for x in range(region.m, -1, -1):
        floor = region.column_floor[x]
        free = [
            y
            for y in range(floor, region.n + 1)
            if blocked.get(y, -1) <= x
        ]
        placed: list[int] = []
        if force_nonrelevant:
            placed.extend(y for y in free if region.is_nonrelevant(x, y))
        want = count_at(x)
        remaining = [y for y in free if y not in placed]
        take = remaining[:want]
        if len(take) < want:
            raise ContractError(f"column {x} cannot hold {want} more nodes")
        placed.extend(take)
        placed.sort()
        nodes.extend((x, y) for y in placed)
        for y in placed[:-1]:
            if blocked.get(y, -1) < x:
                blocked[y] = x
    return GridTree(region, frozenset(nodes))
