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
cached on :class:`alttamari.trees.GridRegion`; ``reduced_column_order``
here only reads the region.  The validators run
:func:`alttamari.paths.ballot_violation`.  The census reads no vector: it
counts from paths, row by row (:func:`alttamari.counting.census_for`).

The down flushing algorithms reconstruct the tree from the column or the
reduced column vector with the fill of :func:`alttamari.trees.right_flushing`,
rows and columns swapped: columns right to left, each bottom to top,
skipping positions to the left of an already placed node that is not the
topmost of its column.  The reduced variant also forces in the unblocked
non-relevant points of each column.
"""

from __future__ import annotations

from .paths import ContractError, LatticePath, Violation, ballot_violation, reverse_path
from .trees import GridRegion, GridTree, Point, left_flushing


class VectorValidationError(ValueError):
    """A candidate vector violates its characterization."""


def row_vector(tree: GridTree) -> tuple[int, ...]:
    return left_flushing(tree)


def column_vector(tree: GridTree) -> tuple[int, ...]:
    cols = tree.by_column
    return tuple(len(cols.get(x, ())) - 1 for x in tree.region.column_order)


def relevant_points(region: GridRegion) -> tuple[frozenset[Point], frozenset[Point]]:
    """Partition the region's points into (relevant, non-relevant)."""
    nonrelevant = frozenset(p for p in region.points() if region.is_nonrelevant(*p))
    return frozenset(region.points()) - nonrelevant, nonrelevant


def reduced_column_order(region: GridRegion) -> tuple[int, ...]:
    """The m reduced columns (x = 1..m), shortest first, right to left on ties."""
    return region.reduced_column_order


def reduced_column_vector(tree: GridTree) -> tuple[int, ...]:
    """Relevant nodes per reduced column, minus one, in reduced column order."""
    return tuple(len(tree.relevant_column(x)) - 1 for x in tree.region.reduced_column_order)


def validate_row_vector(r: tuple[int, ...], nu: LatticePath) -> Violation | None:
    return ballot_violation(r, nu.composition, "row vector", "r", require_total=True)


def validate_column_vector(c: tuple[int, ...], nu: LatticePath) -> Violation | None:
    return ballot_violation(c, reverse_path(nu).composition, "vector", "c", require_total=True)


def validate_reduced_column_vector(c: tuple[int, ...], nu: LatticePath) -> Violation | None:
    bounds = reverse_path(nu).composition[:-1]
    return ballot_violation(c, bounds, "vector", "c", require_total=False)


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
    entries = dict(zip(region.column_order, c))
    return _flush_columns(region, entries, force_nonrelevant=False)


def reduced_down_flushing(c: tuple[int, ...], region: GridRegion) -> GridTree:
    """The unique tree whose reduced column vector is c."""
    problem = validate_reduced_column_vector(tuple(c), region.nu)
    if problem is not None:
        raise VectorValidationError(str(problem))
    entries = dict(zip(region.reduced_column_order, c))
    return _flush_columns(region, entries, force_nonrelevant=True)


def _flush_columns(region: GridRegion, entries: dict, force_nonrelevant: bool) -> GridTree:
    blocked: set[int] = set()
    nodes: list[Point] = []
    for x in range(region.m, -1, -1):
        want, taken = entries.get(x, -1) + 1, 0  # column 0 has no reduced entry
        placed: list[int] = []
        for y in range(region.column_floor[x], region.n + 1):
            if y in blocked:
                continue
            if force_nonrelevant and region.is_nonrelevant(x, y):
                placed.append(y)
            elif taken < want:
                placed.append(y)
                taken += 1
        if taken < want:
            raise ContractError(f"column {x} cannot hold {want} more nodes")
        nodes.extend((x, y) for y in placed)
        blocked.update(placed[:-1])  # all but the topmost; columns further left skip these rows
    return GridTree(region, frozenset(nodes))
