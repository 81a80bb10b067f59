"""Bijections between the tree sets of different increment vectors.

Horizontal flushing carries a tree to the unique tree over another
increment vector with the same row vector; vertical flushing preserves
the reduced column vector instead.  Left intervals ride along horizontal
flushing row by row, right intervals along vertical flushing column by
column, which is why every alt nu-Tamari lattice over a fixed nu has the
same number of linear intervals of each length.  ``verify_theorem`` checks
that statement head-on: it counts the right entries of every lattice in
the increment box row by row with ``right_histograms``, listing no path
and sharing the rows before the first entry where a delta differs from
the one before it, and holds each to the delta-free ones of
``census_by_paths``.  ``census_for`` is the same row walk for one delta.
``restricted_census`` counts the linear intervals of a full rotation
lattice restricted to the nu-paths path by path, without building that
lattice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .counting import (
    Census,
    census_by_paths,
    census_for,
    delta_free_histogram,
    path_census,
    right_histograms,
)
from .order import (
    apply_horizontal,
    apply_vertical,
    left_intervals_from,
    left_witness,
    right_intervals_to,
    right_witness,
)
from .paths import (
    ContractError,
    IncrementVector,
    LatticePath,
    PathSyntaxError,
    box_size,
    box_vector,
    delta_rotate,
    enumerate_nu_paths,
    increment_box,
    is_weakly_above,
    valleys,
)
from .trees import GridRegion, GridTree, build_region, left_flushing, right_flushing
from .vectors import reduced_column_vector, reduced_down_flushing


def horizontal_flushing(tree: GridTree, target: GridRegion) -> GridTree:
    """The tree in the target region with the same row vector."""
    if _same_region(tree, target):
        return tree
    return right_flushing(left_flushing(tree), target)


def vertical_flushing(tree: GridTree, target: GridRegion) -> GridTree:
    """The tree in the target region with the same reduced column vector."""
    if _same_region(tree, target):
        return tree
    return reduced_down_flushing(reduced_column_vector(tree), target)


def _same_region(tree: GridTree, target: GridRegion) -> bool:
    if target.nu != tree.region.nu:
        raise ContractError(
            f"target region lies over {target.nu.word!r}, tree lies over "
            f"{tree.region.nu.word!r}"
        )
    return target == tree.region


def transport_left_interval(
    bottom: GridTree, top: GridTree, delta2: IncrementVector
) -> tuple[GridTree, GridTree]:
    """Carry a left interval [bottom, top] to the lattice of delta2.

    The image is the left interval of the same length in the same row of
    the horizontally flushed bottom tree.
    """
    length = len(top.nodes - bottom.nodes)
    witness = left_witness(bottom, top, length) if length else None
    if witness is None:
        raise ContractError("the given pair of trees is not a left interval")
    bottom2 = horizontal_flushing(bottom, build_region(delta2))
    for cand in left_intervals_from(bottom2, length):
        if cand.row == witness.row:
            return bottom2, apply_horizontal(bottom2, cand)
    raise ContractError("no corresponding horizontal run in the target tree")


def transport_right_interval(
    bottom: GridTree, top: GridTree, delta2: IncrementVector
) -> tuple[GridTree, GridTree]:
    """Carry a right interval [bottom, top], matching the reduced column index."""
    length = len(top.nodes - bottom.nodes)
    witness = right_witness(bottom, top, length) if length else None
    if witness is None:
        raise ContractError("the given pair of trees is not a right interval")
    top2 = vertical_flushing(top, build_region(delta2))
    index = bottom.region.reduced_column_order.index(witness.column)
    column = top2.region.reduced_column_order[index]
    for cand in right_intervals_to(top2, length):
        if cand.column == column:
            return apply_vertical(top2, cand), top2
    raise ContractError("no corresponding vertical run in the target tree")


@dataclass(frozen=True)
class TheoremReport:
    nu: LatticePath
    deltas_checked: int
    census: Census
    mismatches: tuple[str, ...] = ()

    @property
    def all_equal(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        doc = {"nu": self.nu.word, "deltas_checked": self.deltas_checked}
        doc.update(self.census.to_json_dict())
        doc["all_equal"] = self.all_equal
        if self.mismatches:
            doc["mismatches"] = list(self.mismatches)
        return doc


def verify_theorem(nu: LatticePath, sample: int | None = None, seed: int = 0) -> TheoremReport:
    """Census the lattices of the increment box of nu, each against ``census_by_paths``.

    With ``sample`` set (at least 2, else ``ContractError``), at most that
    many increment vectors are drawn (seeded, always keeping the all-zero
    and maximal ones) without listing the box; otherwise the full box is
    swept.  Either way the deltas go through ``right_histograms`` in box
    order, so each counts its right entries row by row from the first
    entry where it differs from the last delta, listing no path.  The walk
    state after a row is kept only while the next delta shares the entries
    up to that row, so a sparse sample keeps only a few.  Each
    histogram is held to the delta-free one, and a ``Census`` is built, by
    ``census_for``, only for a delta that differs, for its mismatch line;
    the report carries the delta-free census they must all equal.
    """
    if sample is not None and sample < 2:
        raise ContractError(f"sample must be >= 2, got {sample}")
    size = box_size(nu)
    deltas = increment_box(nu)
    if sample is not None and size > sample:
        rng = random.Random(seed)
        keep = {0, size - 1}
        while len(keep) < sample:
            keep.add(rng.randrange(size))
        deltas = (box_vector(nu, index) for index in sorted(keep))
    reference, expected = census_by_paths(nu), delta_free_histogram(nu)
    checked, mismatches = 0, []
    for delta, rights in right_histograms(nu, deltas):
        checked += 1
        if rights != expected:
            mismatches.append(f"delta={delta.entries}: {census_for(delta)} != {reference}")
    return TheoremReport(nu, checked, reference, tuple(mismatches))


@dataclass(frozen=True)
class RestrictedReport:
    """Census of a full rotation lattice restricted to the paths above nu."""

    nu: LatticePath
    base: LatticePath
    size: int
    minimal_elements: int
    census: Census


def restricted_census(nu: LatticePath, base: LatticePath) -> RestrictedReport:
    """Linear intervals of the rotation order of `base` restricted to nu-paths.

    `base` must lie weakly below nu with the same endpoints.  Rotations
    only raise a path, so the nu-paths form an upper set of the full
    lattice: an interval whose bottom is a nu-path lies wholly among
    them, and counting each nu-path's intervals from the bottom, as
    :func:`alttamari.counting.path_census` does over base's maximal
    increment vector, is exact.  The minimal nu-paths are those that no
    rotation of a nu-path reaches.  When some east run of `base` after
    its first north step exceeds the one of nu, right counts may drop;
    left counts never do.  No equality is asserted here: callers compare
    the reported census with the alt lattice's one.
    """
    if not is_weakly_above(nu.composition, base.composition):
        raise ContractError(f"{base.word!r} does not lie weakly below {nu.word!r}")
    delta = IncrementVector.maximal(base)
    members = enumerate_nu_paths(nu)
    raised = {delta_rotate(mu, delta, y) for mu in members for y in valleys(mu)}
    census = path_census(members, delta)
    return RestrictedReport(nu, base, len(members), len(members) - len(raised), census)


def bad_bases(nu: LatticePath) -> list[LatticePath]:
    """Paths weakly below nu (same endpoints) with some east run above nu's, lexicographically."""
    comp = nu.composition
    lowest = LatticePath.from_composition((nu.m,) + (0,) * nu.n)
    return [
        LatticePath.from_composition(mu)
        for mu in reversed(enumerate_nu_paths(lowest))
        if is_weakly_above(comp, mu) and any(run > bound for run, bound in zip(mu[1:], comp[1:]))
    ]


def mtamari_path(parts: int, height: int) -> LatticePath:
    """The base path (N E^parts)^height; ``PathSyntaxError`` if it does not fit in memory."""
    try:
        composition = (0,) + (parts,) * height
    except MemoryError as err:
        raise PathSyntaxError(f"(N E^{parts})^{height} is too long to build") from err
    return LatticePath.from_composition(composition)


def mtamari_right_formula(parts: int, height: int, length: int) -> int:
    """Closed count of right intervals of a given length over (N E^m)^n bases."""
    if parts < 1 or height < 1 or length < 1:
        raise ContractError("parts, height and length must all be >= 1")
    if length >= height:
        return 0
    return parts * comb(parts * height + height - length, height - length - 1)
