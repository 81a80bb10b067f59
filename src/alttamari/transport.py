"""Bijections between the tree sets of different increment vectors.

Horizontal flushing carries a tree to the unique tree over another
increment vector with the same row vector; vertical flushing preserves
the reduced column vector instead.  Left intervals ride along horizontal
flushing row by row, right intervals along vertical flushing column by
column, which is why every alt nu-Tamari lattice over a fixed nu has the
same number of linear intervals of each length.  ``verify_theorem`` checks
that statement head-on by computing the census of every lattice in the
increment box.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from math import comb

from .order import (
    LEFT,
    NON_LINEAR,
    RIGHT,
    Census,
    apply_horizontal,
    apply_vertical,
    build_lattice,
    left_intervals_from,
    left_witness,
    right_intervals_to,
    right_witness,
)
from .paths import (
    ContractError,
    IncrementVector,
    LatticePath,
    increment_box,
    is_weakly_above,
)
from .trees import GridTree, build_region, left_flushing, right_flushing
from .vectors import reduced_column_vector, reduced_down_flushing


def horizontal_flushing(tree: GridTree, delta2: IncrementVector) -> GridTree:
    """The tree over delta2 with the same row vector."""
    _check_target(tree, delta2)
    if delta2 == tree.region.delta:
        return tree
    return right_flushing(left_flushing(tree), build_region(tree.region.nu, delta2))


def vertical_flushing(tree: GridTree, delta2: IncrementVector) -> GridTree:
    """The tree over delta2 with the same reduced column vector."""
    _check_target(tree, delta2)
    if delta2 == tree.region.delta:
        return tree
    target = build_region(tree.region.nu, delta2)
    return reduced_down_flushing(reduced_column_vector(tree), target)


def _check_target(tree: GridTree, delta2: IncrementVector) -> None:
    if delta2.nu != tree.region.nu:
        raise ContractError(
            f"target increments bound to {delta2.nu.word!r}, tree lies over "
            f"{tree.region.nu.word!r}"
        )


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
    bottom2 = horizontal_flushing(bottom, delta2)
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
    top2 = vertical_flushing(top, delta2)
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
    all_equal: bool
    mismatches: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        doc = {"nu": self.nu.word, "deltas_checked": self.deltas_checked}
        doc.update(self.census.to_json_dict())
        doc["all_equal"] = self.all_equal
        if self.mismatches:
            doc["mismatches"] = list(self.mismatches)
        return doc


def verify_theorem(
    nu: LatticePath, sample: int | None = None, seed: int = 0, censuses: dict | None = None
) -> TheoremReport:
    """Census every lattice of the increment box of nu and compare.

    With ``sample`` set (at least 2, else ``ContractError``), at most that
    many increment vectors are drawn (seeded, always keeping the all-zero
    and maximal ones); otherwise the full box is swept.  ``censuses`` maps
    increment vectors to censuses the caller already holds; when given, it
    must hold every vector compared, and no lattice is built.
    """
    if sample is not None and sample < 2:
        raise ContractError(f"sample must be >= 2, got {sample}")
    deltas = list(increment_box(nu))
    if sample is not None and len(deltas) > sample:
        rng = random.Random(seed)
        keep = {0, len(deltas) - 1}
        while len(keep) < sample:
            keep.add(rng.randrange(len(deltas)))
        deltas = [deltas[i] for i in sorted(keep)]
    if censuses is None:
        censuses = {delta: build_lattice(nu, delta).census() for delta in deltas}
    reference = censuses[deltas[0]]
    mismatches = tuple(
        f"delta={delta.entries}: {censuses[delta]} != {reference}"
        for delta in deltas[1:]
        if censuses[delta] != reference
    )
    return TheoremReport(nu, len(deltas), reference, not mismatches, mismatches)


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

    `base` must lie weakly below nu with the same endpoints.  When some
    east run of `base` after its first north step exceeds the one of nu,
    the restriction is only an upper set (not an interval) of the full
    lattice, and its right-interval counts may drop; the left counts never
    do.  No equality is asserted here: callers compare the reported census
    with the alt lattice's one.
    """
    if not is_weakly_above(nu, base):
        raise ContractError(f"{base.word!r} does not lie weakly below {nu.word!r}")
    full = build_lattice(base, IncrementVector.maximal(base))
    member_ids = [
        i
        for i, element in enumerate(full.elements)
        if is_weakly_above(element.path, nu)
    ]
    mask = 0
    for i in member_ids:
        mask |= 1 << i
    minimal = sum(1 for i in member_ids if full.down[i] & mask == 1 << i)

    totals: Counter = Counter()
    left: Counter = Counter()
    right: Counter = Counter()
    for a in member_ids:
        rest = full.up[a] & mask
        while rest:
            low = rest & -rest
            rest ^= low
            record = full.classify(a, low.bit_length() - 1)
            if record.kind == NON_LINEAR:
                continue
            totals[record.length] += 1
            if record.kind == LEFT:
                left[record.length] += 1
            if record.kind == RIGHT or record.also_right:
                right[record.length] += 1
    longest = max(totals)
    census = Census(
        tuple(totals[k] for k in range(longest + 1)),
        tuple(left[k] for k in range(1, longest + 1)),
        tuple(right[k] for k in range(1, longest + 1)),
    )
    return RestrictedReport(nu, base, len(member_ids), minimal, census)


def bad_bases(nu: LatticePath) -> list[LatticePath]:
    """Paths weakly below nu (same endpoints) with some east run above nu's."""
    comp = nu.composition
    n, m = nu.n, nu.m
    prefixes = nu.east_prefixes
    out: list[LatticePath] = []

    def walk(prefix: list[int], total: int) -> None:
        j = len(prefix)
        if j == n:
            prefix.append(m - total)
            candidate = tuple(prefix)
            if any(candidate[i] > comp[i] for i in range(1, n + 1)):
                out.append(LatticePath.from_composition(candidate))
            prefix.pop()
            return
        for c in range(prefixes[j] - total, m - total + 1):
            prefix.append(c)
            walk(prefix, total + c)
            prefix.pop()

    walk([], 0)
    return out


def mtamari_path(parts: int, height: int) -> LatticePath:
    """The base path (N E^parts)^height."""
    return LatticePath(("N" + "E" * parts) * height)


def mtamari_right_formula(parts: int, height: int, length: int) -> int:
    """Closed count of right intervals of a given length over (N E^m)^n bases."""
    if parts < 1 or height < 1 or length < 1:
        raise ContractError("parts, height and length must all be >= 1")
    if length >= height:
        return 0
    return parts * comb(parts * height + height - length, height - length - 1)
