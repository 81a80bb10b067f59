"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Everything is exact; there are no tolerances.
"""

import itertools
import time
from contextlib import contextmanager

import pytest

from alttamari import (
    IncrementVector,
    LatticePath,
    ambient_base,
    build_lattice,
    build_region,
    enumerate_nu_paths,
    increment_box,
    left_intervals_from,
    mtamari_path,
    mtamari_right_formula,
    restricted_census,
    right_flushing,
    right_intervals_to,
    verify_theorem,
)
from alttamari import oracle
from alttamari.order import apply_horizontal, apply_vertical
from alttamari.paths import is_weakly_above
from alttamari.trees import left_flushing
from alttamari.transport import bad_bases, horizontal_flushing, vertical_flushing
from alttamari.vectors import (
    column_vector,
    down_flushing,
    reduced_column_vector,
    reduced_down_flushing,
    row_vector,
)

from conftest import all_base_paths, all_instances

SWEEP_SIZE = 7


@contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}  ({time.time() - start:.1f}s)")


def test_criterion_1_figure_reproduction():
    with criterion(1, "figure censuses (7,8,4,1) and (16,24,16,3) for every delta"):
        nu = LatticePath("ENEEN")
        for delta in increment_box(nu):
            assert build_lattice(delta).census().totals == (7, 8, 4, 1)
        assert [d.entries for d in increment_box(nu)] == [(0, 0), (1, 0), (2, 0)]
        nu = LatticePath("ENEENN")
        for delta in increment_box(nu):
            assert build_lattice(delta).census().totals == (16, 24, 16, 3)
        assert [d.entries for d in increment_box(nu)] == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]


def test_criterion_2_theorem_sweep():
    with criterion(2, f"equal censuses over the full increment box, m+n <= {SWEEP_SIZE}"):
        for nu in all_base_paths(SWEEP_SIZE):
            censuses = [build_lattice(d).census() for d in increment_box(nu)]
            first = censuses[0]
            for c in censuses[1:]:
                assert c.totals == first.totals, nu.word
                assert c.left == first.left, nu.word
                assert c.right == first.right, nu.word


def test_criterion_3_lattice_laws_and_interval_realization():
    with criterion(3, "meet/join everywhere; lattice = upper interval of its ambient lattice"):
        ambient_cache: dict[str, object] = {}
        for nu, delta in all_instances(SWEEP_SIZE):
            lat = build_lattice(delta)
            lat.check_lattice_laws()
            base = ambient_base(delta)
            full = ambient_cache.get(base.word)
            if full is None:
                full = build_lattice(IncrementVector.maximal(base))
                ambient_cache[base.word] = full
            bottom = full.element_id(nu.composition)
            member_ids = sorted(
                i for i in range(len(full.elements))
                if is_weakly_above(full.elements[i], nu.composition)
            )
            # the nu-paths form exactly the interval [nu, top] of the full lattice
            assert member_ids == sorted(
                i for i in range(len(full.elements)) if full.leq(bottom, i)
            )
            assert full.leq(member_ids[-1], full.top) and member_ids[-1] == full.top
            # and the induced order is the alt lattice's order
            relabel = {full.elements[i]: k for k, i in enumerate(member_ids)}
            assert len(relabel) == len(lat.elements)
            for i in member_ids:
                for j in member_ids:
                    a = relabel[full.elements[i]]
                    b = relabel[full.elements[j]]
                    assert full.leq(i, j) == lat.leq(a, b)


def test_criterion_4_oracle_equivalence():
    with criterion(4, "structured censuses and witness families equal the chain-scan oracle"):
        for nu, delta in all_instances(SWEEP_SIZE):
            lat = build_lattice(delta)
            census = lat.census()
            matrix = oracle.closure_from_covers(len(lat), [(a, b) for a, b, _ in lat.covers])
            assert tuple(census.totals) == oracle.oracle_census(matrix)
            # the witness families reproduce the scan's linear intervals pair
            # by pair: disjoint for lengths >= 2, identical at length 1
            scan: dict[int, set[tuple[int, int]]] = {}
            for a in range(len(lat)):
                for b in range(len(lat)):
                    if a != b and matrix[a] >> b & 1:
                        linear, length = oracle.oracle_is_linear(matrix, a, b)
                        if linear:
                            scan.setdefault(length, set()).add((a, b))
            for length, pairs in scan.items():
                lefts, rights = set(), set()
                for i, tree in enumerate(lat.trees):
                    for witness in left_intervals_from(tree, length):
                        lefts.add((i, lat.tree_id(apply_horizontal(tree, witness))))
                    for witness in right_intervals_to(tree, length):
                        rights.add((lat.tree_id(apply_vertical(tree, witness)), i))
                assert lefts | rights == pairs
                assert (not lefts & rights) if length >= 2 else lefts == rights


def test_criterion_5_counting_propositions():
    with criterion(5, "per-tree left/right interval counts match the vector formulas"):
        for nu, delta in all_instances(SWEEP_SIZE):
            lat = build_lattice(delta)
            n = nu.n
            for i, tree in enumerate(lat.trees):
                rows = row_vector(tree)
                reduced = reduced_column_vector(tree)
                longest = max([0, *rows[:n], *reduced])
                for ell in range(1, longest + 1):
                    assert len(left_intervals_from(tree, ell)) == sum(
                        1 for r in rows[:n] if r >= ell
                    )
                    assert len(right_intervals_to(tree, ell)) == sum(
                        1 for c in reduced if c >= ell
                    )


def test_criterion_6_flushing_round_trips():
    with criterion(6, "flushing bijections and their reconstructions all invert"):
        for nu in all_base_paths(SWEEP_SIZE):
            regions = [build_region(delta) for delta in increment_box(nu)]
            trees_by_delta = []
            for region in regions:
                trees = [right_flushing(mu, region) for mu in enumerate_nu_paths(nu)]
                for mu, tree in zip(enumerate_nu_paths(nu), trees):
                    assert left_flushing(tree) == mu
                    assert down_flushing(column_vector(tree), region).nodes == tree.nodes
                    assert (
                        reduced_down_flushing(reduced_column_vector(tree), region).nodes
                        == tree.nodes
                    )
                trees_by_delta.append(trees)
            for (r1, trees1), (r2, _) in itertools.permutations(
                zip(regions, trees_by_delta), 2
            ):
                h_images, v_images = set(), set()
                for tree in trees1:
                    h_image = horizontal_flushing(tree, r2)
                    assert row_vector(h_image) == row_vector(tree)
                    assert horizontal_flushing(h_image, r1).nodes == tree.nodes
                    h_images.add(h_image.nodes)
                    v_image = vertical_flushing(tree, r2)
                    assert reduced_column_vector(v_image) == reduced_column_vector(tree)
                    assert vertical_flushing(v_image, r1).nodes == tree.nodes
                    v_images.add(v_image.nodes)
                assert len(h_images) == len(trees1)
                assert len(v_images) == len(trees1)


def test_criterion_7_mtamari_right_formula():
    with criterion(7, "right-interval counts match the closed binomial formula"):
        for parts, height in [(1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2)]:
            base = mtamari_path(parts, height)
            census = build_lattice(IncrementVector.maximal(base)).census()
            for length in range(1, height + 3):
                observed = (
                    census.right[length - 1] if length <= len(census.right) else 0
                )
                assert observed == mtamari_right_formula(parts, height, length), (
                    parts,
                    height,
                    length,
                )


def test_criterion_8_mtamari_left_distribution():
    with criterion(8, "left distribution (728,...,1) for the two-east staircase, five rows"):
        base = mtamari_path(2, 5)
        lat = build_lattice(IncrementVector.maximal(base))
        census = lat.census()
        assert census.left == (728, 442, 222, 112, 47, 18, 5, 1)
        matrix = oracle.closure_from_covers(len(lat), [(a, b) for a, b, _ in lat.covers])
        assert tuple(census.totals) == oracle.oracle_census(matrix)


def test_criterion_9_marked_path_bijection():
    with criterion(9, "marked-path counts equal the valley-flip censuses, m+n <= 8"):
        for nu in all_base_paths(8):
            census = build_lattice(IncrementVector.zero(nu)).census()
            longest = max(len(census.left), len(census.right), 1)
            for length in range(1, longest + 2):
                left_marks, right_marks = oracle.dyck_marked_counts(nu.word, length)
                expected_left = (
                    census.left[length - 1] if length <= len(census.left) else 0
                )
                expected_right = (
                    census.right[length - 1] if length <= len(census.right) else 0
                )
                assert left_marks == expected_left, (nu.word, length)
                assert right_marks == expected_right, (nu.word, length)


def test_criterion_10_wrong_base_phenomenon():
    with criterion(10, "some non-admissible base drops right intervals, never left ones"):
        witness = None
        for nu in all_base_paths(SWEEP_SIZE):
            alt = build_lattice(IncrementVector.zero(nu)).census()
            for base in bad_bases(nu):
                report = restricted_census(nu, base)
                assert report.census.left == alt.left, (nu.word, base.word)
                rights = report.census.right
                padded = rights + (0,) * (len(alt.right) - len(rights))
                assert len(padded) <= len(alt.right)
                assert all(r <= a for r, a in zip(padded, alt.right))
                if witness is None and any(
                    r < a for r, a in zip(padded, alt.right)
                ):
                    witness = (nu, base, report, alt)
        assert witness is not None
        nu, base, report, alt = witness
        print(
            f"  witness: nu={nu.composition} base={base.composition} "
            f"right {report.census.right} < {alt.right}"
        )
