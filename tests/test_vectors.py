import itertools
from collections import Counter

import pytest

from alttamari import (
    IncrementVector,
    LatticePath,
    build_region,
    column_vector,
    down_flushing,
    enumerate_nu_paths,
    increment_box,
    left_flushing,
    reduced_column_order,
    reduced_column_vector,
    reduced_down_flushing,
    relevant_points,
    reverse_path,
    right_flushing,
    row_vector,
    validate_column_vector,
    validate_reduced_column_vector,
    validate_row_vector,
)
from alttamari.counting import census_from_histograms, path_census
from alttamari.paths import is_weakly_above
from alttamari.trees import GridTree, bottom_tree
from alttamari.vectors import VectorValidationError

from conftest import all_base_paths, all_instances


def tree_of(comp, nu, delta):
    return right_flushing(comp, build_region(delta))


def test_row_vector_examples(eneen):
    d20 = IncrementVector((2, 0), eneen)
    assert row_vector(tree_of((1, 2, 0), eneen, d20)) == (1, 2, 0)
    assert row_vector(tree_of((0, 0, 3), eneen, d20)) == (0, 0, 3)


def test_row_vector_is_left_flushing_composition():
    for nu, delta in all_instances(6):
        region = build_region(delta)
        for mu in enumerate_nu_paths(nu):
            tree = right_flushing(mu, region)
            assert row_vector(tree) == left_flushing(tree) == mu


def test_column_order_examples(eneen):
    assert build_region(IncrementVector((2, 0), eneen)).column_order == (3, 2, 1, 0)
    assert build_region(IncrementVector((0, 0), eneen)).column_order == (1, 0, 3, 2)


def test_column_lengths_match_figure_caption(eneen):
    # the middle region of ENEEN: ordered column lengths 1,1,2,2 and ordered
    # reduced column lengths 1,1,2, counted in unit segments
    region = build_region(IncrementVector((1, 0), eneen))
    assert region.column_order == (3, 0, 2, 1)
    assert tuple(region.column_lengths[x] - 1 for x in region.column_order) == (1, 1, 2, 2)
    assert reduced_column_order(region) == (3, 1, 2)
    assert tuple(
        region.reduced_column_lengths[x] - 1 for x in reduced_column_order(region)
    ) == (1, 1, 2)


def test_column_vector_figure_trees(eneen):
    # the three trees sharing column vector (0,1,0,1)
    assert column_vector(tree_of((1, 1, 1), eneen, IncrementVector((2, 0), eneen))) == (0, 1, 0, 1)
    assert column_vector(tree_of((1, 2, 0), eneen, IncrementVector((1, 0), eneen))) == (0, 1, 0, 1)
    assert column_vector(tree_of((1, 2, 0), eneen, IncrementVector((0, 0), eneen))) == (0, 1, 0, 1)


def test_column_vector_bottom_tree(eneen):
    # entries must sum to n, so the bottom tree of the fully left-justified
    # region carries everything on its leftmost (last ordered) column
    d20 = IncrementVector((2, 0), eneen)
    assert column_vector(tree_of((1, 2, 0), eneen, d20)) == (0, 0, 0, 2)


def test_column_vector_single_row():
    flat = LatticePath("EEE")
    region = build_region(IncrementVector((), flat))
    assert column_vector(bottom_tree(region)) == (0, 0, 0, 0)
    assert reduced_column_vector(bottom_tree(region)) == (0, 0, 0)


def test_relevant_points_examples(eneen):
    region = build_region(IncrementVector((0, 0), eneen))
    relevant, nonrelevant = relevant_points(region)
    assert nonrelevant == {(2, 0), (0, 1), (0, 2)}
    assert relevant | nonrelevant == set(region.points())
    assert not relevant & nonrelevant
    tall = LatticePath("NN")
    tall_region = build_region(IncrementVector((0, 0), tall))
    rel, nonrel = relevant_points(tall_region)
    assert rel == frozenset()
    assert nonrel == {(0, 0), (0, 1), (0, 2)}
    assert reduced_column_order(tall_region) == ()


def test_reduced_column_vector_figure_trees(eneen):
    for entries in [(2, 0), (1, 0), (0, 0)]:
        tree = tree_of((1, 1, 1), eneen, IncrementVector(entries, eneen))
        assert reduced_column_vector(tree) == (0, 1, 0)


def test_reduced_column_vector_large_figures():
    nu = LatticePath.from_composition((3, 1, 0, 2, 2, 0, 3, 0))
    mu = (1, 0, 1, 1, 3, 2, 1, 2)
    tree = tree_of(mu, nu, IncrementVector.maximal(nu))
    assert row_vector(tree) == mu
    assert reduced_column_vector(tree) == (0, 1, 0, 0, 0, 0, 1, 1, 0, 3, 0)

    nu13 = LatticePath.from_composition((2, 3, 0, 1, 2, 3, 0, 1, 0, 2, 1, 2, 0))
    target = (0, 1, 0, 1, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0, 2, 0, 1)
    for entries in [
        nu13.composition[1:],
        (2, 0, 1, 1, 2, 0, 1, 0, 2, 0, 2, 0),
        (1, 0, 0, 1, 1, 0, 0, 0, 2, 0, 1, 0),
    ]:
        region = build_region(IncrementVector(entries, nu13))
        tree = reduced_down_flushing(target, region)
        tree.validate()
        assert reduced_column_vector(tree) == target


def test_validate_row_vector_examples(eneen):
    assert validate_row_vector((1, 2, 0), eneen) is None
    violation = validate_row_vector((2, 1, 0), eneen)
    assert violation is not None and violation.condition == 2 and violation.index == 0
    assert validate_row_vector((-1, 4, 0), eneen).condition == 1
    assert validate_row_vector((1, 1, 0), eneen).condition == 3  # total too small
    assert validate_row_vector((1, 2, 1), eneen).condition == 2  # overflow shows at j=2
    assert validate_row_vector((1, 2), eneen).condition == 0


def test_validate_column_vector_examples(eneen):
    assert validate_column_vector((0, 1, 0, 1), eneen) is None
    assert validate_column_vector((0, 0, 0, 2), eneen) is None
    assert validate_column_vector((1, 1, 0, 0), eneen).condition == 2
    assert validate_column_vector((0, 0, 0, 1), eneen).condition == 3
    # the sum of a column vector is forced to n, so a 3-total over ENEEN is
    # already a prefix overflow
    assert validate_column_vector((0, 0, 1, 2), eneen).condition == 2
    assert validate_reduced_column_vector((0, 1, 0), eneen) is None
    assert validate_reduced_column_vector((1, 1, 0), eneen).condition == 2
    assert validate_reduced_column_vector((), LatticePath("NN")) is None


def test_row_vector_validation_is_the_weakly_above_test():
    for nu in all_base_paths(5):
        m, n = nu.m, nu.n
        candidates = itertools.chain(
            itertools.product(range(-1, m + 2), repeat=n + 1),
            [(0,) * n, (0,) * (n + 2), nu.composition[:-1], nu.composition + (0,)],
        )
        for v in candidates:
            assert is_weakly_above(v, nu.composition) == (validate_row_vector(v, nu) is None)


def test_valid_vectors_biject_with_paths():
    for nu in all_base_paths(5):
        paths = enumerate_nu_paths(nu)
        m, n = nu.m, nu.n
        row_candidates = [
            comp
            for comp in itertools.product(range(m + 1), repeat=n + 1)
            if sum(comp) == m
        ]
        valid_rows = [c for c in row_candidates if validate_row_vector(c, nu) is None]
        assert len(valid_rows) == len(paths)
        col_candidates = [
            c for c in itertools.product(range(n + 1), repeat=m + 1) if sum(c) == n
        ]
        valid_cols = [c for c in col_candidates if validate_column_vector(c, nu) is None]
        assert len(valid_cols) == len(paths)
        reduced_candidates = itertools.product(range(n + 2), repeat=m)
        valid_reduced = [
            c for c in reduced_candidates if validate_reduced_column_vector(c, nu) is None
        ]
        assert len(valid_reduced) == len(paths)


def test_path_census_matches_the_right_flushed_trees_vectors():
    # counting on paths and counting on the vectors of their trees agree
    for nu, delta in all_instances(7):
        region = build_region(delta)
        paths = enumerate_nu_paths(nu)
        trees = [right_flushing(mu, region) for mu in paths]
        expected = census_from_histograms(
            len(paths),
            Counter(entry for tree in trees for entry in row_vector(tree)[: nu.n]),
            Counter(entry for tree in trees for entry in reduced_column_vector(tree)),
        )
        assert path_census(paths, delta) == expected, (nu.word, delta.entries)


def test_down_flushing_round_trips():
    for nu, delta in all_instances(6):
        region = build_region(delta)
        for mu in enumerate_nu_paths(nu):
            tree = right_flushing(mu, region)
            assert down_flushing(column_vector(tree), region).nodes == tree.nodes
            assert reduced_down_flushing(reduced_column_vector(tree), region).nodes == tree.nodes


def test_down_flushing_rejects_invalid_vectors(eneen):
    region = build_region(IncrementVector((2, 0), eneen))
    with pytest.raises(VectorValidationError, match="condition \\(2\\)"):
        down_flushing((1, 1, 0, 0), region)
    with pytest.raises(VectorValidationError, match="condition \\(3\\)"):
        down_flushing((0, 0, 0, 1), region)
    with pytest.raises(VectorValidationError, match="condition \\(2\\)"):
        reduced_down_flushing((1, 1, 0), region)


def test_vector_sets_do_not_depend_on_delta():
    for nu in all_base_paths(6):
        column_sets = []
        reduced_sets = []
        for delta in increment_box(nu):
            region = build_region(delta)
            trees = [right_flushing(mu, region) for mu in enumerate_nu_paths(nu)]
            column_sets.append({column_vector(t) for t in trees})
            reduced_sets.append({reduced_column_vector(t) for t in trees})
        assert all(s == column_sets[0] for s in column_sets)
        assert all(s == reduced_sets[0] for s in reduced_sets)


def test_reduced_correspondence_preserves_nonrelevant_heights():
    for nu in all_base_paths(5):
        deltas = list(increment_box(nu))
        for delta in deltas:
            region = build_region(delta)
            for mu in enumerate_nu_paths(nu):
                tree = right_flushing(mu, region)
                heights = {
                    y for (x, y) in tree.nodes if region.is_nonrelevant(x, y)
                }
                for delta2 in deltas:
                    region2 = build_region(delta2)
                    tree2 = reduced_down_flushing(reduced_column_vector(tree), region2)
                    heights2 = {
                        y for (x, y) in tree2.nodes if region2.is_nonrelevant(x, y)
                    }
                    assert heights == heights2


def reflect_tree(tree):
    """The reversed-path tree: (x, y) -> (n - y, m - x)."""
    region = tree.region
    nu_rev = reverse_path(region.nu)
    target = build_region(IncrementVector.maximal(nu_rev))
    nodes = frozenset((region.n - y, region.m - x) for (x, y) in tree.nodes)
    reflected = GridTree(target, nodes)
    reflected.validate()
    return reflected


def test_maximal_case_reduced_vector_is_reflected_row_vector():
    for nu in all_base_paths(6):
        delta = IncrementVector.maximal(nu)
        region = build_region(delta)
        for mu in enumerate_nu_paths(nu):
            tree = right_flushing(mu, region)
            reflected = reflect_tree(tree)
            assert reduced_column_vector(tree) == row_vector(reflected)[:-1]
