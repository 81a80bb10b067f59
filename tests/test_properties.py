"""Property tests on random base paths past the exhaustive m + n <= 7 sweeps."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alttamari import (
    ContractError,
    IncrementVector,
    LatticePath,
    build_lattice,
    build_region,
    column_vector,
    delta_rotate,
    down_flushing,
    enumerate_nu_paths,
    left_intervals_from,
    reduced_column_vector,
    reduced_down_flushing,
    right_flushing,
    right_intervals_to,
    row_vector,
    valleys,
)
from alttamari.counting import census_from_histograms, path_census
from alttamari.order import (
    LEFT,
    RIGHT,
    apply_horizontal,
    apply_vertical,
    left_witness,
    right_witness,
)
from alttamari.oracle import (
    closure_from_covers,
    count_paths_above,
    dyck_marked_counts,
    naive_rotations,
    oracle_is_linear,
    oracle_join,
    oracle_meet,
)

from conftest import rank_offset, rotated_covers, transpose

MAX_SIZE = 14
# Lattices built per example stay this small; the unbuilt properties use
# every base path of 8 to MAX_SIZE steps, whose lattices reach C(14, 7) = 3,432.
MAX_LATTICE_ELEMENTS = 200
MAX_CENSUS_ELEMENTS = 500
MAX_ROTATED_PATHS = 500
SAMPLED_PAIRS = 20


@st.composite
def instances(draw, max_elements=None):
    # past the exhaustive m + n <= 7 sweeps; the length is drawn first, so
    # long words come up as often as short ones
    size = draw(st.integers(8, MAX_SIZE))
    words = st.text(alphabet="NE", min_size=size, max_size=size)
    if max_elements is not None:
        words = words.filter(lambda word: count_paths_above(word) <= max_elements)
    nu = LatticePath(draw(words))
    entries = tuple(draw(st.integers(0, c)) for c in nu.composition[1:])
    return nu, IncrementVector(entries, nu)


@st.composite
def paths_above(draw, nu: LatticePath):
    reach = nu.east_prefixes
    composition = []
    total = 0
    for j in range(nu.n):
        entry = draw(st.integers(0, reach[j] - total))
        composition.append(entry)
        total += entry
    composition.append(nu.m - total)
    return tuple(composition)


@given(instances())
def test_region_shape_matches_a_recount_from_row_bounds(instance):
    region = build_region(instance[1])
    spans = list(zip(region.row_lo, region.row_hi))
    columns = range(region.m + 1)
    lengths = [sum(lo <= x <= hi for lo, hi in spans) for x in columns]
    relevant = [sum(lo < x <= hi for lo, hi in spans) for x in columns]
    for x in columns:
        rows = [y for y, (lo, hi) in enumerate(spans) if lo <= x <= hi]
        assert rows == list(range(region.column_floor[x], region.n + 1))
    assert region.column_lengths == tuple(lengths)
    assert region.reduced_column_lengths == tuple(relevant)
    assert region.column_order == tuple(sorted(columns, key=lambda x: (lengths[x], -x)))
    assert region.reduced_column_order == tuple(
        sorted(columns[1:], key=lambda x: (relevant[x], -x))
    )


@given(st.data())
def test_down_flushings_invert_column_vectors(data):
    nu, delta = data.draw(instances())
    region = build_region(delta)
    tree = right_flushing(data.draw(paths_above(nu)), region)
    assert down_flushing(column_vector(tree), region).nodes == tree.nodes
    assert reduced_down_flushing(reduced_column_vector(tree), region).nodes == tree.nodes


@settings(max_examples=40)
@given(st.data())
def test_witnesses_agree_with_classify(data):
    nu, delta = data.draw(instances(MAX_LATTICE_ELEMENTS))
    lattice = build_lattice(delta)
    tree = lattice.trees[data.draw(st.integers(0, len(lattice) - 1))]
    length = data.draw(st.integers(1, max(1, nu.m)))
    for ell in left_intervals_from(tree, length):
        top = apply_horizontal(tree, ell)
        assert left_witness(tree, top, length) == ell
        record = lattice.classify(lattice.tree_id(tree), lattice.tree_id(top))
        assert (record.kind, record.length, record.witness) == (LEFT, length, ell)
    for ell in right_intervals_to(tree, length):
        bottom = apply_vertical(tree, ell)
        assert right_witness(bottom, tree, length) == ell
        record = lattice.classify(lattice.tree_id(bottom), lattice.tree_id(tree))
        if length == 1:
            assert record.kind == LEFT and record.also_right
            assert record.witness == left_witness(bottom, tree, 1)
        else:
            assert (record.kind, record.length, record.witness) == (RIGHT, length, ell)


@settings(max_examples=40)
@given(instances(MAX_CENSUS_ELEMENTS), st.integers(0, 2**32 - 1))
def test_closures_match_the_oracle_closure(instance, seed):
    # the queries read the closure past the exhaustive sizes, on seeded sample pairs
    lattice = build_lattice(instance[1])
    size = len(lattice)
    matrix = closure_from_covers(size, [(low, high) for low, high, _ in lattice.covers()])
    assert lattice.down == transpose(matrix)
    rng = random.Random(seed)
    for _ in range(SAMPLED_PAIRS):
        a, b = rng.randrange(size), rng.randrange(size)
        assert lattice.leq(a, b) == bool(matrix[a] >> b & 1)
        assert lattice.meet(a, b) == oracle_meet(matrix, a, b)
        assert lattice.join(a, b) == oracle_join(matrix, a, b)
        if not lattice.leq(a, b):
            with pytest.raises(ContractError):
                lattice.is_linear(a, b)
        above = [z for z in range(size) if matrix[a] >> z & 1]
        top = rng.choice(above)
        assert lattice.is_linear(a, top) == oracle_is_linear(matrix, a, top)


@settings(max_examples=40)
@given(instances(MAX_CENSUS_ELEMENTS))
def test_census_matches_marked_path_counts_for_every_delta(instance):
    nu, delta = instance
    census = build_lattice(delta).census()
    for length in range(1, len(nu.word) + 1):
        left = census.left[length - 1] if length <= len(census.left) else 0
        right = census.right[length - 1] if length <= len(census.right) else 0
        assert (left, right) == dyck_marked_counts(nu.word, length), length


@settings(max_examples=40)
@given(instances(MAX_ROTATED_PATHS))
def test_rotations_on_compositions_match_word_rotations(instance):
    nu, delta = instance
    for mu in enumerate_nu_paths(nu):
        rotated = [delta_rotate(mu, delta, row) for row in valleys(mu)]
        words = [LatticePath.from_composition(comp).word for comp in rotated]
        word = LatticePath.from_composition(mu).word
        assert list(enumerate(words)) == naive_rotations(word, delta.entries)


@st.composite
def mid_instances(draw, max_size=12):
    # a random delta of a random nu with 9 to max_size steps, at most C(12, 6) = 924
    # elements at 12 and C(14, 7) = 3,432 at 14
    size = draw(st.integers(9, max_size))
    nu = LatticePath(draw(st.text(alphabet="NE", min_size=size, max_size=size)))
    entries = tuple(draw(st.integers(0, c)) for c in nu.composition[1:])
    return IncrementVector(entries, nu)


@settings(max_examples=40)
@given(mid_instances())
def test_grouped_covers_match_one_rotation_per_valley_past_size_8(delta):
    lattice = build_lattice(delta)
    assert tuple(lattice.covers()) == rotated_covers(lattice)


@settings(max_examples=40)
@given(mid_instances(MAX_SIZE), st.data())
def test_a_rotation_moves_the_id_by_the_completions_it_passes_past_size_8(delta, data):
    ids = {mu: i for i, mu in enumerate(enumerate_nu_paths(delta.nu))}
    for _ in range(SAMPLED_PAIRS):
        mu = data.draw(paths_above(delta.nu))
        for y in valleys(mu):
            assert ids[delta_rotate(mu, delta, y)] - ids[mu] == rank_offset(mu, delta, y), (mu, y)


@settings(max_examples=40)
@given(instances(MAX_CENSUS_ELEMENTS))
def test_path_census_matches_the_right_flushed_trees_vectors(instance):
    nu, delta = instance
    region = build_region(delta)
    paths = enumerate_nu_paths(nu)
    trees = [right_flushing(mu, region) for mu in paths]
    expected = census_from_histograms(
        len(paths),
        Counter(entry for tree in trees for entry in row_vector(tree)[: nu.n]),
        Counter(entry for tree in trees for entry in reduced_column_vector(tree)),
    )
    assert path_census(paths, delta) == expected
