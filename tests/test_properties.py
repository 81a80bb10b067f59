"""Property tests on random base paths past the exhaustive m + n <= 7 sweeps."""

from hypothesis import given, settings
from hypothesis import strategies as st

from alttamari import (
    IncrementVector,
    LatticePath,
    NuPath,
    build_lattice,
    build_region,
    column_vector,
    down_flushing,
    left_intervals_from,
    reduced_column_vector,
    reduced_down_flushing,
    right_flushing,
    right_intervals_to,
)
from alttamari.order import (
    LEFT,
    RIGHT,
    apply_horizontal,
    apply_vertical,
    left_witness,
    right_witness,
)
from alttamari.oracle import count_paths_above

MAX_SIZE = 14
# Lattices built per example stay this small; the unbuilt properties use
# every base path up to MAX_SIZE, whose lattices reach C(14, 7) = 3,432.
MAX_LATTICE_ELEMENTS = 200


@st.composite
def instances(draw, max_elements=None):
    words = st.text(alphabet="NE", max_size=MAX_SIZE)
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
    return NuPath(LatticePath.from_composition(composition), nu)


@given(instances())
def test_region_shape_matches_a_recount_from_row_bounds(instance):
    region = build_region(*instance)
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
    region = build_region(nu, delta)
    tree = right_flushing(data.draw(paths_above(nu)), region)
    assert down_flushing(column_vector(tree), region).nodes == tree.nodes
    assert reduced_down_flushing(reduced_column_vector(tree), region).nodes == tree.nodes


@settings(max_examples=40)
@given(st.data())
def test_witnesses_agree_with_classify(data):
    nu, delta = data.draw(instances(MAX_LATTICE_ELEMENTS))
    lattice = build_lattice(nu, delta)
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
