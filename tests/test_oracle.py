import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alttamari import build_lattice, oracle

from conftest import all_base_paths, all_instances


def test_count_paths_examples():
    assert oracle.count_paths_above("ENEEN") == 7
    assert oracle.count_paths_above("ENEENN") == 16
    assert oracle.count_paths_above("EEEE") == 1
    assert oracle.count_paths_above("") == 1


def test_enumerate_words_matches_count():
    for nu in all_base_paths(7):
        words = oracle.enumerate_words_above(nu.word)
        assert len(words) == len(set(words)) == oracle.count_paths_above(nu.word)
        assert all(w.count("N") == nu.n and w.count("E") == nu.m for w in words)


def test_closure_identity_and_chain():
    assert oracle.closure_from_covers(3, []) == [0b001, 0b010, 0b100]
    chain = oracle.closure_from_covers(3, [(0, 1), (1, 2)])
    assert chain == [0b111, 0b110, 0b100]
    with pytest.raises(ValueError, match="cycle"):
        oracle.closure_from_covers(2, [(0, 1), (1, 0)])
    # the 3-cycle 1 -> 3 -> 4 -> 1 is named by its first mutual pair in
    # row-major order; row 0 and bit 2 of row 1 come first but are not mutual
    with pytest.raises(ValueError, match=r"^cycle through elements 1 and 3$"):
        oracle.closure_from_covers(5, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 1)])
    # a self-loop is no in-edge, so it closes no cycle
    assert oracle.closure_from_covers(2, [(0, 0)]) == [1, 2]


def reachability(size: int, covers: list[tuple[int, int]]) -> list[int]:
    """Bit j of row i set when j is reached from i along the covers, by a plain DFS."""
    uppers: list[list[int]] = [[] for _ in range(size)]
    for low, high in covers:
        uppers[low].append(high)
    rows = []
    for start in range(size):
        seen, stack = {start}, [start]
        while stack:
            for high in uppers[stack.pop()]:
                if high not in seen:
                    seen.add(high)
                    stack.append(high)
        rows.append(sum(1 << j for j in seen))
    return rows


@st.composite
def digraphs(draw):
    """Cover lists with any labels, repeated covers and self-loops; about half have no cycle."""
    size = draw(st.integers(0, 12))
    element = st.integers(0, max(size - 1, 0))
    covers = draw(st.lists(st.tuples(element, element), max_size=3 * size))
    if draw(st.booleans()):
        rank = draw(st.permutations(range(size)))
        covers = [(low, high) for low, high in covers if rank[low] <= rank[high]]
    return size, covers


@given(digraphs())
@example((2, [(0, 0)]))
@example((3, [(2, 1), (2, 1), (1, 0), (0, 0)]))
@example((4, [(3, 2), (2, 3), (1, 0), (0, 1)]))
def test_closure_is_reachability_and_names_the_first_mutual_pair(digraph):
    size, covers = digraph
    reach = reachability(size, covers)
    mutual = [
        (i, j)
        for i in range(size)
        for j in range(size)
        if i != j and reach[i] >> j & 1 and reach[j] >> i & 1
    ]
    if mutual:
        i, j = mutual[0]
        with pytest.raises(ValueError, match=rf"^cycle through elements {i} and {j}$"):
            oracle.closure_from_covers(size, covers)
    else:
        assert oracle.closure_from_covers(size, covers) == reach


def test_linear_and_census_on_chain_and_diamond():
    chain = oracle.closure_from_covers(4, [(0, 1), (1, 2), (2, 3)])
    assert oracle.oracle_is_linear(chain, 0, 3) == (True, 3)
    assert oracle.oracle_census(chain) == (4, 3, 2, 1)
    diamond = oracle.closure_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert oracle.oracle_is_linear(diamond, 0, 3) == (False, 3)
    assert oracle.oracle_census(diamond) == (4, 4)


def census_by_definition(matrix: list[int]) -> tuple[int, ...]:
    """The census counted from `oracle_is_linear` over every comparable pair."""
    lengths = [
        length
        for bottom, row in enumerate(matrix)
        for top in range(len(matrix))
        if row >> top & 1
        for linear, length in [oracle.oracle_is_linear(matrix, bottom, top)]
        if linear
    ]
    return tuple(lengths.count(k) for k in range(max(lengths, default=-1) + 1))


@st.composite
def posets(draw):
    """Random covers between the elements of a shuffled linear order."""
    order = draw(st.permutations(range(draw(st.integers(0, 12)))))
    pairs = [(order[i], order[j]) for j in range(len(order)) for i in range(j)]
    covers = [pair for pair in pairs if draw(st.booleans())]
    return len(order), covers


ANTICHAIN = (4, [])
VEE = (3, [(0, 1), (0, 2)])
CROWN = (6, [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)])
# the diamond's top fails, and the tail's top above it is skipped
TAILED_DIAMOND = (5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
# the same poset with the bottom relabelled 2, so the ids are no linear extension
TAILED_DIAMOND_RELABELLED = (5, [(2, 0), (2, 1), (0, 3), (1, 3), (3, 4)])


@given(posets())
@example(ANTICHAIN)
@example(VEE)
@example(CROWN)
@example(TAILED_DIAMOND)
@example(TAILED_DIAMOND_RELABELLED)
def test_census_scan_matches_the_definition_on_posets(poset):
    matrix = oracle.closure_from_covers(*poset)
    assert oracle.oracle_census(matrix) == census_by_definition(matrix)


def test_census_scan_matches_the_definition_on_every_small_lattice():
    for _, delta in all_instances(6):
        lat = build_lattice(delta)
        matrix = oracle.closure_from_covers(len(lat), [(a, b) for a, b, _ in lat.covers])
        assert oracle.oracle_census(matrix) == census_by_definition(matrix)


def test_comparable_pair_totals_match_census():
    # the figure lattice: comparable pairs = sum over linear and non-linear
    from alttamari import IncrementVector, LatticePath

    nu = LatticePath("ENEEN")
    lat = build_lattice(IncrementVector((1, 0), nu))
    matrix = oracle.closure_from_covers(len(lat), [(a, b) for a, b, _ in lat.covers])
    assert oracle.oracle_census(matrix) == (7, 8, 4, 1)
    comparable = sum(row.bit_count() for row in matrix)
    linear_total = sum(oracle.oracle_census(matrix))
    assert comparable >= linear_total


def test_meet_join_scan_none_when_missing():
    # two incomparable maxima: no join
    vee = oracle.closure_from_covers(3, [(0, 1), (0, 2)])
    assert oracle.oracle_join(vee, 1, 2) is None
    assert oracle.oracle_meet(vee, 1, 2) == 0


def test_marked_counts_examples():
    assert oracle.dyck_marked_counts("ENEEN", 1) == (8, 8)
    left3, right3 = oracle.dyck_marked_counts("ENEENN", 3)
    assert (left3, right3) == (2, 1)
    assert oracle.dyck_marked_counts("ENEEN", 9) == (0, 0)
    with pytest.raises(ValueError):
        oracle.dyck_marked_counts("ENEEN", 0)


def test_word_form_detectors():
    assert oracle.dyck_left_form("EEN", "NEE", 2)
    assert not oracle.dyck_left_form("EEN", "NEE", 1)
    assert oracle.dyck_right_form("ENN", "NNE", 2)
    assert oracle.dyck_right_form("ENEEN", "ENENE", 1)  # covers flip both ways
    assert not oracle.dyck_right_form("ENEEN", "NEEEN", 2)
    # over maximal increments the excursion forms take the whole block along
    assert oracle.rotation_left_form("ENEEN", "NEEEN", 1, (2, 0))
    assert oracle.rotation_right_form("ENEEN", "NEEEN", 1, (2, 0))


def test_naive_rotation_example():
    rotations = oracle.naive_rotations("ENEEN", (1, 0))
    assert rotations == [(0, "NEEEN"), (1, "ENENE")]
