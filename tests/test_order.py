import gc
import itertools
import json
import sys
import tracemalloc

import pytest

from alttamari import (
    ContractError,
    IncrementVector,
    LatticePath,
    LatticeLawError,
    build_lattice,
    build_region,
    enumerate_nu_paths,
    extension_check,
    increment_box,
    left_intervals_from,
    right_intervals_to,
    right_flushing,
    transport_left_interval,
    transport_right_interval,
)
from alttamari import oracle, order
from alttamari.order import NON_LINEAR, LEFT, RIGHT, TRIVIAL, apply_horizontal, apply_vertical
from alttamari.paths import excursion_ends
from alttamari.vectors import reduced_column_vector

from conftest import all_base_paths, all_instances, transpose


def lattice_of(word, entries):
    nu = LatticePath(word)
    return build_lattice(IncrementVector(entries, nu))


def test_build_examples():
    for entries in [(0, 0), (1, 0), (2, 0)]:
        lat = lattice_of("ENEEN", entries)
        assert len(lat) == 7
        assert len(lat.covers) == 8
    for entries in [(0, 0, 0), (1, 0, 0), (2, 0, 0)]:
        lat = lattice_of("ENEENN", entries)
        assert len(lat) == 16
        assert len(lat.covers) == 24
    tiny = lattice_of("EEE", ())
    assert len(tiny) == 1 and not tiny.covers


def test_census_examples():
    assert lattice_of("ENEEN", (1, 0)).census().totals == (7, 8, 4, 1)
    assert lattice_of("ENEENN", (2, 0, 0)).census().totals == (16, 24, 16, 3)
    assert lattice_of("E", ()).census().totals == (1,)


def test_census_breakdown():
    census = lattice_of("ENEEN", (2, 0)).census()
    assert census.left == (8, 3, 1)
    assert census.right == (8, 1)


def test_bounds_and_idempotence():
    lat = lattice_of("ENEEN", (1, 0))
    assert lat.elements[lat.bottom] == (1, 2, 0)
    assert lat.elements[lat.top] == (0, 0, 3)
    for x in range(len(lat)):
        assert lat.meet(x, x) == x
        assert lat.join(x, x) == x
        assert lat.meet(lat.bottom, x) == lat.bottom
        assert lat.join(x, lat.top) == lat.top


def test_meet_join_against_oracle_scan():
    for nu, delta in all_instances(5):
        lat = build_lattice(delta)
        matrix = oracle.closure_from_covers(len(lat), [(a, b) for a, b, _ in lat.covers])
        for a in range(len(lat)):
            for b in range(a, len(lat)):
                assert lat.meet(a, b) == oracle.oracle_meet(matrix, a, b)
                assert lat.join(a, b) == oracle.oracle_join(matrix, a, b)


def poset_from_covers(size, covers):
    """A FiniteLattice over ids 0..size-1 ordered by the given covers, with no delta."""
    poset = order.FiniteLattice.__new__(order.FiniteLattice)
    poset.upper_covers = [[high for low, high in covers if low == i] for i in range(size)]
    poset.down = order.down_closure(poset.upper_covers)
    assert poset.down == transpose(oracle.closure_from_covers(size, covers))
    return poset


@pytest.mark.parametrize(
    "size, covers, message",
    [
        # every two elements meet, but the two maxima have no join: only the top check sees it
        (3, [(0, 1), (0, 2)], "element 2 is not above every element: no top"),
        # 3 and 4 are each above both 1 and 2, so their common lower bounds have two maxima
        (6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)],
         "elements 3 and 4 have no meet"),
        # two minima under a top: their common lower bounds are empty
        (3, [(0, 2), (1, 2)], "elements 0 and 1 have no meet"),
    ],
)
def test_lattice_laws_reject_non_lattices(size, covers, message):
    poset = poset_from_covers(size, covers)
    with pytest.raises(LatticeLawError, match=message):
        poset.check_lattice_laws()


def test_lattice_laws_accept_a_lattice_rebuilt_from_its_covers():
    lat = lattice_of("ENEENN", (2, 0, 0))
    poset = poset_from_covers(len(lat), [(a, b) for a, b, _ in lat.covers])
    assert poset.check_lattice_laws() == len(lat) * (len(lat) - 1) // 2


def assert_closures_match_the_oracle(lat):
    matrix = oracle.closure_from_covers(len(lat), [(a, b) for a, b, _ in lat.covers])
    assert lat.down == transpose(matrix)


def test_closures_match_the_oracle():
    for nu, delta in all_instances(7):
        assert_closures_match_the_oracle(build_lattice(delta))


def test_closure_build_leaves_little_transient_memory():
    # (NE)^9 with maximal delta: 4,862 elements.  Building the closure
    # from cover lists allocates little beyond the rows it keeps.
    delta = IncrementVector.maximal(LatticePath("NE" * 9))
    order._skeleton.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        lat = build_lattice(delta)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lat) == 4862
    closure_bytes = sum(map(sys.getsizeof, lat.down))
    assert peak - held < closure_bytes / 2, (peak - held, closure_bytes)


def test_dyck_meet_join_is_pointwise_extremum():
    # in the valley-flip order, meets take pointwise maxima of the east
    # prefix vectors and joins pointwise minima
    for nu in all_base_paths(6):
        lat = build_lattice(IncrementVector.zero(nu))
        prefixes = [tuple(itertools.accumulate(mu)) for mu in lat.elements]
        index = {p: i for i, p in enumerate(prefixes)}
        for a in range(len(lat)):
            for b in range(len(lat)):
                lower = tuple(max(x, y) for x, y in zip(prefixes[a], prefixes[b]))
                upper = tuple(min(x, y) for x, y in zip(prefixes[a], prefixes[b]))
                assert lat.meet(a, b) == index[lower]
                assert lat.join(a, b) == index[upper]


def test_covers_match_naive_rotations():
    # ids looked up by word, ordinals as the oracle numbers the valleys
    for nu, delta in all_instances(6):
        lat = build_lattice(delta)
        words = [LatticePath.from_composition(mu).word for mu in lat.elements]
        ids = {word: i for i, word in enumerate(words)}
        expected = sorted(
            (low, ids[rotated], ordinal)
            for low, word in enumerate(words)
            for ordinal, rotated in oracle.naive_rotations(word, delta.entries)
        )
        assert lat.covers == tuple(expected), (nu.word, delta.entries)


def test_census_derives_neither_cover_triples_nor_trees():
    lat = lattice_of("ENEENN", (1, 0, 0))
    assert lat.census().totals == (16, 24, 16, 3)
    assert not {"covers", "trees", "region", "nu"} & set(vars(lat))
    assert sum(map(len, lat.upper_covers)) == len(lat.covers) == 24
    assert "covers" in vars(lat)


def test_lattices_of_one_nu_share_one_skeleton():
    # every delta of nu orders the same paths; a lattice keeps one closure
    def parts(lat):
        return lat.elements, lat.upper_covers, lat.down

    cold = {}
    for nu, delta in all_instances(6):
        order._skeleton.cache_clear()
        lat = build_lattice(delta)
        assert not hasattr(lat, "up")
        cold[nu, delta.entries] = parts(lat)
        assert parts(build_lattice(delta)) == cold[nu, delta.entries]
    bases = list(all_base_paths(6))
    for a, b in zip(bases, bases[1:]):
        for nu in (a, b, a):
            lattices = [build_lattice(delta) for delta in increment_box(nu)]
            for lat in lattices:
                assert parts(lat) == cold[nu, lat.delta.entries]
                assert lat.elements is lattices[0].elements


def test_covers_form_the_transitive_reduction():
    # no rotation edge is implied by the others
    for nu, delta in all_instances(6):
        lat = build_lattice(delta)
        edges = {(low, high) for low, high, _ in lat.covers}
        for low, high in edges:
            via = any(
                (low, mid) in edges and lat.leq(mid, high)
                for mid in range(len(lat))
                if mid not in (low, high)
            )
            assert not via, (nu.word, delta.entries, low, high)


def test_left_interval_witnesses(eneen):
    region = build_region(IncrementVector((2, 0), eneen))
    tree = right_flushing(eneen.composition, region)  # row vector (1,2,0)
    assert len(left_intervals_from(tree, 1)) == 2
    assert len(left_intervals_from(tree, 2)) == 1
    assert left_intervals_from(tree, 3) == []
    with pytest.raises(ContractError):
        left_intervals_from(tree, 0)


def test_right_interval_witnesses(eneen):
    region = build_region(IncrementVector((2, 0), eneen))
    tree = right_flushing((1, 1, 1), region)
    # reduced column vector (0,1,0): one vertical run of length 1
    ells = right_intervals_to(tree, 1)
    assert len(ells) == 1
    assert right_intervals_to(tree, 2) == []


def test_witness_counts_match_formulas_and_apply():
    for nu, delta in all_instances(5):
        lat = build_lattice(delta)
        for i, tree in enumerate(lat.trees):
            comp = lat.elements[i]
            reduced = reduced_column_vector(tree)
            longest = max([0, *comp[: nu.n], *reduced])
            for ell in range(1, longest + 1):
                lefts = left_intervals_from(tree, ell)
                assert len(lefts) == sum(1 for r in comp[: nu.n] if r >= ell)
                rights = right_intervals_to(tree, ell)
                assert len(rights) == sum(1 for c in reduced if c >= ell)
                for witness in lefts:
                    top = lat.tree_id(apply_horizontal(tree, witness))
                    linear, length = lat.is_linear(i, top)
                    assert linear and length == ell
                for witness in rights:
                    bottom = lat.tree_id(apply_vertical(tree, witness))
                    linear, length = lat.is_linear(bottom, i)
                    assert linear and length == ell


def linear_pairs_by_length(lat) -> dict[int, set[tuple[int, int]]]:
    """The non-trivial linear intervals the closure scan finds, by length."""
    matrix = oracle.closure_from_covers(len(lat), [(a, b) for a, b, _ in lat.covers])
    by_scan: dict[int, set[tuple[int, int]]] = {}
    for a in range(len(lat)):
        for b in range(len(lat)):
            if matrix[a] >> b & 1 and a != b:
                linear, length = oracle.oracle_is_linear(matrix, a, b)
                if linear:
                    by_scan.setdefault(length, set()).add((a, b))
    return by_scan


def assert_families_split(by_scan, lefts, rights):
    # for every length >= 2 the left and right families are disjoint and
    # together exhaust the linear intervals the closure scan finds
    for length in set(by_scan) | set(lefts) | set(rights):
        pairs = by_scan.get(length, set())
        left, right = lefts.get(length, set()), rights.get(length, set())
        assert left | right == pairs
        if length >= 2:
            assert not left & right
        else:
            assert left == right == pairs


def test_census_decomposition_families():
    for nu, delta in all_instances(5):
        lat = build_lattice(delta)
        by_scan = linear_pairs_by_length(lat)
        lefts: dict[int, set[tuple[int, int]]] = {}
        rights: dict[int, set[tuple[int, int]]] = {}
        for length in by_scan:
            for i, tree in enumerate(lat.trees):
                for witness in left_intervals_from(tree, length):
                    lefts.setdefault(length, set()).add((i, lat.tree_id(apply_horizontal(tree, witness))))
                for witness in right_intervals_to(tree, length):
                    rights.setdefault(length, set()).add((lat.tree_id(apply_vertical(tree, witness)), i))
        assert_families_split(by_scan, lefts, rights)


def moved(mu: tuple[int, ...], row: int, end: int, steps: int) -> tuple[int, ...]:
    """mu with ``steps`` east steps moved from ``row`` up to ``end``."""
    out = list(mu)
    out[row] -= steps
    out[end] += steps
    return tuple(out)


def test_path_families_are_the_linear_intervals():
    # left: l east steps of a valley row move to the end of the excursion
    # after it; right: one east step moves past l consecutive excursions
    for nu, delta in all_instances(6):
        lat = build_lattice(delta)
        lefts: dict[int, set[tuple[int, int]]] = {}
        rights: dict[int, set[tuple[int, int]]] = {}
        for i, mu in enumerate(lat.elements):
            for y in range(nu.n):
                if not mu[y]:
                    continue
                ends = excursion_ends(mu, delta, y)
                for length in range(1, mu[y] + 1):
                    top = lat.element_id(moved(mu, y, ends[0], length))
                    lefts.setdefault(length, set()).add((i, top))
                for length, end in enumerate(ends, start=1):
                    top = lat.element_id(moved(mu, y, end, 1))
                    rights.setdefault(length, set()).add((i, top))
        assert_families_split(linear_pairs_by_length(lat), lefts, rights)


def test_classify_examples(eneen):
    lat = lattice_of("ENEEN", (2, 0))
    rec = lat.classify(lat.element_id((0, 3, 0)), lat.element_id((0, 0, 3)))
    assert rec.kind == LEFT and rec.length == 3 and not rec.also_right
    rec = lat.classify(lat.bottom, lat.bottom)
    assert rec.kind == TRIVIAL and rec.length == 0
    rec = lat.classify(lat.bottom, lat.top)
    assert rec.kind == NON_LINEAR
    cover = lat.covers[0]
    rec = lat.classify(cover[0], cover[1])
    assert rec.kind == LEFT and rec.also_right and rec.length == 1
    with pytest.raises(ContractError):
        lat.classify(lat.top, lat.bottom)
    big = lattice_of("ENEENN", (1, 0, 0))
    assert big.classify(big.bottom, big.top).kind == NON_LINEAR


def test_classification_matches_word_rewrites_for_zero_increments():
    # valley-flip lattices: left intervals rewrite E^k N -> N E^k, right
    # intervals rewrite E N^k -> N^k E
    for nu in all_base_paths(6):
        lat = build_lattice(IncrementVector.zero(nu))
        for a in range(len(lat)):
            for b in range(len(lat)):
                if a != b and lat.leq(a, b):
                    rec = lat.classify(a, b)
                    if rec.kind == NON_LINEAR:
                        continue
                    bottom = LatticePath.from_composition(lat.elements[a]).word
                    top = LatticePath.from_composition(lat.elements[b]).word
                    expect_left = rec.kind == LEFT
                    expect_right = rec.kind == RIGHT or rec.also_right
                    assert oracle.dyck_left_form(bottom, top, rec.length) == expect_left
                    assert oracle.dyck_right_form(bottom, top, rec.length) == expect_right


def test_classification_matches_excursion_rewrites_for_maximal_increments():
    for nu in all_base_paths(6):
        delta = IncrementVector.maximal(nu)
        lat = build_lattice(delta)
        for a in range(len(lat)):
            for b in range(len(lat)):
                if a != b and lat.leq(a, b):
                    rec = lat.classify(a, b)
                    if rec.kind == NON_LINEAR:
                        continue
                    bottom = LatticePath.from_composition(lat.elements[a]).word
                    top = LatticePath.from_composition(lat.elements[b]).word
                    expect_left = rec.kind == LEFT
                    expect_right = rec.kind == RIGHT or rec.also_right
                    got_left = oracle.rotation_left_form(bottom, top, rec.length, delta.entries)
                    got_right = oracle.rotation_right_form(bottom, top, rec.length, delta.entries)
                    assert got_left == expect_left
                    assert got_right == expect_right


def test_extension_examples(eneen):
    d0 = IncrementVector.zero(eneen)
    d2 = IncrementVector((2, 0), eneen)
    assert extension_check(d0, d2) > 0
    assert extension_check(d2, d2) > 0
    with pytest.raises(ContractError):
        extension_check(d2, d0)


def test_extension_holds_for_all_comparable_pairs():
    for nu in all_base_paths(6):
        deltas = list(increment_box(nu))
        for d1, d2 in itertools.combinations(deltas, 2):
            lo, hi = (d1, d2) if all(a <= b for a, b in zip(d1.entries, d2.entries)) else (d2, d1)
            if all(a <= b for a, b in zip(lo.entries, hi.entries)):
                extension_check(lo, hi)


def test_json_export_round_trip():
    lat = lattice_of("ENEEN", (0, 0))
    doc = json.loads(json.dumps(lat.to_json_dict()))
    assert doc["nu"] == "ENEEN"
    assert doc["delta"] == [0, 0]
    assert len(doc["elements"]) == 7
    assert doc["elements"][0] == {"id": 0, "path": "ENEEN"}
    assert len(doc["covers"]) == 8
    assert doc["linear_counts"] == [7, 8, 4, 1]
    assert doc["covers"] == sorted(doc["covers"])


def test_dot_export_is_deterministic():
    lat1 = lattice_of("ENEENN", (1, 0, 0))
    lat2 = lattice_of("ENEENN", (1, 0, 0))
    dot = lat1.to_dot()
    assert dot == lat2.to_dot()
    assert dot.startswith("digraph") and dot.count("->") == 24
    assert 'n0 [label="1,2,0,0"];' in dot


def _transport_a_cover(transport, delta2):
    lattice = build_lattice(IncrementVector.maximal(LatticePath("ENEEN")))
    low, high, _ = lattice.covers[0]
    return transport(lattice.trees[low], lattice.trees[high], delta2)


@pytest.mark.parametrize(
    "call",
    [
        lambda nu, delta: extension_check(delta, IncrementVector.maximal(nu)),
        lambda nu, delta: extension_check(IncrementVector.zero(nu), delta),
        lambda nu, delta: _transport_a_cover(transport_left_interval, delta),
        lambda nu, delta: _transport_a_cover(transport_right_interval, delta),
    ],
    ids=["extension_delta", "extension_delta2", "transport_left", "transport_right"],
)
def test_an_increment_vector_of_another_nu_is_refused(call):
    # delta carries its nu; a pair of increment vectors over two nu with the
    # same number of north steps must still be refused, not compared entrywise
    nu, other = LatticePath("ENEEN"), LatticePath("NEENE")
    with pytest.raises(ContractError, match="'NEENE'"):
        call(nu, IncrementVector((0, 0), other))
