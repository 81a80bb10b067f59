import itertools
import os
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
    enumerate_nu_paths,
    horizontal_flushing,
    increment_box,
    left_flushing,
    left_intervals_from,
    mtamari_path,
    mtamari_right_formula,
    restricted_census,
    right_flushing,
    right_intervals_to,
    transport_left_interval,
    transport_right_interval,
    verify_theorem,
    vertical_flushing,
)
from alttamari import counting, oracle
from alttamari.cli import main
from alttamari.counting import LatticeLawError, census_by_paths, census_for
from alttamari.order import Census, apply_horizontal, apply_vertical
from alttamari.paths import box_size, box_vector, is_weakly_above
from alttamari.transport import bad_bases
from alttamari.vectors import reduced_column_vector, row_vector

from conftest import all_base_paths, all_instances


def test_horizontal_flushing_figure_pair():
    nu = LatticePath.from_composition((3, 1, 0, 2, 2, 0, 3, 0))
    mu = (1, 0, 1, 1, 3, 2, 1, 2)
    dmax = IncrementVector.maximal(nu)
    d2 = IncrementVector((0, 0, 1, 2, 0, 1, 0), nu)
    source = right_flushing(mu, build_region(dmax))
    target = horizontal_flushing(source, build_region(d2))
    assert row_vector(source) == row_vector(target) == mu
    assert target.nodes == right_flushing(mu, build_region(d2)).nodes


def test_vertical_flushing_figure_pairs():
    nu = LatticePath.from_composition((3, 1, 0, 2, 2, 0, 3, 0))
    mu = (1, 0, 1, 1, 3, 2, 1, 2)
    dmax = IncrementVector.maximal(nu)
    d2 = IncrementVector((0, 0, 1, 2, 0, 1, 0), nu)
    source = right_flushing(mu, build_region(dmax))
    target = vertical_flushing(source, build_region(d2))
    expected = (0, 1, 0, 0, 0, 0, 1, 1, 0, 3, 0)
    assert reduced_column_vector(source) == expected
    assert reduced_column_vector(target) == expected
    target.validate()
    assert vertical_flushing(target, build_region(dmax)).nodes == source.nodes


def test_flushings_are_identity_for_same_increments(eneen):
    d = IncrementVector((1, 0), eneen)
    tree = right_flushing(eneen.composition, build_region(d))
    assert horizontal_flushing(tree, build_region(d)) is tree
    assert vertical_flushing(tree, build_region(d)) is tree


def test_flushings_refuse_a_region_over_another_nu(eneen):
    tree = right_flushing(eneen.composition, build_region(IncrementVector((1, 0), eneen)))
    other = LatticePath("ENEEEN")
    target = build_region(IncrementVector((1, 0), other))
    for flushing in (horizontal_flushing, vertical_flushing):
        with pytest.raises(ContractError, match="target region lies over 'ENEEEN'"):
            flushing(tree, target)


def test_flushings_are_bijections_with_inverses():
    for nu in all_base_paths(6):
        regions = {delta: build_region(delta) for delta in increment_box(nu)}
        for d1, d2 in itertools.permutations(regions, 2):
            trees = [right_flushing(mu, regions[d1]) for mu in enumerate_nu_paths(nu)]
            h_images = set()
            v_images = set()
            for tree in trees:
                h_image = horizontal_flushing(tree, regions[d2])
                assert row_vector(h_image) == row_vector(tree)
                assert horizontal_flushing(h_image, regions[d1]).nodes == tree.nodes
                h_images.add(h_image.nodes)
                v_image = vertical_flushing(tree, regions[d2])
                assert reduced_column_vector(v_image) == reduced_column_vector(tree)
                assert vertical_flushing(v_image, regions[d1]).nodes == tree.nodes
                v_images.add(v_image.nodes)
            assert len(h_images) == len(trees)
            assert len(v_images) == len(trees)


def test_transport_left_interval(eneen):
    d2 = IncrementVector((2, 0), eneen)
    d0 = IncrementVector((0, 0), eneen)
    region = build_region(d2)
    bottom = right_flushing((0, 3, 0), region)
    witness = next(iter(left_intervals_from(bottom, 3)))
    top = apply_horizontal(bottom, witness)
    bottom2, top2 = transport_left_interval(bottom, top, d0)
    assert row_vector(bottom2) == (0, 3, 0)
    lat0 = build_lattice(d0)
    linear, length = lat0.is_linear(lat0.tree_id(bottom2), lat0.tree_id(top2))
    assert linear and length == 3
    with pytest.raises(ContractError):
        transport_left_interval(bottom, bottom, d0)


def test_transport_right_interval(eneen):
    d2 = IncrementVector((2, 0), eneen)
    d1 = IncrementVector((1, 0), eneen)
    region = build_region(d2)
    top = right_flushing((0, 2, 1), region)
    witness = next(iter(right_intervals_to(top, 2)))
    bottom = apply_vertical(top, witness)
    bottom2, top2 = transport_right_interval(bottom, top, d1)
    assert reduced_column_vector(top2) == reduced_column_vector(top)
    lat1 = build_lattice(d1)
    linear, length = lat1.is_linear(lat1.tree_id(bottom2), lat1.tree_id(top2))
    assert linear and length == 2
    with pytest.raises(ContractError):
        transport_right_interval(top, top, d1)


def test_transport_preserves_per_length_counts():
    for nu in all_base_paths(5):
        deltas = list(increment_box(nu))
        censuses = [build_lattice(d).census() for d in deltas]
        assert all(c.left == censuses[0].left for c in censuses)
        assert all(c.right == censuses[0].right for c in censuses)


def test_transport_covers_map_to_covers(eneen):
    d2 = IncrementVector((2, 0), eneen)
    d0 = IncrementVector((0, 0), eneen)
    lat = build_lattice(d2)
    lat0 = build_lattice(d0)
    for low, high, _ in lat.covers:
        b2, t2 = transport_left_interval(lat.trees[low], lat.trees[high], d0)
        linear, length = lat0.is_linear(lat0.tree_id(b2), lat0.tree_id(t2))
        assert linear and length == 1


def _linear_intervals(lattice):
    """(bottom, top, row or None, length) of each linear interval of length >= 1, once.

    A left interval is a row run above its bottom tree, a right one a column
    run below its top tree; a cover is both and comes once, as a left one.
    """
    for tree in lattice.trees:
        for length in range(1, len(lattice.delta.nu.word) + 1):
            for run in left_intervals_from(tree, length):
                yield tree, apply_horizontal(tree, run), run.row, length
            for run in right_intervals_to(tree, length) if length > 1 else ():
                yield apply_vertical(tree, run), tree, None, length


def test_transport_carries_every_linear_interval_to_a_distinct_one_of_the_same_length():
    # every nu with m+n <= 6 and every ordered pair delta != delta2 of its box
    for nu in all_base_paths(6):
        lattices = {delta: build_lattice(delta) for delta in increment_box(nu)}
        intervals = {delta: list(_linear_intervals(lattice)) for delta, lattice in lattices.items()}
        for delta, lattice in lattices.items():
            assert len(intervals[delta]) == sum(lattice.census().totals[1:])
        for delta, delta2 in itertools.permutations(lattices, 2):
            target, images = lattices[delta2], set()
            for bottom, top, row, length in intervals[delta]:
                transport = transport_right_interval if row is None else transport_left_interval
                bottom2, top2 = transport(bottom, top, delta2)
                low = target.tree_id(bottom2)
                assert target.is_linear(low, target.tree_id(top2)) == (True, length)
                if row is not None:  # left transport keeps the bottom's path, the row and the length
                    assert target.elements[low] == left_flushing(bottom)
                    assert any(
                        apply_horizontal(bottom2, run).nodes == top2.nodes
                        for run in left_intervals_from(bottom2, length)
                        if run.row == row
                    )
                images.add((bottom2.nodes, top2.nodes))
            assert len(images) == len(intervals[delta])


@st.composite
def box_pairs(draw, max_size, max_elements):
    """Two increment vectors of one nu with at most max_size steps and max_elements paths."""
    words = st.text(alphabet="NE", max_size=max_size)
    nu = LatticePath(draw(words.filter(lambda word: oracle.count_paths_above(word) <= max_elements)))
    return [
        IncrementVector(tuple(draw(st.integers(0, c)) for c in nu.composition[1:]), nu)
        for _ in range(2)
    ]


@settings(max_examples=25, deadline=None)
@given(box_pairs(12, 300))
def test_transport_is_a_bijection_on_linear_intervals_past_the_exhaustive_sizes(pair):
    delta, delta2 = pair
    target = build_lattice(delta2)
    intervals = list(_linear_intervals(build_lattice(delta)))
    rights2 = Counter(
        (bottom.nodes, top.nodes, length)
        for bottom, top, row, length in _linear_intervals(target)
        if row is None
    )
    images, right_images = set(), Counter()
    for bottom, top, row, length in intervals:
        transport = transport_right_interval if row is None else transport_left_interval
        bottom2, top2 = transport(bottom, top, delta2)
        assert target.is_linear(target.tree_id(bottom2), target.tree_id(top2)) == (True, length)
        images.add((bottom2.nodes, top2.nodes))
        if row is None:
            right_images[bottom2.nodes, top2.nodes, length] += 1
    assert len(images) == len(intervals)
    # the right images of each length are the right intervals of delta2 of that length, each once
    assert right_images == rights2 and set(rights2.values()) <= {1}


def test_verify_theorem_examples(eneen):
    report = verify_theorem(eneen)
    assert report.deltas_checked == 3
    assert report.census.totals == (7, 8, 4, 1)
    assert report.all_equal
    report = verify_theorem(LatticePath("ENEENN"))
    assert report.deltas_checked == 3
    assert report.census.totals == (16, 24, 16, 3)
    report = verify_theorem(LatticePath("NENENE"))
    assert report.deltas_checked == 8  # the box {0,1}^3
    assert report.all_equal


def test_verify_theorem_sampling(eneen):
    nu = LatticePath.from_composition((0, 2, 2, 2))
    full = verify_theorem(nu)
    sampled = verify_theorem(nu, sample=4, seed=7)
    assert full.deltas_checked == 27
    assert sampled.deltas_checked == 4
    assert sampled.census == full.census
    again = verify_theorem(nu, sample=4, seed=7)
    assert again.deltas_checked == 4


@pytest.mark.parametrize("sample", [1, 0, -3])
def test_verify_theorem_refuses_samples_below_two(sample):
    with pytest.raises(ContractError, match="sample must be >= 2"):
        verify_theorem(LatticePath("NEENEENEE"), sample=sample)


def test_verify_theorem_holds_every_delta_to_the_delta_free_census(eneen, monkeypatch, capsys):
    import alttamari.transport

    expected = verify_theorem(eneen).census
    single = Census((1,), (), ())
    census_for = alttamari.transport.census_for
    right_histograms = alttamari.transport.right_histograms

    def wrong_at(*wrong):
        # at a wrong delta the row walk finds no right entry, and its census has one element
        def histograms(nu, deltas):
            for delta, rights in right_histograms(nu, deltas):
                yield delta, () if delta.entries in wrong else rights

        monkeypatch.setattr(alttamari.transport, "right_histograms", histograms)
        monkeypatch.setattr(
            alttamari.transport,
            "census_for",
            lambda delta: single if delta.entries in wrong else census_for(delta),
        )

    wrong_at(*(delta.entries for delta in increment_box(eneen)))  # wrong the same way everywhere
    assert main(["verify", "--nu", eneen.word]) == 4
    assert capsys.readouterr().out == "ENEEN: 3 deltas, census (7, 8, 4, 1), MISMATCH\n"
    for entries in [(0, 0), (2, 0)]:
        wrong_at(entries)
        report = verify_theorem(eneen)
        assert report.census == expected
        assert report.mismatches == (f"delta={entries}: {single} != {expected}",)
    # verify names the failing delta on stderr, also when a forked worker checked it
    named = f"  delta=(0, 0): {single} != {expected}\n"
    wrong_at((0, 0))
    assert main(["verify", "--nu", eneen.word]) == 4
    assert capsys.readouterr() == ("ENEEN: 3 deltas, census (7, 8, 4, 1), MISMATCH\n", named)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(["verify", "--nu", eneen.word, "--max-size", "1"]) == 4
    out, err = capsys.readouterr()
    assert err == named
    assert [line.endswith(", ok") for line in out.splitlines()] == [False, True, True, True]


def test_verify_theorem_samples_as_if_it_listed_the_box(monkeypatch):
    import alttamari.transport

    right_histograms = alttamari.transport.right_histograms
    seen = []

    def histograms(nu, deltas):
        for delta, rights in right_histograms(nu, deltas):
            seen.append(delta)
            yield delta, rights

    monkeypatch.setattr(alttamari.transport, "right_histograms", histograms)
    for nu in all_base_paths(7):
        box = list(increment_box(nu))
        for sample, seed in itertools.product((2, 3, 5), (0, 7)):
            picked = [box[i] for i in sampled_indices(len(box), sample, seed)]
            seen.clear()
            assert verify_theorem(nu, sample=sample, seed=seed).deltas_checked == len(picked)
            assert seen == picked, (nu.word, sample, seed)


def sampled_indices(size: int, sample: int, seed: int) -> list[int]:
    """The box indices a sampled ``verify_theorem`` checks, in box order."""
    if size <= sample:
        return list(range(size))
    rng = random.Random(seed)
    keep = {0, size - 1}
    while len(keep) < sample:
        keep.add(rng.randrange(size))
    return sorted(keep)


def wrong_right_row(row: int, added: bool = False):
    """``counting._right_row`` with one wrong right entry, found on ``row`` when delta_row = 1.

    One right entry 1 becomes a 2, which keeps the length-1 count; with
    ``added`` an entry 2 is added, which breaks it.
    """
    right_row = counting._right_row

    def wrong(rows, k, d, walks, rights):
        walks, rights = right_row(rows, k, d, walks, rights)
        if k == row and d == 1:
            rights = list(rights)
            rights[2] += 1
            if not added:
                rights[1] -= 1
        return walks, rights

    return wrong


@pytest.mark.parametrize("word", ["NE" * 6, "NEE" * 5])
def test_verify_names_the_deltas_a_wrong_row_breaks_after_shared_rows(word, monkeypatch, capsys):
    nu = LatticePath(word)
    box = list(increment_box(nu))
    reference = census_by_paths(nu)
    monkeypatch.setattr(counting, "_right_row", wrong_right_row(3))
    recounted = [(delta, census_for(delta)) for delta in box]
    flagged = [(delta, census) for delta, census in recounted if census != reference]
    # each delta with delta_3 = 1, also those that share rows 1..3 or more with the one before
    assert [delta for delta, _ in flagged] == [delta for delta in box if delta.entries[2] == 1]
    named = "".join(f"  delta={d.entries}: {census} != {reference}\n" for d, census in flagged)
    line = f"{word}: {len(box)} deltas, census {reference.totals}, MISMATCH\n"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["verify", "--nu", word]) == 4
    assert capsys.readouterr() == (line, named)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two forked workers
    assert main(["verify", "--nu", word, "--max-size", "1"]) == 4
    out, err = capsys.readouterr()
    assert (out.splitlines(keepends=True)[0], err) == (line, named)
    # an added entry breaks the length-1 count: the first delta flagged ends the run
    monkeypatch.setattr(counting, "_right_row", wrong_right_row(3, added=True))
    with pytest.raises(LatticeLawError) as breach:
        census_for(flagged[0][0])
    for argv, cores in ((["--nu", word], {0}), (["--nu", word, "--max-size", "1"], {0, 1})):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        assert main(["verify", *argv]) == 4
        assert capsys.readouterr() == ("", f"invariant breach: {breach.value}\n")


@st.composite
def sampled_bases(draw):
    size = draw(st.integers(15, 25))
    word = st.text(alphabet="NE", min_size=size, max_size=size)
    nu = LatticePath(draw(word.filter(lambda word: word.count("N") >= 2)))
    row = draw(st.sampled_from([k for k in range(1, nu.n + 1) if nu.composition[k]] or [1]))
    return nu, draw(st.integers(2, 8)), draw(st.integers(0, 2**32)), row


@settings(max_examples=40, deadline=None)
@given(sampled_bases())
def test_verify_theorem_verdicts_are_those_of_a_per_delta_census(case):
    nu, sample, seed, row = case
    reference = census_by_paths(nu)
    deltas = [box_vector(nu, i) for i in sampled_indices(box_size(nu), sample, seed)]
    with pytest.MonkeyPatch.context() as patch:
        for wrong in (False, True):
            if wrong:
                patch.setattr(counting, "_right_row", wrong_right_row(row))
            censuses = [(delta, census_for(delta)) for delta in deltas]
            report = verify_theorem(nu, sample=sample, seed=seed)
            assert report.deltas_checked == len(deltas)
            assert report.mismatches == tuple(
                f"delta={delta.entries}: {census} != {reference}"
                for delta, census in censuses
                if census != reference
            )


def test_verify_theorem_report_json(eneen):
    doc = verify_theorem(eneen).to_json_dict()
    assert doc == {
        "nu": "ENEEN",
        "deltas_checked": 3,
        "census": [7, 8, 4, 1],
        "left": [8, 3, 1],
        "right": [8, 1],
        "all_equal": True,
    }


def test_bad_bases_listing():
    nu = LatticePath.from_composition((1, 0, 1))
    bases = [b.composition for b in bad_bases(nu)]
    assert bases == [(1, 1, 0)]
    assert bad_bases(LatticePath("ENEEN")) == []


def test_bad_bases_match_a_filter_over_all_words():
    for nu in all_base_paths(7):
        length = nu.m + nu.n
        expected = []
        for north in itertools.combinations(range(length), nu.n):
            base = LatticePath("".join("N" if i in north else "E" for i in range(length)))
            below = all(b >= a for a, b in zip(nu.east_prefixes, base.east_prefixes))
            longer = any(b > a for a, b in zip(nu.composition[1:], base.composition[1:]))
            if below and longer:
                expected.append(base.composition)
        assert [b.composition for b in bad_bases(nu)] == sorted(expected), nu.word


def test_restricted_census_matches_the_oracle_on_bad_bases():
    # the nu-paths are an upper set of the full lattice, so the full covers
    # with both ends among them are the restriction's Hasse diagram
    pairs = 0
    for nu in all_base_paths(6):
        for base in bad_bases(nu):
            full = build_lattice(IncrementVector.maximal(base))
            members = [i for i, mu in enumerate(full.elements) if is_weakly_above(mu, nu.composition)]
            index = {i: k for k, i in enumerate(members)}
            covers = [
                (index[low], index[high])
                for low, high, _ in full.covers
                if low in index and high in index
            ]
            matrix = oracle.closure_from_covers(len(members), covers)
            report = restricted_census(nu, base)
            size = len(members)
            assert report.size == size
            minimal = sum(
                1 for k in range(size) if not any(matrix[j] >> k & 1 for j in range(size) if j != k)
            )
            assert report.minimal_elements == minimal, (nu.word, base.word)
            assert report.census.totals == oracle.oracle_census(matrix), (nu.word, base.word)
            pairs += 1
    assert pairs == 248


def test_restricted_census_witness():
    nu = LatticePath.from_composition((1, 0, 1))
    bad = LatticePath.from_composition((1, 1, 0))
    report = restricted_census(nu, bad)
    assert report.size == 3
    assert report.minimal_elements == 2
    assert report.census.totals == (3, 2)
    assert report.census.left == (2,)
    assert report.census.right == (2,)
    alt = build_lattice(IncrementVector.zero(nu)).census()
    assert alt.totals == (3, 2, 1)
    assert alt.left == report.census.left
    assert alt.right == (2, 1)


def test_restricted_census_control_case(eneen):
    # a base that satisfies the entrywise bound reproduces the alt census
    for delta in increment_box(eneen):
        from alttamari import ambient_base

        base = ambient_base(delta)
        report = restricted_census(eneen, base)
        assert report.census == build_lattice(delta).census()
        assert report.minimal_elements == 1


def test_restricted_census_rejects_non_lower_base(eneen):
    with pytest.raises(ContractError):
        restricted_census(eneen, LatticePath.from_composition((0, 3, 0)))


def test_mtamari_formula_examples():
    assert mtamari_path(2, 3).composition == (0, 2, 2, 2)
    assert mtamari_right_formula(1, 3, 1) == 5
    assert mtamari_right_formula(1, 3, 2) == 1
    assert mtamari_right_formula(1, 3, 3) == 0
    assert mtamari_right_formula(2, 4, 1) == 110
    with pytest.raises(ContractError):
        mtamari_right_formula(0, 3, 1)


def test_mtamari_formula_matches_enumeration_small():
    for parts, height in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        base = mtamari_path(parts, height)
        census = build_lattice(IncrementVector.maximal(base)).census()
        for length in range(1, height + 2):
            got = census.right[length - 1] if length <= len(census.right) else 0
            assert got == mtamari_right_formula(parts, height, length)
