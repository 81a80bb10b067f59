import pytest
from hypothesis import given
from hypothesis import strategies as st

from alttamari import (
    ContractError,
    IncrementVector,
    LatticePath,
    PathSyntaxError,
    ambient_base,
    delta_rotate,
    enumerate_nu_paths,
    increment_box,
    parse_increments,
    parse_path,
    reverse_path,
    valleys,
)
from alttamari.oracle import count_paths_above, naive_rotations
from alttamari.paths import box_size, box_vector, excursion_ends, is_weakly_above

from conftest import all_base_paths

words = st.text(alphabet="NE", max_size=10)


def test_parse_examples():
    assert parse_path("ENEENNENEEE").composition == (1, 2, 0, 1, 3)
    assert parse_path("ENEENN").composition == (1, 2, 0, 0)
    empty = parse_path("")
    assert empty.composition == (0,)
    assert (empty.m, empty.n) == (0, 0)


def test_parse_composition_literals():
    assert parse_path("1,2,0,0").word == "ENEENN"
    assert parse_path("0").word == ""
    assert parse_path("3").word == "EEE"


def test_parse_rejects_bad_characters():
    with pytest.raises(PathSyntaxError, match="position 2"):
        parse_path("ENXEN")
    with pytest.raises(PathSyntaxError, match="index 1"):
        parse_path("1,x,0")


@given(words)
def test_word_composition_round_trip(word):
    path = LatticePath(word)
    assert LatticePath.from_composition(path.composition).word == word


@given(words)
def test_reverse_is_involution(word):
    path = LatticePath(word)
    rev = reverse_path(path)
    assert (rev.m, rev.n) == (path.n, path.m)
    assert reverse_path(rev) == path


def test_reverse_examples():
    assert reverse_path(LatticePath("ENEEN")).word == "ENNEN"
    assert reverse_path(LatticePath("ENEEN")).composition == (1, 0, 1, 0)
    assert reverse_path(LatticePath("NENENE")).word == "NENENE"
    assert reverse_path(LatticePath("EEE")).word == "NNN"
    assert reverse_path(LatticePath("EEE")).composition == (0, 0, 0, 0)


def test_enumeration_counts_and_order(eneen):
    paths = enumerate_nu_paths(eneen)
    assert len(paths) == 7
    comps = list(paths)
    assert comps[0] == (1, 2, 0)  # the base path comes first
    assert comps[-1] == (0, 0, 3)  # the top path comes last
    assert comps == sorted(comps, reverse=True)
    assert len(enumerate_nu_paths(LatticePath("ENEENN"))) == 16
    assert len(enumerate_nu_paths(LatticePath("EEEE"))) == 1


@given(words)
def test_enumeration_matches_ballot_count(word):
    nu = LatticePath(word)
    assert len(enumerate_nu_paths(nu)) == count_paths_above(word)


def test_increment_vector_bounds(eneen):
    with pytest.raises(ContractError, match="delta_1"):
        IncrementVector((3, 0), eneen)
    with pytest.raises(ContractError, match="delta_2"):
        IncrementVector((1, 1), eneen)
    with pytest.raises(ContractError, match="entries"):
        IncrementVector((1,), eneen)
    assert IncrementVector.maximal(eneen).entries == (2, 0)
    assert IncrementVector.zero(eneen).entries == (0, 0)
    assert parse_increments("1,0", eneen).entries == (1, 0)
    assert parse_increments("", LatticePath("EE")).entries == ()


def test_increment_box(eneen):
    box = [d.entries for d in increment_box(eneen)]
    assert box == [(0, 0), (1, 0), (2, 0)]
    assert [d.entries for d in increment_box(LatticePath("EEE"))] == [()]
    # two non-trivial entries, the last one fastest: (0..1) x (0..2) x {0}
    box = [d.entries for d in increment_box(LatticePath("NENEEN"))]
    assert box == [(0, 0, 0), (0, 1, 0), (0, 2, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)]
    for nu in all_base_paths(6):
        for index in (-1, box_size(nu)):
            with pytest.raises(ContractError, match="box index"):
                box_vector(nu, index)


def test_increment_box_runs_in_box_vector_order_up_to_size_8():
    for nu in all_base_paths(8):
        box = list(increment_box(nu))
        assert box_size(nu) == len(box)
        assert box == [box_vector(nu, i) for i in range(len(box))], nu.word


def test_weakly_above_needs_prefix_bounds_and_end_points(eneen):
    nu = eneen.composition
    assert is_weakly_above((1, 2, 0), nu) and is_weakly_above((0, 0, 3), nu)
    assert not is_weakly_above((2, 1, 0), nu)  # below nu
    assert not is_weakly_above(LatticePath("EN").composition, nu)  # ends at (1, 1)
    assert not is_weakly_above((1, 1, 0), nu)  # ends at (2, 2)
    assert not is_weakly_above((1, 2, 0, 0), nu)  # ends at (3, 3)
    assert not is_weakly_above((-1, 4, 0), nu)  # a negative run


def _area_below(path: LatticePath) -> int:
    """Boxes between the path and the south-east corner of its bounding rectangle."""
    return sum(path.m - p for p in path.east_prefixes[:-1])


def _rotated_path(mu: tuple[int, ...], delta: IncrementVector, row: int) -> LatticePath:
    return LatticePath.from_composition(delta_rotate(mu, delta, row))


def test_rotation_examples(eneen):
    rows = valleys(eneen.composition)
    assert rows == [0, 1]  # ENEEN: the valleys end rows 0 and 1
    assert [sum(eneen.composition[: y + 1]) + y - 1 for y in rows] == [0, 3]  # east steps
    assert valleys((0, 3, 0)) == [1]  # NEEEN: no east step before the first north step
    assert valleys((1, 2)) == [0]  # the last row never ends in a valley
    d10 = IncrementVector((1, 0), eneen)
    assert delta_rotate(eneen.composition, d10, rows[0]) == (0, 3, 0)
    assert delta_rotate(eneen.composition, d10, rows[1]) == (1, 1, 1)
    d00 = IncrementVector((0, 0), eneen)
    assert delta_rotate(eneen.composition, d00, rows[0]) == (0, 3, 0)


def refused(call, *args) -> str:
    """The message of the ContractError that call(*args) raises."""
    with pytest.raises(ContractError) as err:
        call(*args)
    return str(err.value)


def test_rotation_rejects_non_valley(eneen):
    # excursion_ends has the domain of delta_rotate, which checks it for both
    d10 = IncrementVector((1, 0), eneen)
    for walk in (delta_rotate, excursion_ends):
        # the last row ends the path
        assert refused(walk, (1, 2, 0), d10, 2) == "the end of row 2 of (1, 2, 0) is not a valley"
        # no east step before the first north step
        assert refused(walk, (0, 3, 0), d10, 0) == "the end of row 0 of (0, 3, 0) is not a valley"


def test_rotation_rejects_compositions_outside_its_domain(eneen):
    d10 = IncrementVector((1, 0), eneen)
    for walk in (delta_rotate, excursion_ends):
        assert refused(walk, (1, 2), d10, 0) == (
            "composition (1, 2) has 2 entries, base has 2 north steps"
        )
        # below nu: the elevation stays positive
        assert refused(walk, (3, 0, 0), d10, 0) == (
            "elevation never returns to zero after row 0 of (3, 0, 0)"
        )


def test_rotation_stops_at_the_first_excursion_end():
    # delta_rotate restates the walk of excursion_ends up to its first end
    for nu in all_base_paths(7):
        for delta in increment_box(nu):
            for mu in enumerate_nu_paths(nu):
                for row in valleys(mu):
                    end = excursion_ends(mu, delta, row)[0]
                    expected = list(mu)
                    expected[row] -= 1
                    expected[end] += 1
                    assert delta_rotate(mu, delta, row) == tuple(expected)


def test_rotations_raise_area_and_stay_above():
    for nu in all_base_paths(7):
        for delta in increment_box(nu):
            for mu in enumerate_nu_paths(nu):
                for row in valleys(mu):
                    rotated = _rotated_path(mu, delta, row)
                    assert _area_below(rotated) > _area_below(LatticePath.from_composition(mu))
                    assert is_weakly_above(rotated.composition, nu.composition)


def test_zero_increments_flip_single_valley():
    for nu in all_base_paths(6):
        delta = IncrementVector.zero(nu)
        for mu in enumerate_nu_paths(nu):
            for row in valleys(mu):
                rotated = _rotated_path(mu, delta, row)
                i = sum(mu[: row + 1]) + row - 1  # the valley's east step in the word
                word = LatticePath.from_composition(mu).word
                assert rotated.word == word[:i] + "N" + "E" + word[i + 2 :]


def test_rotations_agree_with_naive_oracle():
    for nu in all_base_paths(7):
        for delta in increment_box(nu):
            for mu in enumerate_nu_paths(nu):
                expected = naive_rotations(LatticePath.from_composition(mu).word, delta.entries)
                got = [(k, _rotated_path(mu, delta, v).word) for k, v in enumerate(valleys(mu))]
                assert got == expected


def test_rotations_coincide_with_ambient_base_rotations():
    # rotating over (nu, delta) equals rotating over the ambient base with
    # its own maximal increments
    for nu in all_base_paths(6):
        for delta in increment_box(nu):
            ambient = ambient_base(delta)
            ambient_delta = IncrementVector.maximal(ambient)
            for mu in enumerate_nu_paths(nu):
                for row in valleys(mu):
                    ours = delta_rotate(mu, delta, row)
                    theirs = delta_rotate(mu, ambient_delta, row)
                    assert ours == theirs


def test_ambient_base_examples(eneen):
    assert ambient_base(IncrementVector((1, 0), eneen)).composition == (2, 1, 0)
    assert ambient_base(IncrementVector((2, 0), eneen)).composition == (1, 2, 0)
    assert ambient_base(IncrementVector((0, 0), eneen)).composition == (3, 0, 0)


def test_ambient_base_lies_below():
    for nu in all_base_paths(6):
        for delta in increment_box(nu):
            ambient = ambient_base(delta)
            assert (ambient.m, ambient.n) == (nu.m, nu.n)
            assert is_weakly_above(nu.composition, ambient.composition)
