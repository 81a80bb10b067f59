"""The row-by-row census and the delta-free census against path enumeration, the
oracle's word rewrites, the closed right-interval formula and each other past enumeration."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alttamari import ContractError, IncrementVector, LatticePath, enumerate_nu_paths, increment_box
from alttamari.counting import (
    _right_histogram,
    _rows,
    census_by_paths,
    census_for,
    delta_free_histogram,
    path_census,
    right_histograms,
)
from alttamari.oracle import (
    count_paths_above,
    enumerate_words_above,
    rotation_left_form,
    rotation_right_form,
)
from alttamari.transport import mtamari_path, mtamari_right_formula

from conftest import all_base_paths

MAX_SIZE = 14
MAX_PATHS = 3000


def test_census_for_matches_path_census_for_every_pair_up_to_size_8():
    pairs = 0
    for nu in all_base_paths(8):
        paths, reference = enumerate_nu_paths(nu), census_by_paths(nu)
        for delta in increment_box(nu):
            census = census_for(delta)
            assert census == path_census(paths, delta) == reference, (nu.word, delta.entries)
            pairs += 1
    assert pairs == 2584


def test_right_histograms_match_the_per_delta_walk_up_to_size_8():
    # the whole box in box order, then sorted seeded samples, which share fewer rows
    rng = random.Random(2305)
    for nu in all_base_paths(8):
        rows, box = _rows(nu), list(increment_box(nu))
        walked = [(delta, _right_histogram(rows, delta.entries)) for delta in box]
        assert list(right_histograms(nu, box)) == walked, nu.word
        assert {rights for _, rights in walked} == {delta_free_histogram(nu)}, nu.word
        for sample in (2, 3, 5):
            picked = sorted(rng.sample(range(len(box)), min(sample, len(box))))
            deltas = [box[i] for i in picked]
            assert list(right_histograms(nu, deltas)) == [walked[i] for i in picked], nu.word


def test_right_histograms_refuse_a_delta_over_another_nu(eneen):
    other = IncrementVector.zero(LatticePath("ENEEEN"))
    with pytest.raises(ContractError, match="over 'ENEEEN', not 'ENEEN'"):
        list(right_histograms(eneen, [IncrementVector.zero(eneen), other]))


@st.composite
def instances(draw):
    words = st.text(alphabet="NE", max_size=MAX_SIZE)
    nu = LatticePath(draw(words.filter(lambda word: count_paths_above(word) <= MAX_PATHS)))
    entries = tuple(draw(st.integers(0, c)) for c in nu.composition[1:])
    return IncrementVector(entries, nu)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_census_for_matches_path_census_for_random_increments(delta):
    census = census_for(delta)
    assert census == path_census(enumerate_nu_paths(delta.nu), delta) == census_by_paths(delta.nu)


def counts_by_length(words: list[str], form, increments: tuple[int, ...]) -> tuple[int, ...]:
    """How many (bottom, top) word pairs ``form`` accepts, by length from 1 until none."""
    counts = []
    for length in range(1, max(map(len, words)) + 1):
        found = sum(form(bottom, top, length, increments) for bottom, top in product(words, words))
        if not found:
            break
        counts.append(found)
    return tuple(counts)


def test_census_for_matches_the_oracle_excursion_rewrites():
    # the row walk restates the excursion rule; the oracle walks altitudes on words
    for nu in all_base_paths(6):
        words, reference = enumerate_words_above(nu.word), census_by_paths(nu)
        for delta in increment_box(nu):
            census = census_for(delta)
            where = (nu.word, delta.entries)
            assert census.left == counts_by_length(words, rotation_left_form, delta.entries), where
            assert census.right == counts_by_length(words, rotation_right_form, delta.entries), where
            assert census.totals[0] == len(words)
            assert census == reference, where


def test_census_for_meets_the_right_formula_past_enumeration():
    # (N E^m)^n bases of up to 60 steps, with up to 3.8 * 10^15 paths: far past enumeration
    rng = random.Random(2305)
    for parts, height in [(1, 30), (2, 20), (3, 15), (5, 10), (11, 5), (29, 2)]:
        base = mtamari_path(parts, height)
        expected = tuple(mtamari_right_formula(parts, height, k) for k in range(1, height))
        reference = census_by_paths(base)
        assert reference.right == expected, (parts, height)
        assert reference.totals[0] == count_paths_above(base.word)
        for entries in (base.composition[1:], tuple(rng.randint(0, parts) for _ in range(height))):
            census = census_for(IncrementVector(entries, base))
            assert census == reference, (parts, height, entries)


@st.composite
def long_instances(draw):
    size = draw(st.integers(15, 60))
    nu = LatticePath(draw(st.text(alphabet="NE", min_size=size, max_size=size)))
    entries = tuple(draw(st.integers(0, c)) for c in nu.composition[1:])
    return IncrementVector(entries, nu)


@settings(max_examples=60, deadline=None)
@given(long_instances())
def test_census_for_meets_the_delta_free_census_on_any_base_past_enumeration(delta):
    # bases of 15 to 60 steps of any shape, most with far too many paths to list
    reference = census_by_paths(delta.nu)
    assert census_for(delta) == reference
    assert reference.totals[0] == count_paths_above(delta.nu.word)
