"""The row-by-row census and the delta-free census against path enumeration, the
oracle's word rewrites, the closed right-interval formula and each other past enumeration."""

import random
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alttamari import ContractError, IncrementVector, LatticePath, enumerate_nu_paths, increment_box
from alttamari import counting
from alttamari.counting import (
    _right_row,
    _rows,
    _trim,
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
from alttamari.paths import reverse_path
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


def per_delta_walk(delta: IncrementVector) -> tuple[int, ...]:
    """The right histogram of delta by a fold of ``_right_row`` over its rows alone."""
    rows = _rows(delta.nu)
    state = _right_row(rows, 0, 0, {}, (0,) * (delta.nu.n + 1))
    for k, d in enumerate(delta.entries, start=1):
        state = _right_row(rows, k, d, *state)
    return _trim(list(state[1]))


def test_right_histograms_match_the_per_delta_walk_up_to_size_8():
    # the whole box in box order, then sorted seeded samples, which share fewer rows,
    # then shuffled ones, where a delta may share more rows with the next than the last
    rng = random.Random(2305)
    for nu in all_base_paths(8):
        box = list(increment_box(nu))
        walked = [(delta, per_delta_walk(delta)) for delta in box]
        assert list(right_histograms(nu, box)) == walked, nu.word
        assert {rights for _, rights in walked} == {delta_free_histogram(nu)}, nu.word
        for sample in (2, 3, 5):
            picked = sorted(rng.sample(range(len(box)), min(sample, len(box))))
            deltas = [box[i] for i in picked]
            assert list(right_histograms(nu, deltas)) == [walked[i] for i in picked], nu.word
        rng.shuffle(walked)
        assert list(right_histograms(nu, [delta for delta, _ in walked])) == walked, nu.word


class _Rights(list):
    """Right entries that a weak reference can watch."""


def shared_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def test_right_histograms_keep_only_the_states_the_next_delta_reuses(monkeypatch):
    watches = []

    def watched(*args):
        walks, rights = _right_row(*args)
        rights = _Rights(rights)
        watches.append(weakref.ref(rights))
        return walks, rights

    def alive() -> int:
        return sum(watch() is not None for watch in watches)

    monkeypatch.setattr(counting, "_right_row", watched)
    nu = LatticePath("NE" * 8)
    box = list(increment_box(nu))
    for deltas in ([box[-1]], box[:200]):
        following = [delta.entries for delta in deltas[1:]] + [()]
        for (delta, _), ahead in zip(right_histograms(nu, deltas), following):
            # the states up to the row the next walk starts from, and the last one
            assert alive() <= shared_prefix(delta.entries, ahead) + 2, delta.entries


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
def long_instances(draw, shortest: int, longest: int):
    size = draw(st.integers(shortest, longest))
    nu = LatticePath(draw(st.text(alphabet="NE", min_size=size, max_size=size)))
    entries = tuple(draw(st.integers(0, c)) for c in nu.composition[1:])
    return IncrementVector(entries, nu)


@settings(max_examples=60, deadline=None)
@given(long_instances(15, 60))
def test_census_for_meets_the_delta_free_census_on_any_base_past_enumeration(delta):
    # bases of 15 to 60 steps of any shape, most with far too many paths to list
    reference = census_by_paths(delta.nu)
    assert census_for(delta) == reference
    assert reference.totals[0] == count_paths_above(delta.nu.word)


@settings(max_examples=25, deadline=None)
@given(long_instances(20, 120))
def test_census_for_swaps_left_and_right_with_the_reversed_base(delta):
    # reversal turns each factor E N^k of a path into E^k N, so the right counts of the
    # row walk must equal the plain left counts of the reversed base, and the other way
    reversed_census = census_by_paths(reverse_path(delta.nu))
    census = census_for(delta)
    assert census.right == reversed_census.left
    assert census.left == reversed_census.right
