"""Derivations and prefix degrees.

A word's prefix degrees d_1 = e, d_{i+1} = d_i * deg(w_i) (with the end
degree d_{q+1} last) fix its generic evaluation together with its letters.
Both swap rules keep every letter's prefix degree, so `derive_equivalence`
carries each word's degree list through its steps (`_swap`) and checks
each step it builds in degree form (`_degrees_allow`) instead of
recomputing degrees.  These tests check both against `apply_step`, and pin
its derivations to the oracle that recovers every step's letter matching
from compared evaluations, on words whose (letter, prefix degree) pairs
repeat.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from matident import GVar
from matident.freealg import word_degree
from matident.generic import prefix_degrees
from matident.rewrite import (
    CONJUGATE_SWAP,
    NEUTRAL_SWAP,
    RewriteStep,
    StepError,
    _degrees_allow,
    _swap,
    apply_step,
    derive_equivalence,
)

from helpers import (
    derive_equivalence_stepwise,
    partial_cayley_gradings,
    random_swappable_word,
    random_word,
    suite_gradings,
    valid_rewrite_steps,
)

GRADINGS = suite_gradings()


def _two_row_walk(rng, grading, length):
    """A row walk between two rows: its blocks alternate between two
    degrees and their inverses, so both swap rules apply often."""
    rows = rng.sample(range(1, grading.n + 1), 2)
    walk = [rng.choice(rows) for _ in range(length + 1)]
    return tuple(GVar(grading.unit_degree(a, b), rng.randint(1, 2)) for a, b in zip(walk, walk[1:]))


def _words(rng, grading, count):
    """Short words of any evaluation from a small letter pool, and two
    kinds of walks that admit many swaps."""
    for _ in range(count):
        yield random_word(rng, grading, 6, index_pool=2)
        yield random_swappable_word(rng, grading, index_pool=2)
        yield _two_row_walk(rng, grading, 7)


def test_prefix_degrees_are_the_degrees_of_the_prefixes():
    rng = random.Random(2019)
    for grading in GRADINGS + partial_cayley_gradings():
        group = grading.group
        for word in _words(rng, grading, 4):
            expected = [word_degree(group, word[:i]) for i in range(len(word) + 1)]
            assert prefix_degrees(group, word) == expected


def test_swaps_move_prefix_degrees_with_their_letters():
    rng = random.Random(2020)
    swaps = 0
    for grading in GRADINGS + partial_cayley_gradings():
        group = grading.group
        for word in _words(rng, grading, 8):
            before = prefix_degrees(group, word)
            for step in valid_rewrite_steps(group, word):
                assert prefix_degrees(group, apply_step(group, word, step)) == _swap(before, step)
                swaps += 1
    assert swaps > 1000


def _cut_points(length: int, count: int):
    """Every tuple of `count` cut points from -1 to length + 1, so ordered,
    unordered and out-of-range splits all appear."""
    return itertools.product(range(-1, length + 2), repeat=count)


def test_degree_form_accepts_exactly_the_steps_apply_step_accepts():
    rng = random.Random(2021)
    accepted = {NEUTRAL_SWAP: 0, CONJUGATE_SWAP: 0}
    for grading in GRADINGS + partial_cayley_gradings():
        group = grading.group
        for _ in range(4):
            for word in (random_word(rng, grading, 5, 2), _two_row_walk(rng, grading, 5)):
                d = prefix_degrees(group, word)
                for rule, count in ((NEUTRAL_SWAP, 3), (CONJUGATE_SWAP, 4)):
                    for cuts in _cut_points(len(word), count):
                        step = RewriteStep(rule, cuts)
                        try:
                            apply_step(group, word, step)
                            applies = True
                        except StepError:
                            applies = False
                        assert _degrees_allow(d, step) == applies, (word, step)
                        accepted[rule] += applies
    assert min(accepted.values()) > 50, accepted


@st.composite
def related_words(draw):
    """A grading, a word with a nonzero evaluation, and a word reached from
    it by valid swaps.  The word is a row walk over at most three rows with
    indices 1 and 2, so letters, and (letter, prefix degree) pairs, repeat."""
    grading = draw(st.sampled_from(GRADINGS))
    rows = draw(st.lists(st.integers(1, grading.n), min_size=2, max_size=3, unique=True))
    walk = draw(st.lists(st.sampled_from(rows), min_size=3, max_size=9))
    word = tuple(
        GVar(grading.unit_degree(a, b), draw(st.integers(1, 2))) for a, b in zip(walk, walk[1:])
    )
    other = word
    for _ in range(draw(st.integers(0, 4))):
        steps = valid_rewrite_steps(grading.group, other)
        if not steps:
            break
        other = apply_step(grading.group, other, draw(st.sampled_from(steps)))
    if draw(st.booleans()):
        word, other = other, word
    return grading, word, other


@settings(max_examples=300, deadline=None)
@given(case=related_words())
def test_derivation_matches_the_stepwise_oracle(case):
    grading, m, n = case
    assert derive_equivalence(grading, m, n) == derive_equivalence_stepwise(grading, m, n)
