"""Derivations and prefix degrees.

A word's prefix degrees d_1 = e, d_{i+1} = d_i * deg(w_i) (with the end
degree d_{q+1} last) fix its generic evaluation together with its letters.
Both swap rules keep every letter's prefix degree, so a word's
`prefix_pairs`, its (letter, prefix degree) pairs closed by the end
degree, are its whole rewrite state: `apply_step`, the one swap rule of
derivation and check, reads each side condition from two prefix degrees
and rearranges the pair list in place instead of recomputing degrees.
These tests check it against `helpers.apply_step_by_blocks`, which
multiplies each block's letter degrees, on every cut tuple, check that a
refused step leaves the list as it was, and pin `derive_equivalence` to
the oracle that recovers
every step's letter matching from compared evaluations, on words whose
(letter, prefix degree) pairs repeat, up to 24 letters long.
"""

import collections
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from matident import CyclicGroup, GVar
from matident.generic import prefix_pairs
from matident.rewrite import (
    CONJUGATE_SWAP,
    NEUTRAL_SWAP,
    RewriteStep,
    StepError,
    apply_step,
    check_equivalence_certificate,
    derive_equivalence,
)

import helpers
from helpers import (
    apply_step_by_blocks,
    derive_equivalence_stepwise,
    partial_cayley_gradings,
    random_chain_word,
    random_rewrite_variant,
    random_swap,
    random_swappable_word,
    random_word,
    suite_gradings,
    valid_rewrite_steps,
    word_degree,
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
            expected = [(v, word_degree(group, word[:i])) for i, v in enumerate(word)]
            assert prefix_pairs(group, word) == expected + [(None, word_degree(group, word))]


def test_swaps_move_prefix_degrees_with_their_letters():
    rng = random.Random(2020)
    swaps = 0
    for grading in GRADINGS + partial_cayley_gradings():
        group = grading.group
        for word in _words(rng, grading, 8):
            before = prefix_pairs(group, word)
            for step in valid_rewrite_steps(group, word):
                swapped = apply_step_by_blocks(group, word, step)
                pairs = list(before)
                apply_step(pairs, step)
                assert pairs == prefix_pairs(group, swapped)
                swaps += 1
    assert swaps > 1000


def _cut_points(length: int, count: int):
    """Every tuple of `count` cut points from -1 to length + 1, so ordered,
    unordered and out-of-range splits all appear."""
    return itertools.product(range(-1, length + 2), repeat=count)


def _outcome(apply, *args):
    """What applying a step gives: its result, or the StepError's text."""
    try:
        return apply(*args)
    except StepError as exc:
        return str(exc)


def test_degree_form_accepts_exactly_the_steps_apply_step_accepts():
    """On every cut tuple, `apply_step` rearranges a word's `prefix_pairs`
    into those of the block-degree oracle's swapped word, or raises the
    oracle's exact error and leaves the list as it was."""
    rng = random.Random(2021)
    accepted = {NEUTRAL_SWAP: 0, CONJUGATE_SWAP: 0}
    conditions: set = set()  # the side-condition messages met
    for grading in GRADINGS + partial_cayley_gradings():
        group = grading.group
        for _ in range(4):
            for word in (random_word(rng, grading, 5, 2), _two_row_walk(rng, grading, 5)):
                before = prefix_pairs(group, word)
                for rule, count in ((NEUTRAL_SWAP, 3), (CONJUGATE_SWAP, 4)):
                    for cuts in _cut_points(len(word), count):
                        step = RewriteStep(rule, cuts)
                        pairs = list(before)
                        got = _outcome(apply_step, pairs, step)
                        expected = _outcome(apply_step_by_blocks, group, word, step)
                        if isinstance(expected, str):
                            assert got == expected, (word, step)
                            assert pairs == before, (word, step)
                            if expected.startswith("side condition"):
                                conditions.add(expected)
                        else:
                            assert got is None, (word, step)
                            assert pairs == prefix_pairs(group, expected)
                            accepted[rule] += 1
    assert min(accepted.values()) > 50, accepted
    assert len(conditions) == 5, conditions


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
        other = apply_step_by_blocks(grading.group, other, draw(st.sampled_from(steps)))
    if draw(st.booleans()):
        word, other = other, word
    return grading, word, other


@settings(max_examples=300, deadline=None)
@given(case=related_words())
def test_derivation_matches_the_stepwise_oracle(case):
    grading, m, n = case
    assert derive_equivalence(grading, m, n) == derive_equivalence_stepwise(grading, m, n)


def test_long_derivations_match_the_stepwise_oracle(monkeypatch):
    """On 200 seeded pairs of 12 to 24 letters, each reached by up to 12
    swaps, `derive_equivalence` gives the oracle's certificate with at most
    one step per mismatched position.  The oracle's alignment steps are
    counted, so that both sides rotate and both rules occur often."""
    seen: collections.Counter = collections.Counter()
    alignment_step = helpers._alignment_step

    def counting(*args):
        side, step = alignment_step(*args)
        seen[side] += 1
        seen[step.rule] += 1
        return side, step

    monkeypatch.setattr(helpers, "_alignment_step", counting)
    rng = random.Random(2030)
    for case in range(200):
        grading = GRADINGS[case % len(GRADINGS)]
        length = rng.randint(12, 24)
        if case % 2:
            word = _two_row_walk(rng, grading, length)
        else:
            word = random_chain_word(rng, grading, length, index_pool=2)
        other = word
        for _ in range(rng.randint(0, 12)):
            other = random_swap(rng, grading.group, other)
        m, n = (word, other) if rng.random() < 0.5 else (other, word)
        cert = derive_equivalence(grading, m, n)
        assert cert == derive_equivalence_stepwise(grading, m, n), (m, n)
        assert len(cert.steps) <= len(m) - 1
    assert min(seen[key] for key in ("n", "m", NEUTRAL_SWAP, CONJUGATE_SWAP)) >= 20, seen


def _cyclic_derivations(seed: int) -> list:
    """Certificates between nonzero words and words reached from them by
    up to six swaps, over the cyclic gradings of the suite, each derived
    and checked once so that the gradings' step tables are built."""
    rng = random.Random(seed)
    cases = []
    for grading in GRADINGS:
        if not isinstance(grading.group, CyclicGroup):
            continue
        for _ in range(12):
            m = random_swappable_word(rng, grading, index_pool=2)
            n = random_rewrite_variant(rng, grading, m, max_steps=6)
            cert = derive_equivalence(grading, m, n)
            assert check_equivalence_certificate(grading, cert)
            cases.append((grading, cert))
    assert len({len(cert.steps) for _, cert in cases}) > 3
    return cases


def _group_ops(monkeypatch) -> list:
    """Count `CyclicGroup.op` calls (the dataclass is frozen, so the class
    is patched)."""
    calls = []
    op = CyclicGroup.op

    def counting(self, a, b):
        calls.append((a, b))
        return op(self, a, b)

    monkeypatch.setattr(CyclicGroup, "op", counting)
    return calls


def test_checker_makes_one_group_operation_per_start_letter(monkeypatch):
    """The checker computes the start's `prefix_pairs` once and carries
    them through the replay, so its group operations do not grow with the
    step count."""
    cases = _cyclic_derivations(2022)
    ops = _group_ops(monkeypatch)
    for grading, cert in cases:
        ops.clear()
        assert check_equivalence_certificate(grading, cert)
        assert len(ops) == len(cert.start), (cert, len(cert.steps))


def test_derivation_makes_one_group_operation_per_letter(monkeypatch):
    """A derivation computes each word's `prefix_pairs` once, and its
    steps, applied through `apply_step`, make no group operation."""
    cases = _cyclic_derivations(2023)
    ops = _group_ops(monkeypatch)
    for grading, cert in cases:
        ops.clear()
        assert derive_equivalence(grading, cert.end, cert.start) == cert
        assert len(ops) == len(cert.end) + len(cert.start)
