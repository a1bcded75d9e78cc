import gc
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matident import CyclicGroup, Grading, GVar, IntegerGroup, ProductGroup, RATIONALS
from matident.generic import is_graded_identity
from matident.monomials import (
    _four_times_power,
    enumerate_monomial_identities,
    length_bounds,
    monomial_identity_runs,
    shortest_monomial_identity,
    successors,
)

from helpers import (
    elements,
    free_poly,
    is_minimal_identity_by_coarsenings,
    is_monomial_identity,
    naive_lset,
    partial_cayley_gradings,
    sequence_vanishes_by_units,
    suite_gradings,
)

GR_Z4 = Grading(CyclicGroup(4), 2, (0, 1))
GR_Z2 = Grading(CyclicGroup(2), 2, (0, 1))


def test_is_monomial_identity_examples():
    assert is_monomial_identity(GR_Z4, (1, 1))
    assert sequence_vanishes_by_units(GR_Z4, (1, 1))

    # full support on Z2: no sequence of length <= 6 is an identity
    for length in range(1, 7):
        for hseq in itertools.product([0, 1], repeat=length):
            assert not is_monomial_identity(GR_Z2, hseq)

    # a degree outside the support kills every chain
    assert is_monomial_identity(GR_Z4, (0, 2, 1))
    assert sequence_vanishes_by_units(GR_Z4, (0, 2, 1))


def test_is_monomial_identity_rejects_empty():
    with pytest.raises(ValueError):
        is_monomial_identity(GR_Z4, ())


def test_enumerate_examples():
    found = enumerate_monomial_identities(GR_Z4, 2)
    assert [seq for seq, minimal in found if minimal] == [(1, 1), (3, 3)]
    assert enumerate_monomial_identities(GR_Z2, 6) == []
    assert enumerate_monomial_identities(GR_Z4, 1) == []


def test_enumerated_sequences_cross_checked_by_unit_substitution():
    for seq, _ in enumerate_monomial_identities(GR_Z4, 3):
        assert sequence_vanishes_by_units(GR_Z4, seq)
        # prefix-minimality: no proper prefix is an identity
        for cut in range(1, len(seq)):
            assert not is_monomial_identity(GR_Z4, seq[:cut])


def test_minimality_filter():
    flags = dict(enumerate_monomial_identities(GR_Z4, 3))
    # (1,1) is minimal although its one merge, (2,), leaves the support
    assert flags[(1, 1)] and flags[(3, 3)]
    # contains the factor (1,1)
    assert not flags[(0, 1, 1)]
    # merging the first two degrees gives the shorter identity (1,1)
    assert not flags[(1, 0, 1)]
    # non-identities are not emitted
    assert (1, 3) not in flags
    # only the factor (3, 5) is an identity: (5, 3) and both one-pair
    # merges, (1, 5) and (5, 1), are not
    z7 = Grading(CyclicGroup(7), 4, (0, 2, 3, 4))
    z7_flags = dict(enumerate_monomial_identities(z7, 3))
    assert is_monomial_identity(z7, (3, 5))
    assert not z7_flags[(5, 3, 5)]
    for grading, found in ((GR_Z4, flags), (z7, z7_flags)):
        for seq, minimal in found.items():
            assert minimal == is_minimal_identity_by_coarsenings(grading, seq), seq


# Distinct and repeated tuples, full and partial supports, finite and
# infinite groups: the gradings on which the mask filter meets its oracle.
FILTER_GRADINGS = (
    suite_gradings()
    + partial_cayley_gradings()
    + [
        Grading(IntegerGroup(), 5, (0, 1, 3, 9, 20)),
        Grading(CyclicGroup(7), 4, (0, 2, 3, 4)),
        Grading(CyclicGroup(6), 4, (0, 1, 1, 3)),
        Grading(
            ProductGroup([CyclicGroup(2)] * 3),
            4,
            ((0, 0, 0), (0, 0, 1), (0, 0, 1), (1, 1, 0)),
        ),
    ]
)


@st.composite
def random_gradings(draw):
    """Z2 to Z9, Z2xZ2, Z2xZ3 or the integers in -6..6, with n from 1 to 5
    and repeated entries allowed."""
    group = draw(
        st.sampled_from(
            [CyclicGroup(m) for m in range(2, 10)]
            + [ProductGroup([CyclicGroup(2), CyclicGroup(m)]) for m in (2, 3)]
            + [IntegerGroup()]
        )
    )
    values = elements(group)
    entry = st.integers(-6, 6) if values is None else st.sampled_from(values)
    entries = draw(st.lists(entry, min_size=1, max_size=5))
    return Grading(group, len(entries), entries)


def _cap_for(grading):
    return 4 if len(grading.support()) <= 8 else 3


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_minimality_filter_matches_coarsening_oracle(data):
    grading = data.draw(st.one_of(st.sampled_from(FILTER_GRADINGS), random_gradings()))
    # any sequence over the support, not only the enumerator's output
    support = grading.support()
    hseq = tuple(data.draw(st.lists(st.sampled_from(support), min_size=1, max_size=7)))
    assert is_monomial_identity(grading, hseq) == (not naive_lset(grading, hseq))
    cap = data.draw(st.integers(1, _cap_for(grading)))
    assert enumerate_monomial_identities(grading, cap) == _flagged_brute_force(grading, cap)


def test_minimality_filter_matches_coarsening_oracle_exhaustively():
    # every short sequence, emitted or not, so rare cases such as a sequence
    # that only its suffix factor rules out are met for sure; a sequence the
    # walk does not emit has an identity proper prefix or is no identity
    for grading in FILTER_GRADINGS:
        support = grading.support()
        flags = dict(enumerate_monomial_identities(grading, _cap_for(grading)))
        for length in range(1, _cap_for(grading) + 1):
            for hseq in itertools.product(support, repeat=length):
                assert flags.get(hseq, False) == is_minimal_identity_by_coarsenings(
                    grading, hseq
                ), hseq


def test_shortest_identity_examples():
    assert shortest_monomial_identity(GR_Z4) == (2, (1, 1))
    assert shortest_monomial_identity(GR_Z2) is None
    one = Grading(CyclicGroup(3), 1, (0,))
    assert shortest_monomial_identity(one) is None


def test_shortest_agrees_with_enumeration():
    specs = [
        GR_Z4,
        GR_Z2,
        Grading(CyclicGroup(5), 2, (0, 1)),
        Grading(CyclicGroup(6), 3, (0, 1, 3)),
        Grading(CyclicGroup(3), 3, (0, 1, 2)),
    ]
    cap = 6
    for grading in specs:
        found = enumerate_monomial_identities(grading, cap)
        answer = shortest_monomial_identity(grading)
        if answer is None:
            assert found == []
        else:
            length, witness = answer
            assert is_monomial_identity(grading, witness)
            assert len(witness) == length
            if found:
                assert min(len(seq) for seq, _ in found) == length


def test_monomial_status_matches_word_identity_status():
    rng = random.Random(23)
    for grading in suite_gradings()[:3] + [GR_Z4]:
        support = grading.support()
        for _ in range(40):
            hseq = tuple(rng.choice(support) for _ in range(rng.randint(1, 5)))
            # realizations may repeat variable indices
            word = tuple(GVar(h, rng.randint(1, 2)) for h in hseq)
            f = free_poly(RATIONALS, (word, 1))
            assert is_monomial_identity(grading, hseq) == is_graded_identity(grading, f)


def test_upward_closure_of_identity_factors():
    rng = random.Random(29)
    support = GR_Z4.support()
    identities = [seq for seq, _ in enumerate_monomial_identities(GR_Z4, 3)]
    for _ in range(50):
        core = rng.choice(identities)
        left = tuple(rng.choice(support) for _ in range(rng.randint(0, 3)))
        right = tuple(rng.choice(support) for _ in range(rng.randint(0, 3)))
        assert is_monomial_identity(GR_Z4, left + core + right)


def test_automaton_state_matches_lset_endpoints():
    rng = random.Random(31)
    for grading in suite_gradings()[:3] + [GR_Z4]:
        support = grading.support()
        for _ in range(50):
            hseq = tuple(rng.choice(support) for _ in range(rng.randint(1, 6)))
            state = frozenset(range(1, grading.n + 1))
            for h in hseq:
                state = successors(grading, state)[support.index(h)]
            assert state == frozenset(path[-1] for path in grading.lset(hseq).values())


def test_length_bounds_exact_values():
    assert length_bounds(GR_Z2) == (256, 4194304)  # s=2, n=2
    assert length_bounds(GR_Z4) == (26244, 4194304)  # s=3, n=2
    b = length_bounds(Grading(CyclicGroup(3), 3, (0, 1, 2)))
    assert b.support_bound == 4 * 3**8
    assert b.size_bound == 4 * 3**40


def test_length_bounds_switch_to_power_form_past_the_printable_digits():
    # the size bound has 4180 digits at n = 27 and 4544 at n = 28; the
    # support bound has exactly 4300 at s = 747 and 4306 at s = 748
    assert length_bounds(Grading(CyclicGroup(27), 27, range(27))).size_bound == 4 * 27**2920
    assert length_bounds(Grading(CyclicGroup(28), 28, range(28))).size_bound == "4*28^3140"
    assert len(str(_four_times_power(747, 1496))) == 4300
    assert _four_times_power(748, 1498) == "4*748^1498"


def test_enumerate_requires_positive_cap():
    with pytest.raises(ValueError):
        enumerate_monomial_identities(GR_Z4, 0)


def _brute_force_enumeration(grading, max_len):
    """Unpruned reference on naive chain walks, in lexicographic order:
    identity sequences whose proper prefixes are not identities.  Identities
    are closed under extension, so checking seq[:-1] covers every prefix."""
    support = grading.support()

    def dies(seq):
        return not naive_lset(grading, seq)

    out = [
        seq
        for length in range(1, max_len + 1)
        for seq in itertools.product(support, repeat=length)
        if dies(seq) and (length == 1 or not dies(seq[:-1]))
    ]
    return sorted(out, key=lambda seq: [support.index(h) for h in seq])


def _flagged_brute_force(grading, max_len):
    return [
        (seq, is_minimal_identity_by_coarsenings(grading, seq))
        for seq in _brute_force_enumeration(grading, max_len)
    ]


def test_enumeration_matches_brute_force():
    # the lists are compared as they come, so the order is checked too
    for grading in FILTER_GRADINGS:
        for cap in range(1, _cap_for(grading) + 1):
            assert enumerate_monomial_identities(grading, cap) == _flagged_brute_force(
                grading, cap
            ), (grading, cap)


def _check_runs(grading, cap):
    """The runs flatten to the brute-force list, and they are its maximal
    blocks of consecutive rows that share all but their last letter."""
    runs = monomial_identity_runs(grading, cap)
    flat = [(prefix + (h,), flag) for prefix, lasts, flags in runs for h, flag in zip(lasts, flags)]
    expected = _flagged_brute_force(grading, cap)
    assert flat == expected, (grading, cap)
    support = grading.support()
    for prefix, lasts, flags in runs:
        # every row of a run shares its prefix: one row per last letter, in support order
        assert prefix and lasts and len(flags) == len(lasts)
        positions = [support.index(h) for h in lasts]
        assert positions == sorted(set(positions))
    for before, after in zip(runs, runs[1:]):
        assert before[0] != after[0], (grading, cap, before[0])
    blocks = [(key, len(list(rows))) for key, rows in
              itertools.groupby((seq for seq, _ in expected), key=lambda seq: seq[:-1])]
    assert [(prefix, len(lasts)) for prefix, lasts, _ in runs] == blocks


def test_runs_match_brute_force():
    for grading in FILTER_GRADINGS:
        for cap in range(1, _cap_for(grading) + 1):
            _check_runs(grading, cap)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_runs_match_brute_force_on_drawn_tuples(data):
    grading = data.draw(random_gradings())
    _check_runs(grading, data.draw(st.integers(1, _cap_for(grading))))


def test_a_subtree_that_emits_nothing_does_not_split_a_run(monkeypatch):
    """On every grading the tests above meet, a live child of a state with a
    dead letter emits, so this automaton is forged: from the full row set
    the middle letter leads to a state that never dies, between two dead
    letters, and the two make one run."""
    full, alive, dead = frozenset({1, 2}), frozenset({1}), frozenset()
    table = {full: [dead, alive, dead], alive: [alive] * 3, dead: [dead] * 3}
    monkeypatch.setattr("matident.monomials.successors", lambda grading, state: table[state])
    runs = monomial_identity_runs(GR_Z4, 3)
    assert [(prefix, list(lasts)) for prefix, lasts, _ in runs] == [((), [0, 3])]


# a dense Z64 grading whose subset automaton has some 50,000 reachable
# states, while a cap of 1 needs only those one step from the full row set
Z64_DENSE = Grading(
    CyclicGroup(64),
    32,
    (1, 2, 5, 7, 10, 13, 16, 17, 19, 23, 25, 27, 28, 29, 32, 34,
     37, 38, 40, 41, 42, 43, 46, 47, 48, 51, 53, 54, 56, 58, 60, 62),
)


def test_shortest_witness_is_first_enumerated():
    for grading in FILTER_GRADINGS + [Z64_DENSE]:
        answer = shortest_monomial_identity(grading)
        if answer is not None:
            length, witness = answer
            assert enumerate_monomial_identities(grading, length)[0][0] == witness, grading


def test_enumeration_builds_only_states_within_the_cap(monkeypatch):
    transitions = 0

    def counted(grading, state):
        nonlocal transitions
        row = successors(grading, state)
        transitions += len(row)
        return row

    monkeypatch.setattr("matident.monomials.successors", counted)
    assert enumerate_monomial_identities(Z64_DENSE, 1) == []
    assert transitions < 10_000


def test_enumeration_without_identities_returns_at_once_at_any_cap():
    # full support: no identity, so the walk must not go 10**6 levels deep
    assert enumerate_monomial_identities(Grading(CyclicGroup(3), 3, (0, 1, 2)), 10**6) == []


def test_cap_deeper_than_the_recursion_limit_is_a_value_error():
    # an identity exists, so the neutral degree keeps the walk alive to the cap
    cap = 2 * sys.getrecursionlimit()
    with pytest.raises(ValueError, match=f"max_len {cap} is too deep to enumerate"):
        enumerate_monomial_identities(GR_Z4, cap)


# the suites, a repeated tuple, a full support with no identity at all, and
# the interval tuples 0..n-1 over Z(n+1), whose shortest identity has n letters
BFS_GRADINGS = suite_gradings() + partial_cayley_gradings() + [
    GR_Z4,
    Grading(CyclicGroup(4), 3, (0, 0, 1)),
    Grading(CyclicGroup(3), 3, (0, 1, 2)),
    Grading(CyclicGroup(5), 4, (0, 1, 2, 3)),
    Grading(CyclicGroup(6), 5, (0, 1, 2, 3, 4)),
]


def test_shortest_identity_is_the_first_hit_in_lexicographic_order():
    # the oracle reads prefix-degree masks and never builds an automaton state
    for grading in BFS_GRADINGS:
        answer = shortest_monomial_identity(grading)
        support = grading.support()
        for length in range(1, 5):
            hit = next(
                (seq for seq in itertools.product(support, repeat=length)
                 if is_monomial_identity(grading, seq)),
                None,
            )
            if hit is not None:
                assert answer == (length, hit), grading
                break
        else:
            assert answer is None or answer[0] > 4, grading


def test_enumeration_searches_for_a_shortest_identity_only_past_the_stack(monkeypatch):
    calls = 0

    def counted(grading):
        nonlocal calls
        calls += 1
        return shortest_monomial_identity(grading)

    monkeypatch.setattr("matident.monomials.shortest_monomial_identity", counted)
    assert enumerate_monomial_identities(GR_Z4, 3)
    assert calls == 0
    assert enumerate_monomial_identities(Grading(CyclicGroup(3), 3, (0, 1, 2)), 10**6) == []
    assert calls == 1
    with pytest.raises(ValueError, match="too deep to enumerate"):
        enumerate_monomial_identities(GR_Z4, 2 * sys.getrecursionlimit())
    assert calls == 2


def test_enumeration_leaves_no_cyclic_garbage_on_any_exit():
    """Reference counting frees each enumeration's memos and result on all
    three exits: a normal return, the empty return past the stack and the
    "too deep" refusal.  The error is caught with try/except, so that no
    pytest bookkeeping is counted."""
    exits = [
        ("return", GR_Z4, 4),
        ("empty", Grading(CyclicGroup(3), 3, (0, 1, 2)), 10**6),
        ("too deep", GR_Z4, 2 * sys.getrecursionlimit()),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, grading, cap in exits:
            gc.collect()
            try:
                outcome = "return" if enumerate_monomial_identities(grading, cap) else "empty"
            except ValueError:
                outcome = "too deep"
            assert (outcome, gc.collect()) == (name, 0), name
    finally:
        if enabled:
            gc.enable()
