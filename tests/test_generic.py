import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matident import (
    CyclicGroup,
    DistinctTupleError,
    FreePoly,
    Grading,
    GVar,
    IntegerGroup,
    RATIONALS,
    PrimeField,
    ProductGroup,
    YVar,
)
from matident.commpoly import Poly
from matident.freealg import parse_polynomial, parse_word
from matident.generic import (
    evaluate,
    is_graded_identity,
    signatures,
    survivors,
)
from matident.rewrite import NonIdentityWitness, certify_membership

from helpers import (
    alpha_checks,
    closed_matrix,
    elements,
    evaluate_direct,
    free_poly,
    generic_matrix,
    matching_entry,
    matching_permutation,
    partial_cayley_gradings,
    random_rewrite_variant,
    random_swappable_word,
    random_word,
    suite_gradings,
    sum_evaluations,
    word_degree,
    word_product_closed,
    word_product_direct,
    zero_sum,
)

Z2 = CyclicGroup(2)
Z4 = CyclicGroup(4)
GR_Z2 = Grading(Z2, 2, (0, 1))
GR_Z4 = Grading(Z4, 2, (0, 1))
# distinct tuples, abelian and not, with full and partial support
FACT_GRADINGS = (
    suite_gradings()
    + [Grading(IntegerGroup(), 3, (0, 1, 3)), GR_Z4]
    + partial_cayley_gradings()
)


def mono(*vars_):
    exps = {}
    for v in vars_:
        exps[v] = exps.get(v, 0) + 1
    return tuple(sorted(exps.items()))


def term(*vars_):
    """The one-term polynomial mono(*vars_) with coefficient 1."""
    return Poly(RATIONALS, {mono(*vars_): RATIONALS.one})


def shares_entry(grading, m, n) -> bool:
    """The engine's shared-entry predicate, as `derive_equivalence` and
    certify read it: equal signatures with a surviving start row."""
    (key_m, _), (key_n, _) = signatures(grading, (m, n))
    return key_m == key_n and bool(survivors(grading, key_m))


def test_generic_matrix_examples():
    a = generic_matrix(GR_Z2, RATIONALS, 1, 1)
    assert set(a.entries) == {(1, 2), (2, 1)}
    assert a.entries[(1, 2)] == term(YVar(1, 1, 1))
    assert a.entries[(2, 1)] == term(YVar(1, 1, 2))

    assert not generic_matrix(GR_Z4, RATIONALS, 2, 1).entries

    b = generic_matrix(GR_Z4, RATIONALS, 1, 1)
    assert set(b.entries) == {(1, 2)}
    assert b.entries[(1, 2)] == term(YVar(1, 1, 1))


def test_word_product_direct_example():
    w = parse_word("x[1;1]*x[1;2]", Z2)
    m = word_product_direct(GR_Z2, RATIONALS, w)
    assert set(m.entries) == {(1, 1), (2, 2)}
    assert m.entries[(1, 1)] == term(YVar(1, 1, 1), YVar(1, 2, 2))
    assert m.entries[(2, 2)] == term(YVar(1, 1, 2), YVar(1, 2, 1))


def test_single_letter_equals_generic_matrix():
    w = parse_word("x[1;3]", Z2)
    assert word_product_direct(GR_Z2, RATIONALS, w) == generic_matrix(GR_Z2, RATIONALS, 1, 3)


def test_monomial_identity_word_evaluates_to_zero():
    w = parse_word("x[1;1]*x[1;2]", Z4)
    assert not word_product_direct(GR_Z4, RATIONALS, w).entries
    assert word_product_closed(GR_Z4, w) == {}
    # one signature, but no entry to share
    assert not shares_entry(GR_Z4, w, w)


def test_closed_form_entry_example():
    w = parse_word("x[1;1]*x[1;3]*x[1;2]", Z2)
    m = word_product_closed(GR_Z2, w)
    assert m[(1, 2)] == mono(YVar(1, 1, 1), YVar(1, 3, 2), YVar(1, 2, 1))


def test_closed_equals_direct_on_random_words():
    rng = random.Random(20260101)
    for grading in suite_gradings()[:3] + [GR_Z4]:
        for _ in range(250):
            w = random_word(rng, grading, 6)
            assert closed_matrix(grading, RATIONALS, w) == word_product_direct(
                grading, RATIONALS, w
            )


def test_closed_equals_direct_over_prime_field():
    rng = random.Random(4242)
    f3 = PrimeField(3)
    for _ in range(100):
        w = random_word(rng, GR_Z4, 5)
        assert closed_matrix(GR_Z4, f3, w) == word_product_direct(GR_Z4, f3, w)


def test_evaluate_linearity_and_identity_instance():
    f = parse_polynomial("x[0;1]*x[0;2] - x[0;2]*x[0;1]", Z2, RATIONALS)
    assert evaluate(GR_Z2, f) == {}

    g = parse_polynomial("x[1;1]", Z2, RATIONALS)
    assert evaluate(GR_Z2, g)

    h = parse_polynomial("x[1;1]*x[1;2] - x[1;1]*x[1;2]", Z2, RATIONALS)
    assert h.terms == {} and evaluate(GR_Z2, h) == {}


def test_evaluate_rejects_empty_word_terms():
    unit = FreePoly.from_terms(RATIONALS, [((), Fraction(1))])
    with pytest.raises(ValueError, match="empty word"):
        evaluate(GR_Z2, unit)


def test_is_graded_identity_examples():
    assert is_graded_identity(
        GR_Z2, parse_polynomial("x[0;1]*x[0;2] - x[0;2]*x[0;1]", Z2, RATIONALS)
    )
    assert is_graded_identity(
        GR_Z2, parse_polynomial("x[1;1]*x[1;3]*x[1;2] - x[1;2]*x[1;3]*x[1;1]", Z2, RATIONALS)
    )
    assert is_graded_identity(GR_Z4, parse_polynomial("x[2;1]", Z4, RATIONALS))
    assert not is_graded_identity(
        GR_Z2, parse_polynomial("x[1;1]*x[1;2] - x[1;2]*x[1;1]", Z2, RATIONALS)
    )
    assert is_graded_identity(GR_Z4, parse_polynomial("x[1;1]*x[1;2]", Z4, RATIONALS))


def test_identity_decision_requires_distinct_tuple():
    repeated = Grading(Z2, 2, (0, 0))
    with pytest.raises(DistinctTupleError):
        is_graded_identity(repeated, parse_polynomial("x[0;1]", Z2, RATIONALS))
    with pytest.raises(DistinctTupleError):
        evaluate(repeated, parse_polynomial("x[0;1]", Z2, RATIONALS))
    # other operations stay available on repeated tuples
    assert word_product_closed(repeated, parse_word("x[0;1]", Z2))


def test_entry_homogeneity_invariant():
    rng = random.Random(77)
    for grading in suite_gradings():
        for _ in range(60):
            w = random_word(rng, grading, 5)
            m = word_product_closed(grading, w)
            alpha = word_degree(grading.group, w)
            for (i, j) in m:
                assert grading.unit_degree(i, j) == alpha


def test_evaluation_is_multiplicative_on_words():
    rng = random.Random(123)
    for grading in suite_gradings()[:3] + [GR_Z4]:
        for _ in range(60):
            m = random_word(rng, grading, 4)
            n = random_word(rng, grading, 4)
            left = closed_matrix(grading, RATIONALS, m + n)
            right = closed_matrix(grading, RATIONALS, m) @ closed_matrix(grading, RATIONALS, n)
            assert left == right


def test_identity_status_depends_only_on_degree_sequence():
    rng = random.Random(321)
    for grading in suite_gradings()[:3] + [GR_Z4]:
        support = grading.support()
        for _ in range(40):
            hseq = [rng.choice(support) for _ in range(rng.randint(1, 5))]
            w1 = tuple(GVar(h, rng.randint(1, 3)) for h in hseq)
            w2 = tuple(GVar(h, rng.randint(1, 3)) for h in hseq)
            f1 = free_poly(RATIONALS, (w1, 1))
            f2 = free_poly(RATIONALS, (w2, 1))
            assert is_graded_identity(grading, f1) == is_graded_identity(grading, f2)


def test_matching_entry_examples():
    m = parse_word("x[1;1]*x[1;2]*x[1;3]*x[1;4]", Z2)
    n = parse_word("x[1;3]*x[1;4]*x[1;1]*x[1;2]", Z2)
    result = matching_entry(GR_Z2, m, n)
    assert result is not None
    assert result.position == (1, 1)
    assert result.monomial == mono(
        YVar(1, 1, 1), YVar(1, 2, 2), YVar(1, 3, 1), YVar(1, 4, 2)
    )

    m2 = parse_word("x[1;1]*x[1;2]", Z2)
    n2 = parse_word("x[1;2]*x[1;1]", Z2)
    assert matching_entry(GR_Z2, m2, n2) is None

    same = matching_entry(GR_Z2, m, m)
    assert same is not None
    assert same.position == (1, 1)


def test_matching_entry_of_first_letter_strips():
    # words starting with the same letter keep a shared entry after stripping
    rng = random.Random(555)
    for grading in suite_gradings()[:3]:
        for _ in range(15):
            m = random_swappable_word(rng, grading)
            n = (m[0],) + random_rewrite_variant(rng, grading, m[1:])
            assert shares_entry(grading, m, n)
            assert shares_entry(grading, m[1:], n[1:])


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    which=st.integers(0, len(FACT_GRADINGS) - 1),
    kind=st.sampled_from(["permutation", "rewrite", "random"]),
)
def test_shared_entry_means_equal_evaluations(seed, which, kind):
    # with a distinct tuple, two word evaluations that share one entry are
    # equal, and they share one exactly when the signatures are equal and survive
    rng = random.Random(seed)
    grading = FACT_GRADINGS[which]
    m = random_swappable_word(rng, grading, index_pool=3)
    if kind == "permutation":
        n = tuple(rng.sample(m, len(m)))
    elif kind == "rewrite":
        n = random_rewrite_variant(rng, grading, m)
    else:
        support = grading.support()
        n = tuple(GVar(rng.choice(support), rng.randint(1, 3)) for _ in m)
    em, en = word_product_closed(grading, m), word_product_closed(grading, n)
    shared = any(em[pos] == en[pos] for pos in em.keys() & en.keys())
    if shared:
        assert em == en
    assert shares_entry(grading, m, n) == shared


ORACLE_GRADINGS = FACT_GRADINGS + [
    Grading(
        ProductGroup([CyclicGroup(8), CyclicGroup(8)]),
        5,
        ((0, 0), (1, 0), (0, 3), (2, 5), (7, 7)),
    )
]


def outside_support(grading):
    """A degree with no matrix unit, or None when the support is the whole group."""
    support = set(grading.support())
    values = elements(grading.group)
    if values is None:
        return max(support) + 1
    return next((g for g in values if g not in support), None)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    which=st.integers(0, len(ORACLE_GRADINGS) - 1),
    field=st.sampled_from([RATIONALS, PrimeField(2), PrimeField(3)]),
)
def test_evaluate_agrees_with_independent_oracles(seed, which, field):
    # evaluation by signature classes equals plain matrix products and the
    # sum of the chain-path word evaluations, on identities and not
    rng = random.Random(seed)
    grading = ORACLE_GRADINGS[which]
    terms: dict = {}

    def add(word, c):
        terms[word] = terms.get(word, 0) + c

    # zero-sum classes of rewrite variants cancel over every field
    for _ in range(rng.randint(0, 2)):
        base = random_swappable_word(rng, grading, index_pool=3)
        words = sorted({base} | {random_rewrite_variant(rng, grading, base) for _ in range(3)})
        if len(words) >= 2:
            for word, c in zip(words, zero_sum(rng, len(words))):
                add(word, c)
    # 1 + 1 cancels only mod 2, 1 + 2 only mod 3
    base = random_swappable_word(rng, grading, index_pool=3)
    add(base, 1)
    add(random_rewrite_variant(rng, grading, base), rng.choice((1, 2)))
    # random words, some with a letter outside the support
    outside = outside_support(grading)
    for _ in range(rng.randint(0, 2)):
        word = list(random_word(rng, grading, 4, index_pool=3))
        if outside is not None and rng.random() < 0.5:
            word[rng.randrange(len(word))] = GVar(outside, rng.randint(1, 3))
        add(tuple(word), rng.choice((-2, -1, 1, 2, 3)))
    f = free_poly(field, *terms.items())

    got = evaluate(grading, f)
    assert got == evaluate_direct(grading, f).entries
    chains = ((word_product_closed(grading, w), c) for w, c in f.terms.items())
    assert got == sum_evaluations(field, chains)
    assert is_graded_identity(grading, f) == (not got)


def test_matching_permutation_four_letter_example():
    m = parse_word("x[1;1]*x[1;2]*x[1;3]*x[1;4]", Z2)
    n = parse_word("x[1;3]*x[1;4]*x[1;1]*x[1;2]", Z2)
    result = matching_entry(GR_Z2, m, n)
    sigma = matching_permutation(GR_Z2, m, n, result.position)
    assert sigma == (3, 4, 1, 2)
    assert all(alpha_checks(GR_Z2, m, n, sigma))


def test_matching_permutation_identity_case():
    m = parse_word("x[1;1]*x[1;2]*x[1;3]", Z2)
    result = matching_entry(GR_Z2, m, m)
    sigma = matching_permutation(GR_Z2, m, m, result.position)
    assert sigma == (1, 2, 3)
    assert all(alpha_checks(GR_Z2, m, m, sigma))


def test_matching_permutation_conjugate_pair():
    m = parse_word("x[1;1]*x[1;3]*x[1;2]", Z2)
    n = parse_word("x[1;2]*x[1;3]*x[1;1]", Z2)
    result = matching_entry(GR_Z2, m, n)
    assert result.position == (1, 2)
    sigma = matching_permutation(GR_Z2, m, n, result.position)
    assert sigma == (3, 2, 1)
    assert all(alpha_checks(GR_Z2, m, n, sigma))


def test_matching_permutation_with_repeated_letters():
    # both words use the same letter twice; the least valid matching wins
    m = parse_word("x[1;1]*x[1;1]*x[1;2]*x[1;2]", Z2)
    n = parse_word("x[1;2]*x[1;2]*x[1;1]*x[1;1]", Z2)
    result = matching_entry(GR_Z2, m, n)
    assert result is not None
    sigma = matching_permutation(GR_Z2, m, n, result.position)
    assert all(alpha_checks(GR_Z2, m, n, sigma))
    assert sorted(sigma) == [1, 2, 3, 4]
    assert tuple(m[s - 1] for s in sigma) == n


def test_first_nonzero_is_row_major():
    m = evaluate(GR_Z2, parse_polynomial("x[1;2] + x[0;1]", Z2, RATIONALS))
    assert min(m) == (1, 1)
    assert m[(1, 1)] == term(YVar(0, 1, 1))
    # certify's witness is the row-major first entry of the evaluation
    f = parse_polynomial("x[1;1]*x[1;2] - x[1;2]*x[1;1]", Z2, RATIONALS)
    assert sorted(evaluate(GR_Z2, f)) == [(1, 1), (2, 2)]
    witness = certify_membership(GR_Z2, f)
    assert witness == NonIdentityWitness((1, 1), evaluate(GR_Z2, f)[(1, 1)])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    which=st.integers(0, len(suite_gradings()) - 1),
    field=st.sampled_from([RATIONALS, PrimeField(2), PrimeField(3)]),
)
def test_evaluate_returns_only_nonzero_entries(seed, which, field):
    # rewrite variants with coefficients that cancel over some fields, so
    # some classes, and the entries they would fill, sum to zero
    rng = random.Random(seed)
    grading = suite_gradings()[which]
    terms: dict = {}
    for _ in range(rng.randint(1, 3)):
        base = random_swappable_word(rng, grading, index_pool=3)
        for word in (base, random_rewrite_variant(rng, grading, base)):
            terms[word] = terms.get(word, 0) + rng.choice((-2, -1, 1, 2))
    f = free_poly(field, *terms.items())
    got = evaluate(grading, f)
    assert all(entry.terms for entry in got.values())
    assert got == evaluate_direct(grading, f).entries
