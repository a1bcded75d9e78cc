import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matident import CyclicGroup, FreePoly, GVar, RATIONALS, PrimeField
from matident.freealg import (
    ParseError,
    degree_sequence,
    format_polynomial,
    format_word,
    is_multihomogeneous,
    multidegree,
    multihomogeneous_components,
    parse_polynomial,
    parse_word,
    word_degree,
)

from helpers import free_poly, is_multilinear, poly_sum

Z4 = CyclicGroup(4)
Z2 = CyclicGroup(2)


def test_word_degree_examples():
    assert word_degree(Z4, ()) == 0
    assert word_degree(Z2, (GVar(1, 1), GVar(1, 2))) == 0
    assert word_degree(Z4, (GVar(1, 1), GVar(3, 2), GVar(1, 1))) == 1


def test_degree_sequence_examples():
    assert degree_sequence((GVar(1, 1), GVar(3, 2))) == (1, 3)
    assert degree_sequence(()) == ()
    assert degree_sequence((GVar(0, 1), GVar(0, 1))) == (0, 0)


def test_degree_is_concatenation_homomorphism():
    rng = random.Random(5)
    for _ in range(200):
        m = tuple(GVar(rng.randrange(4), rng.randint(1, 3)) for _ in range(rng.randint(0, 5)))
        n = tuple(GVar(rng.randrange(4), rng.randint(1, 3)) for _ in range(rng.randint(0, 5)))
        assert word_degree(Z4, m + n) == Z4.op(word_degree(Z4, m), word_degree(Z4, n))


def test_multihomogeneous_components_examples():
    f = parse_polynomial("x[0;1]*x[0;2] - x[0;2]*x[0;1]", Z4, RATIONALS)
    comps = multihomogeneous_components(f)
    assert comps == [f]

    g = parse_polynomial("x[0;1] + x[0;1]*x[0;1]", Z4, RATIONALS)
    comps = multihomogeneous_components(g)
    assert len(comps) == 2

    mixed = parse_polynomial(
        "x[1;1]*x[3;1] - 2*x[3;1]*x[1;1] + x[1;1] + 3*x[1;1]*x[1;1] - x[0;2]",
        Z4,
        RATIONALS,
    )
    comps = multihomogeneous_components(mixed)
    assert all(is_multihomogeneous(comp) for comp in comps)
    assert poly_sum(*comps) == mixed
    degrees = [multidegree(next(iter(c.terms))) for c in comps]
    assert len(set(degrees)) == len(degrees)


def test_components_random_resum():
    rng = random.Random(31)
    for _ in range(100):
        words = [
            tuple(GVar(rng.randrange(4), rng.randint(1, 2)) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 5))
        ]
        f = FreePoly.from_terms(
            RATIONALS, [(w, Fraction(rng.randint(-3, 3))) for w in words]
        )
        comps = multihomogeneous_components(f)
        assert all(is_multihomogeneous(comp) for comp in comps)
        assert poly_sum(free_poly(RATIONALS), *comps) == f


def test_is_multilinear():
    assert is_multilinear(parse_polynomial("x[1;1]*x[1;2]", Z4, RATIONALS))
    assert not is_multilinear(parse_polynomial("x[1;1]*x[1;1]", Z4, RATIONALS))
    assert is_multilinear(free_poly(RATIONALS))
    # same index, different degrees: distinct variables
    assert is_multilinear(parse_polynomial("x[1;1]*x[3;1]", Z4, RATIONALS))
    # mixed multidegrees are not multilinear
    assert not is_multilinear(parse_polynomial("x[1;1] + x[1;1]*x[1;2]", Z4, RATIONALS))


def test_multidegree_distinguishes_degrees_with_equal_index():
    a = multidegree((GVar(1, 1),))
    b = multidegree((GVar(3, 1),))
    assert a != b


def test_parse_examples():
    f = parse_polynomial("x[1;1]*x[3;2]", Z4, RATIONALS)
    assert f.sorted_terms() == [((GVar(1, 1), GVar(3, 2)), Fraction(1))]

    g = parse_polynomial("x[0;1]*x[0;2] - x[0;2]*x[0;1]", Z4, RATIONALS)
    assert len(g.terms) == 2
    assert set(g.terms.values()) == {Fraction(1), Fraction(-1)}

    with pytest.raises(ParseError, match="out of range"):
        parse_polynomial("x[5;1]", Z4, RATIONALS)


def test_parse_coefficients():
    f = parse_polynomial("2*x[1;1] - 3/4*x[3;1]", Z4, RATIONALS)
    assert f.terms[(GVar(1, 1),)] == Fraction(2)
    assert f.terms[(GVar(3, 1),)] == Fraction(-3, 4)

    f3 = PrimeField(3)
    g = parse_polynomial("5*x[1;1]", Z4, f3)
    assert g.terms[(GVar(1, 1),)] == 2

    with pytest.raises(ParseError, match="not valid over"):
        parse_polynomial("1/2*x[1;1]", Z4, f3)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x[1;1] * + x[1;2]", Z4, RATIONALS)
    assert info.value.position >= 0
    with pytest.raises(ParseError):
        parse_polynomial("", Z4, RATIONALS)
    with pytest.raises(ParseError):
        parse_polynomial("x[1;0]", Z4, RATIONALS)
    with pytest.raises(ParseError):
        parse_polynomial("x[1;1] x[1;2]", Z4, RATIONALS)
    with pytest.raises(ParseError):
        parse_polynomial("y[1;1]", Z4, RATIONALS)


def test_parse_whitespace_insensitive():
    a = parse_polynomial("x[ 1 ; 1 ] * x[3;2]  -  x[0;1]", Z4, RATIONALS)
    b = parse_polynomial("x[1;1]*x[3;2]-x[0;1]", Z4, RATIONALS)
    assert a == b


words_st = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=3)),
    min_size=1,
    max_size=4,
).map(lambda pairs: tuple(GVar(h, i) for h, i in pairs))


@given(
    st.lists(
        st.tuples(words_st, st.integers(min_value=-5, max_value=5)), min_size=1, max_size=4
    )
)
@settings(max_examples=150, deadline=None)
def test_format_parse_roundtrip(items):
    f = FreePoly.from_terms(RATIONALS, [(w, Fraction(c)) for w, c in items])
    if f.is_zero():
        return
    text = format_polynomial(Z4, f)
    assert parse_polynomial(text, Z4, RATIONALS) == f


def test_format_zero_and_words():
    assert format_polynomial(Z4, free_poly(RATIONALS)) == "0"
    assert format_word(Z4, (GVar(1, 1), GVar(3, 2))) == "x[1;1]*x[3;2]"
    with pytest.raises(ValueError):
        format_word(Z4, ())


def test_parse_word():
    w = parse_word("x[1;1]*x[1;2]", Z2)
    assert w == (GVar(1, 1), GVar(1, 2))
    with pytest.raises(ValueError):
        parse_word("x[1;1] + x[1;2]", Z2)
    with pytest.raises(ValueError):
        parse_word("2*x[1;1]", Z2)


def test_multidegree_is_occurrence_counter():
    w = (GVar(1, 1), GVar(1, 1), GVar(3, 2))
    assert dict(multidegree(w)) == dict(Counter(w))
