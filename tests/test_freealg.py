import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matident import CyclicGroup, FreePoly, GVar, IntegerGroup, RATIONALS, PrimeField
from matident import freealg
from matident.freealg import (
    ParseError,
    degree_sequence,
    format_polynomial,
    format_word,
    multidegree,
    multihomogeneous_components,
    parse_polynomial,
    parse_word,
)

from helpers import (
    free_poly,
    is_multihomogeneous,
    is_multilinear,
    multidegree_components,
    parse_polynomial_stepwise,
    poly_sum,
    s3_group,
    suite_gradings,
    word_degree,
    z2z2_group,
)

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


@st.composite
def rearranged_polynomials(draw):
    """Terms that rearrange a few letter multisets over a suite grading's
    support with indices 1 and 2, so letters repeat within a word and
    several components share letters."""
    grading = draw(st.sampled_from(suite_gradings()))
    letter = st.sampled_from([GVar(h, i) for h in grading.support() for i in (1, 2)])
    multisets = draw(st.lists(st.lists(letter, min_size=1, max_size=5), min_size=1, max_size=4))
    terms = []
    for letters in multisets:
        for _ in range(draw(st.integers(1, 4))):
            word = tuple(draw(st.permutations(letters)))
            terms.append((word, Fraction(draw(st.integers(-3, 3)))))
    return FreePoly.from_terms(RATIONALS, terms)


@settings(max_examples=300, deadline=None)
@given(rearranged_polynomials())
def test_components_match_the_multidegree_oracle(f):
    assert multihomogeneous_components(f) == multidegree_components(f)


def test_components_keep_multidegree_order_not_sorted_word_order():
    # sorted letters put x1*x1*x2 first, multidegree order puts x1*x2*x2 first
    f = parse_polynomial("x[1;1]*x[1;1]*x[1;2] + x[1;2]*x[1;1]*x[1;2]", Z4, RATIONALS)
    comps = multihomogeneous_components(f)
    assert comps == multidegree_components(f)
    assert [sorted(c.terms) for c in comps] == [
        [parse_word("x[1;2]*x[1;1]*x[1;2]", Z4)],
        [parse_word("x[1;1]*x[1;1]*x[1;2]", Z4)],
    ]


def test_components_compute_one_multidegree_each(monkeypatch):
    calls = []
    original = freealg.multidegree

    def counting(word):
        calls.append(word)
        return original(word)

    monkeypatch.setattr(freealg, "multidegree", counting)
    f = parse_polynomial(
        "x[1;1]*x[3;2] - x[3;2]*x[1;1] + 2*x[1;1]*x[1;1]*x[2;1] - x[2;1]*x[1;1]*x[1;1]"
        " + x[1;1]*x[2;1]*x[1;1] + x[0;1]",
        Z4,
        RATIONALS,
    )
    comps = multihomogeneous_components(f)
    assert len(f.terms) == 6 and len(comps) == 3
    assert len(calls) == len(comps)


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

    # integers are decimal digits of any script
    assert parse_polynomial("٣/٤*x[1;٢]", Z4, RATIONALS).sorted_terms() == [
        ((GVar(1, 2),), Fraction(3, 4))
    ]


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
    # '²' is a digit to str.isdigit but not a decimal one, so it is no integer
    for text, position in (("²*x[1;1]", 0), ("x[1;1]*x[1;²]", 11)):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, Z4, RATIONALS)
        assert info.value.position == position


def test_pattern_classes_are_the_str_predicates():
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", everything) == [ch for ch in everything if ch.isspace()]
    assert re.findall(r"\d", everything) == [ch for ch in everything if ch.isdecimal()]


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
    text = format_polynomial(Z4, f)
    assert parse_polynomial(text, Z4, RATIONALS) == f


def test_format_zero_and_words():
    assert format_polynomial(Z4, free_poly(RATIONALS)) == "0"
    assert format_word(Z4, (GVar(1, 1), GVar(3, 2))) == "x[1;1]*x[3;2]"
    with pytest.raises(ValueError):
        format_word(Z4, ())


def test_zero_reads_as_the_zero_polynomial():
    # '0' is what format_polynomial writes for a polynomial that cancels
    for text in ("0", " 0\n", "\t0 \xa0"):
        for parse in (parse_polynomial, parse_polynomial_stepwise):
            assert parse(text, Z4, RATIONALS) == free_poly(RATIONALS)
    for text in ("00", "0 0", "-0", "+0", "0 + x[1;1]", "x[1;1] + 0"):
        refused = _outcome(parse_polynomial, text, Z4, RATIONALS)
        assert refused[0] is ParseError
        assert refused == _outcome(parse_polynomial_stepwise, text, Z4, RATIONALS)
    with pytest.raises(ValueError, match="not a single word"):
        parse_word("0", Z4)


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


# gradings whose literals differ in shape: residues, parenthesized pairs,
# Cayley labels and signed integers
ORACLE_GROUPS = (Z4, z2z2_group(), s3_group(), IntegerGroup())
ORACLE_FIELDS = (RATIONALS, PrimeField(3))
EDIT_CHARS = "x[];*+-/0 1²٣"


def _outcome(parse, text, group, field):
    try:
        return parse(text, group, field)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def oracle_texts(draw):
    group = draw(st.sampled_from(ORACLE_GROUPS))
    if group.order is None:
        degrees = st.integers(min_value=-12, max_value=12)
    else:
        degrees = st.sampled_from(list(group.elements()))
    letter = st.builds(GVar, degrees, st.integers(min_value=1, max_value=12))
    coefficient = st.builds(
        Fraction, st.integers(min_value=-20, max_value=20), st.sampled_from((1, 1, 1, 1, 2, 3))
    )
    items = draw(
        st.lists(st.tuples(st.lists(letter, min_size=1, max_size=4).map(tuple), coefficient),
                 min_size=1, max_size=4)
    )
    chars = list(format_polynomial(group, FreePoly.from_terms(RATIONALS, items)))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        chars.insert(draw(st.integers(0, len(chars))), draw(st.sampled_from(" \t\n\xa0")))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if not chars:
            break
        at = draw(st.integers(0, len(chars) - 1))
        edit = draw(st.sampled_from(("delete", "insert", "replace")))
        if edit == "delete":
            del chars[at]
        elif edit == "insert":
            chars.insert(at, draw(st.sampled_from(EDIT_CHARS)))
        else:
            chars[at] = draw(st.sampled_from(EDIT_CHARS))
    return "".join(chars), group, draw(st.sampled_from(ORACLE_FIELDS))


@given(oracle_texts())
@settings(max_examples=300, deadline=None)
def test_parser_agrees_with_stepwise_oracle(case):
    text, group, field = case
    expected = _outcome(parse_polynomial_stepwise, text, group, field)
    got = _outcome(parse_polynomial, text, group, field)
    if isinstance(expected, tuple) and expected[0] is ValueError and (
        "invalid literal for int()" in expected[1]
    ):
        # the oracle hands a non-decimal digit such as '²' to int(); the
        # patterns refuse it as a character that does not fit the grammar
        assert got[0] is ParseError
    else:
        assert got == expected

