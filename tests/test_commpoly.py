import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matident import RATIONALS, Poly, PrimeField, YVar
from matident.commpoly import (
    PRIME_LIMIT,
    monomial_mul,
    parse_field,
    render_monomial,
    render_poly,
)

VARS = [YVar(h, i, k) for h in (0, 1, 3) for i in (1, 2) for k in (1, 2)]


def poly_strategy(field):
    monomials = st.lists(
        st.tuples(st.sampled_from(VARS), st.integers(min_value=1, max_value=3)),
        max_size=3,
    ).map(lambda pairs: monomial_mul(tuple(), tuple(pairs)))
    term = st.tuples(monomials, st.integers(min_value=-6, max_value=6))
    return st.lists(term, max_size=4).map(
        lambda items: Poly.from_terms(field, [(m, field.from_int(c)) for m, c in items])
    )


def eval_at(poly, assignment):
    """Independent scalar evaluation of a polynomial at a point."""
    field = poly.field
    total = field.zero
    for mono, coeff in poly.terms.items():
        value = coeff
        for var, e in mono:
            value = field.mul(value, field.from_int(assignment[var] ** e))
        total = field.add(total, value)
    return total


def test_variable_product_trivial():
    a = Poly.variable(RATIONALS, YVar(1, 1, 1))
    b = Poly.variable(RATIONALS, YVar(1, 2, 2))
    prod = a * b
    assert prod.sorted_terms() == [
        (((YVar(1, 1, 1), 1), (YVar(1, 2, 2), 1)), Fraction(1))
    ]


def test_char_two_cancellation():
    f2 = PrimeField(2)
    y = Poly.variable(f2, YVar(1, 1, 1))
    assert (y + y).is_zero()


def test_scalar_p_kills_everything_over_fp():
    rng = random.Random(3)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(20):
            terms = [
                (
                    ((rng.choice(VARS), rng.randint(1, 3)),),
                    field.from_int(rng.randint(-5, 5)),
                )
                for _ in range(rng.randint(0, 4))
            ]
            f = Poly.from_terms(field, terms)
            assert f.scale_int(p).is_zero()


@given(poly_strategy(RATIONALS), poly_strategy(RATIONALS), poly_strategy(RATIONALS))
@settings(max_examples=150, deadline=None)
def test_ring_axioms_rationals(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    one = Poly.constant(RATIONALS, 1)
    assert a * one == a
    assert (a - a).is_zero()


@given(poly_strategy(PrimeField(3)), poly_strategy(PrimeField(3)))
@settings(max_examples=100, deadline=None)
def test_distributivity_fp3(a, b):
    c = Poly.constant(PrimeField(3), 2)
    assert (a + b) * c == a * c + b * c


def test_mul_against_point_evaluation_oracle():
    rng = random.Random(99)
    field = RATIONALS
    for _ in range(500):
        terms_a = [
            (
                monomial_mul(
                    tuple(), tuple((rng.choice(VARS), rng.randint(1, 2)) for _ in range(rng.randint(0, 2)))
                ),
                field.from_int(rng.randint(-4, 4)),
            )
            for _ in range(rng.randint(0, 3))
        ]
        terms_b = [
            (
                monomial_mul(
                    tuple(), tuple((rng.choice(VARS), rng.randint(1, 2)) for _ in range(rng.randint(0, 2)))
                ),
                field.from_int(rng.randint(-4, 4)),
            )
            for _ in range(rng.randint(0, 3))
        ]
        a = Poly.from_terms(field, terms_a)
        b = Poly.from_terms(field, terms_b)
        point = {v: rng.randint(-3, 3) for v in VARS}
        assert eval_at(a * b, point) == field.mul(eval_at(a, point), eval_at(b, point))
        assert eval_at(a + b, point) == field.add(eval_at(a, point), eval_at(b, point))


def test_canonicality_eq_iff_same_term_list():
    a = Poly.from_terms(
        RATIONALS,
        [(((YVar(1, 1, 1), 1),), Fraction(2)), (((YVar(1, 2, 1), 1),), Fraction(-2))],
    )
    b = Poly.from_terms(
        RATIONALS,
        [(((YVar(1, 2, 1), 1),), Fraction(-2)), (((YVar(1, 1, 1), 1),), Fraction(2))],
    )
    assert a == b
    assert a.sorted_terms() == b.sorted_terms()
    c = b + Poly.variable(RATIONALS, YVar(3, 1, 1))
    assert a != c


def test_zero_polynomial_is_empty():
    f = Poly.from_terms(RATIONALS, [(((YVar(1, 1, 1), 1),), Fraction(1))])
    assert (f - f).is_zero()
    assert (f - f).sorted_terms() == []


def test_field_mismatch_rejected():
    a = Poly.variable(RATIONALS, YVar(1, 1, 1))
    b = Poly.variable(PrimeField(3), YVar(1, 1, 1))
    with pytest.raises(ValueError, match="field mismatch"):
        a + b


def test_prime_field_requires_prime():
    for p in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(p)
    for p in (2, 3, 5, 7, 97, 101, 2**61 - 1):
        assert PrimeField(p).p == p


def test_prime_field_refuses_the_inexact_range():
    # the least strong pseudoprime to every Miller-Rabin base up to 41
    pseudoprime = 1287836182261 * 2575672364521
    assert pseudoprime == PRIME_LIMIT
    for p in (pseudoprime, 2**89 - 1):
        with pytest.raises(ValueError, match=str(PRIME_LIMIT)):
            PrimeField(p)
    assert PrimeField(2**61 - 1).p == 2**61 - 1


def test_prime_field_refuses_pseudoprimes_below_the_limit():
    # the least strong pseudoprime to every base up to 37; base 41 catches it
    pseudoprime = 399165290221 * 798330580441
    assert pseudoprime < PRIME_LIMIT
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(pseudoprime)


def test_field_parsing():
    assert parse_field("rationals") == RATIONALS
    assert parse_field("fp:3") == PrimeField(3)
    with pytest.raises(ValueError):
        parse_field("fp:4")
    with pytest.raises(ValueError):
        parse_field("float")
    assert RATIONALS.parse("3/4") == Fraction(3, 4)
    with pytest.raises(ValueError):
        PrimeField(3).parse("1/2")


def test_rendering():
    fmt = str
    mono = ((YVar(1, 1, 1), 1), (YVar(1, 2, 2), 2))
    assert render_monomial(mono, fmt) == "y[1;1;1]*y[1;2;2]^2"
    poly = Poly.from_terms(
        RATIONALS,
        [(mono, Fraction(-3, 4)), ((), Fraction(2))],
    )
    assert render_poly(poly, fmt) == "2 - 3/4*y[1;1;1]*y[1;2;2]^2"
    assert render_poly(Poly.zero(RATIONALS), fmt) == "0"
