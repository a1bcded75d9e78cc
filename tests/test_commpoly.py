import random
from fractions import Fraction

import pytest

from matident import RATIONALS, Poly, PrimeField, YVar
from matident.commpoly import PRIME_LIMIT, parse_field, render_monomial, render_poly
from matident.freealg import parse_coefficient

from helpers import entry_product, field_mul, monomial_product, poly_sum

VARS = [YVar(h, i, k) for h in (0, 1, 3) for i in (1, 2) for k in (1, 2)]


def eval_at(poly, assignment):
    """Independent scalar evaluation of a polynomial at a point."""
    field = poly.field
    total = field.zero
    for mono, coeff in poly.terms.items():
        value = coeff
        for var, e in mono:
            value = field_mul(field, value, field.from_int(assignment[var] ** e))
        total = field.add(total, value)
    return total


def test_char_two_cancellation():
    f2 = PrimeField(2)
    y = ((YVar(1, 1, 1), 1),)
    assert Poly.from_terms(f2, [(y, f2.one), (y, f2.one)]).terms == {}


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
            # p copies of every term sum to zero in characteristic p
            assert Poly.from_terms(field, terms * p).terms == {}


def test_mul_against_point_evaluation_oracle():
    # the oracle's entry product and sum agree with scalar evaluation
    rng = random.Random(99)
    field = RATIONALS
    for _ in range(500):
        terms_a = [
            (
                monomial_product(
                    tuple(), tuple((rng.choice(VARS), rng.randint(1, 2)) for _ in range(rng.randint(0, 2)))
                ),
                field.from_int(rng.randint(-4, 4)),
            )
            for _ in range(rng.randint(0, 3))
        ]
        terms_b = [
            (
                monomial_product(
                    tuple(), tuple((rng.choice(VARS), rng.randint(1, 2)) for _ in range(rng.randint(0, 2)))
                ),
                field.from_int(rng.randint(-4, 4)),
            )
            for _ in range(rng.randint(0, 3))
        ]
        a = Poly.from_terms(field, terms_a)
        b = Poly.from_terms(field, terms_b)
        point = {v: rng.randint(-3, 3) for v in VARS}
        product = entry_product(a, b)
        assert eval_at(product, point) == field_mul(field, eval_at(a, point), eval_at(b, point))
        assert eval_at(poly_sum(a, b), point) == field.add(eval_at(a, point), eval_at(b, point))


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
    c = Poly.from_terms(RATIONALS, b.sorted_terms() + [(((YVar(3, 1, 1), 1),), Fraction(1))])
    assert a != c


def test_zero_polynomial_is_empty():
    y = ((YVar(1, 1, 1), 1),)
    f = Poly.from_terms(RATIONALS, [(y, Fraction(1)), (y, Fraction(-1))])
    assert f.terms == {}
    assert f.sorted_terms() == []
    assert f == Poly(RATIONALS, {})


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
    assert parse_coefficient("3/4", RATIONALS) == Fraction(3, 4)
    with pytest.raises(ValueError):
        parse_coefficient("1/2", PrimeField(3))


def test_rendering():
    fmt = str
    mono = ((YVar(1, 1, 1), 1), (YVar(1, 2, 2), 2))
    assert render_monomial(mono, fmt) == "y[1;1;1]*y[1;2;2]^2"
    poly = Poly.from_terms(
        RATIONALS,
        [(mono, Fraction(-3, 4)), ((), Fraction(2))],
    )
    assert render_poly(poly, fmt) == "2 - 3/4*y[1;1;1]*y[1;2;2]^2"
    assert render_poly(Poly(RATIONALS, {}), fmt) == "0"
