"""Exact coefficient fields and sparse polynomials as keyed maps.

Coefficients are exact: Fractions over the rationals, residues over a
prime field.  A polynomial is a canonical key -> coefficient map with no
zero coefficient stored, built by summing terms with `accumulate` or
`from_terms`; it offers no ring operations, because the engine only ever
sums one monomial per surviving chain.  `Poly` keys its terms by
monomials, canonical sorted tuples of (variable, exponent) pairs over the
`YVar` triples (degree, generic index, row) of the generic matrices.  The
free algebra's `FreePoly` shares the `SparsePoly` core and keys its terms
by words instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple

Coefficient = Any  # Fraction for Rationals, int residue for PrimeField
Monomial = tuple  # ((var, exp), ...) sorted by var, exps > 0


# Miller-Rabin over the primes up to 41 decides primality exactly below
# PRIME_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster 2015).  Without 41, 399165290221 * 798330580441 would pass.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_probable_prime(n: int) -> bool:
    # Deterministic Miller-Rabin, exact for all n < PRIME_LIMIT.
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Rationals:
    """The field Q with exact Fraction arithmetic."""

    characteristic = 0

    def from_int(self, value: int) -> Coefficient:
        return Fraction(value)

    def add(self, a: Coefficient, b: Coefficient) -> Coefficient:
        return a + b

    def neg(self, a: Coefficient) -> Coefficient:
        return -a

    def is_zero(self, a: Coefficient) -> bool:
        return a == 0

    zero = Fraction(0)
    one = Fraction(1)

    def format(self, a: Coefficient) -> str:
        return str(a)

    def __str__(self) -> str:
        return "rationals"


@dataclass(frozen=True)
class PrimeField:
    """The field F_p; coefficients are residues 0..p-1."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or isinstance(self.p, bool) or not _is_probable_prime(self.p):
            raise ValueError(f"{self.p!r} is not prime")
        if self.p >= PRIME_LIMIT:
            raise ValueError(
                f"prime fields need p < {PRIME_LIMIT}, where primality is decided exactly"
            )

    characteristic = property(lambda self: self.p)

    def from_int(self, value: int) -> Coefficient:
        return value % self.p

    def add(self, a: Coefficient, b: Coefficient) -> Coefficient:
        return (a + b) % self.p

    def neg(self, a: Coefficient) -> Coefficient:
        return (-a) % self.p

    def is_zero(self, a: Coefficient) -> bool:
        return a % self.p == 0

    zero = 0
    one = 1

    def format(self, a: Coefficient) -> str:
        return str(a % self.p)

    def __str__(self) -> str:
        return f"fp:{self.p}"


RATIONALS = Rationals()

Field = Any  # Rationals | PrimeField


def parse_field(text: str) -> Field:
    """Parse a field selector: "rationals" or "fp:<prime>"."""
    text = text.strip().lower()
    if text in ("rationals", "q", "qq"):
        return RATIONALS
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise ValueError(f"invalid prime in field selector {text!r}") from None
        return PrimeField(p)
    raise ValueError(f"unknown field selector {text!r}; use 'rationals' or 'fp:<prime>'")


class YVar(NamedTuple):
    """Commuting variable attached to a generic matrix entry.

    `degree` is the raw group-element value of the generic matrix, `index`
    its generic index, `row` the matrix row the entry sits in.  Tuple order
    (degree, index, row) is the canonical variable order.
    """

    degree: Any
    index: int
    row: int


def accumulate(field: Field, terms: dict, key: Any, c: Coefficient) -> None:
    """Add c into terms[key], dropping the key when the sum cancels."""
    total = field.add(terms.get(key, field.zero), c)
    if field.is_zero(total):
        terms.pop(key, None)
    else:
        terms[key] = total


class SparsePoly:
    """Immutable sparse key -> coefficient map over a fixed field.

    No zero coefficient is stored, so equal polynomials have equal maps.
    There is no ring arithmetic: polynomials are built by `from_terms` or
    by `accumulate` into a dict.  Subclasses fix the display order of keys
    (`sort_key`); the empty key renders as a constant.
    """

    __slots__ = ("field", "terms")

    sort_key: Callable[[Any], Any]

    def __init__(self, field: Field, terms: dict):
        self.field = field
        self.terms = terms

    @classmethod
    def from_terms(cls, field: Field, items: Iterable[tuple[Any, Coefficient]]):
        terms: dict = {}
        for key, c in items:
            accumulate(field, terms, tuple(key), c)
        return cls(field, terms)

    def sorted_terms(self) -> list[tuple[Any, Coefficient]]:
        return sorted(self.terms.items(), key=lambda t: self.sort_key(t[0]))

    def render(self, render_key: Callable[[Any], str]) -> str:
        """Signed sum such as "2 - 3/4*a + b", in `sorted_terms` order.

        `render_key` writes one nonempty key; a coefficient of 1 is left
        out in front of a key, and the unit key shows its coefficient only.
        """
        chunks: list[str] = []
        for key, c in self.sorted_terms():
            coeff_text = self.field.format(c)
            negative = coeff_text.startswith("-")
            magnitude = coeff_text[1:] if negative else coeff_text
            if not key:
                piece = magnitude
            elif magnitude == "1":
                piece = render_key(key)
            else:
                piece = f"{magnitude}*{render_key(key)}"
            if not chunks:
                chunks.append(f"-{piece}" if negative else piece)
            else:
                chunks.append(f"- {piece}" if negative else f"+ {piece}")
        return " ".join(chunks) or "0"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    __hash__ = None  # mutable dict inside; equality by content only

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.field}, {self.sorted_terms()!r})"


class Poly(SparsePoly):
    """Commutative polynomial: keys are monomials, in canonical order."""

    __slots__ = ()

    sort_key = staticmethod(lambda mono: mono)


def render_yvar(var: YVar, degree_fmt: Callable[[Any], str]) -> str:
    return f"y[{degree_fmt(var.degree)};{var.index};{var.row}]"


def render_monomial(mono: Monomial, degree_fmt: Callable[[Any], str]) -> str:
    """Render a monomial as a y[h;i;k] product with ^e exponents."""
    if not mono:
        return "1"
    parts = []
    for var, e in mono:
        head = render_yvar(var, degree_fmt)
        parts.append(head if e == 1 else f"{head}^{e}")
    return "*".join(parts)


def render_poly(poly: Poly, degree_fmt: Callable[[Any], str]) -> str:
    return poly.render(lambda mono: render_monomial(mono, degree_fmt))
