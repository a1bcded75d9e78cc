"""The free graded associative algebra on variables x[h;i].

Words are tuples of graded variables; polynomials are canonical
word -> coefficient maps.  The degree of a word is the ordered product of
its letter degrees (the empty word has neutral degree and acts as the unit
for concatenation, but is rejected by identity queries downstream).

Textual syntax, whitespace-insensitive:

    polynomial := [sign] term (sign term)*
    term       := [coefficient '*'] factor ('*' factor)*
    factor     := 'x' '[' element ';' integer ']'
    coefficient:= integer | integer '/' integer   (fractions only over Q)

Element literals follow the group's own syntax ("3", "(1,0)", labels).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Any, NamedTuple

from .commpoly import RATIONALS, Coefficient, Field, SparsePoly
from .groups import Element, Group

MUL_PATTERN = "*"


class GVar(NamedTuple):
    """Free-algebra variable: a (degree, index) pair."""

    degree: Any
    index: int


Word = tuple  # tuple[GVar, ...]


def word_degree(group: Group, word: Word) -> Element:
    """Ordered product of the letter degrees; empty word gives the identity."""
    acc = group.identity()
    for v in word:
        acc = group.op(acc, v.degree)
    return acc


def degree_sequence(word: Word) -> tuple[Element, ...]:
    return tuple(v.degree for v in word)


def multidegree(word: Word) -> tuple:
    """Occurrence count per variable, as a canonical sorted tuple."""
    return tuple(sorted(Counter(word).items()))


class FreePoly(SparsePoly):
    """Immutable polynomial in the free graded algebra: keys are words,
    listed shortest first."""

    __slots__ = ()

    sort_key = staticmethod(lambda word: (len(word), word))


def is_multihomogeneous(f: FreePoly) -> bool:
    """True when all terms share the same per-variable occurrence counts."""
    degrees = {multidegree(w) for w in f.terms}
    return len(degrees) <= 1


def multihomogeneous_components(f: FreePoly) -> list[FreePoly]:
    """Partition terms by multidegree; components sum back to the input."""
    buckets: dict[tuple, dict] = {}
    for word, c in f.terms.items():
        buckets.setdefault(multidegree(word), {})[word] = c
    return [FreePoly(f.field, terms) for _, terms in sorted(buckets.items())]


# ---------------------------------------------------------------------------
# formatting


def format_word(group: Group, word: Word) -> str:
    if not word:
        raise ValueError("the empty word has no textual form")
    return MUL_PATTERN.join(f"x[{group.format(v.degree)};{v.index}]" for v in word)


def format_polynomial(group: Group, f: FreePoly) -> str:
    return f.render(lambda word: format_word(group, word))


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    @property
    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def until(self, stop: str) -> str:
        start = self.pos
        idx = self.text.find(stop, self.pos)
        if idx < 0:
            raise ParseError(f"expected {stop!r}", start)
        self.pos = idx
        return self.text[start:idx]


def _parse_factor(sc: _Scanner, group: Group) -> GVar:
    sc.skip_ws()
    if sc.peek() != "x":
        raise ParseError("expected a variable factor 'x[...]'", sc.pos)
    sc.take()
    sc.skip_ws()
    sc.expect("[")
    elem_start = sc.pos
    elem_text = sc.until(";").strip()
    if not elem_text:
        raise ParseError("empty element literal", elem_start)
    try:
        degree = group.parse(elem_text)
    except ValueError as exc:
        raise ParseError(str(exc), elem_start) from None
    sc.expect(";")
    idx_start = sc.pos
    index = sc.integer()
    if index < 1:
        raise ParseError("variable index must be >= 1", idx_start)
    sc.skip_ws()
    sc.expect("]")
    return GVar(degree, index)


def _parse_coefficient(sc: _Scanner, field: Field) -> Coefficient:
    start = sc.pos
    num = sc.integer()
    sc.skip_ws()
    if sc.peek() == "/":
        sc.take()
        den_start = sc.pos
        den = sc.integer()
        if getattr(field, "characteristic", 0) != 0:
            raise ParseError(f"fractional coefficient not valid over {field}", start)
        if den == 0:
            raise ParseError("zero denominator", den_start)
        return Fraction(num, den)
    return field.from_int(num)


def parse_polynomial(text: str, group: Group, field: Field) -> FreePoly:
    """Parse the textual polynomial syntax into a canonical polynomial."""
    sc = _Scanner(text)
    terms: list[tuple[Word, Coefficient]] = []
    first = True
    while True:
        sc.skip_ws()
        if sc.at_end:
            if first:
                raise ParseError("empty polynomial", sc.pos)
            break
        sign = 1
        if sc.peek() in "+-":
            if first and sc.peek() == "+":
                raise ParseError("unexpected leading '+'", sc.pos)
            sign = -1 if sc.take() == "-" else 1
            sc.skip_ws()
        elif not first:
            raise ParseError("expected '+' or '-' between terms", sc.pos)
        coeff = field.one
        if sc.peek().isdigit():
            coeff = _parse_coefficient(sc, field)
            sc.skip_ws()
            sc.expect(MUL_PATTERN)
        letters = [_parse_factor(sc, group)]
        while True:
            sc.skip_ws()
            if sc.peek() == MUL_PATTERN:
                sc.take()
                letters.append(_parse_factor(sc, group))
            else:
                break
        if sign < 0:
            coeff = field.neg(coeff)
        terms.append((tuple(letters), coeff))
        first = False
    return FreePoly.from_terms(field, terms)


def parse_word(text: str, group: Group) -> Word:
    """Parse a single word (a one-term polynomial with coefficient 1)."""
    poly = parse_polynomial(text, group, RATIONALS)
    items = poly.sorted_terms()
    if len(items) != 1 or items[0][1] != RATIONALS.one:
        raise ValueError(f"{text!r} is not a single word with coefficient 1")
    return items[0][0]
