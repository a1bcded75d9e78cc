"""The free graded associative algebra on variables x[h;i].

Words are tuples of graded variables; polynomials are canonical
word -> coefficient maps.  The degree of a word is the ordered product of
its letter degrees (the empty word has neutral degree and acts as the unit
for concatenation, but is rejected by identity queries downstream).

Textual syntax, whitespace-insensitive:

    polynomial := '0' | [sign] term (sign term)*
    term       := [coefficient '*'] factor ('*' factor)*
    factor     := 'x' '[' element ';' integer ']'
    coefficient:= integer | integer '/' integer   (fractions only over Q)
    residual   := ['-'] coefficient               (`parse_coefficient`)

Whitespace is any character for which `str.isspace` holds, and an integer
is a run of decimal digits (`str.isdecimal`, so '٣' reads as 3 and '²' is
refused).  An element literal is the text up to the next ';', stripped, in
the group's own syntax ("3", "(1,0)", labels).
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from typing import Any, NamedTuple, NoReturn, Optional

from .commpoly import RATIONALS, Coefficient, Field, SparsePoly
from .groups import Element, Group

MUL_PATTERN = "*"


class GVar(NamedTuple):
    """Free-algebra variable: a (degree, index) pair."""

    degree: Any
    index: int


Word = tuple  # tuple[GVar, ...]


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


def multihomogeneous_components(f: FreePoly) -> list[FreePoly]:
    """Partition terms by their sorted letters, which fix the multidegree,
    and order the parts by multidegree; components sum back to the input."""
    buckets: dict[tuple, dict] = {}
    for word, c in f.terms.items():
        buckets.setdefault(tuple(sorted(word)), {})[word] = c
    ordered = sorted(buckets.values(), key=lambda terms: multidegree(next(iter(terms))))
    return [FreePoly(f.field, terms) for terms in ordered]


# ---------------------------------------------------------------------------
# formatting


def format_word(group: Group, word: Word) -> str:
    if not word:
        raise ValueError("the empty word has no textual form")
    return MUL_PATTERN.join(f"x[{group.format(v.degree)};{v.index}]" for v in word)


def format_polynomial(group: Group, f: FreePoly, texts: Optional[dict[Word, str]] = None) -> str:
    """`texts`, when given, maps words to their text; f's other words are added."""
    texts = {} if texts is None else texts
    for word in f.terms:
        if word not in texts:
            texts[word] = format_word(group, word)
    return f.render(texts.__getitem__)


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# `\s` is exactly `str.isspace` and `\d` exactly `str.isdecimal`, on every
# code point.  An element literal is everything up to the next ';'.
_LETTER = re.compile(r"x\s*\[([^;]*);\s*(\d+)\s*\]")
_TERM = re.compile(
    r"\s*(?:([+-])\s*)?"  # sign
    r"(?:(\d+)\s*(?:/\s*(\d+)\s*)?\*\s*)?"  # coefficient num[/den] '*'
    r"(x\s*\[[^;]*;\s*\d+\s*\](?:\s*\*\s*x\s*\[[^;]*;\s*\d+\s*\])*)"  # factors
    r"(?!\s*\*)\s*"  # a '*' after the last factor refuses the term, not ends it
)
_COEFFICIENT = re.compile(r"\s*(?:(-)\s*)?(\d+)\s*(?:/\s*(\d+)\s*)?")
_SPACE = re.compile(r"\s*")
_INTEGER = re.compile(r"\s*(\d*)")


def parse_polynomial(
    text: str, group: Group, field: Field, _bodies: Optional[dict[str, Word]] = None
) -> FreePoly:
    """Parse the textual polynomial syntax into a canonical polynomial.

    '0' reads as the zero polynomial, and otherwise each term is one match
    of `_TERM`.  On the accepting path `group.parse`
    runs once per distinct literal text and `GVar` is built once per
    distinct (literal, index) text; a refused term goes to `_refuse`.

    `_bodies`, when given, receives each term's factor text mapped to its
    word.  `parse_word` of that text builds the same word: it is one term
    with coefficient 1, and parsing is a pure function of the text.
    """
    if text.strip() == "0":
        return FreePoly(field, {})
    degrees: dict[str, Element] = {}
    letters: dict[tuple[str, str], GVar] = {}
    terms: list[tuple[Word, Coefficient]] = []
    pos, end = 0, len(text)
    while not terms or pos < end:
        m = _TERM.match(text, pos)
        # the first term takes no '+', every later one needs a sign
        if m is None or m[1] == ("+" if not terms else None):
            _refuse(text, pos, not terms, group, field, degrees)
        sign, num, den, body = m.groups()
        coeff = _coefficient(field, sign, num, den)
        if coeff is None:
            _refuse(text, pos, not terms, group, field, degrees)
        word = []
        for key in _LETTER.findall(body):
            letter = letters.get(key)
            if letter is None:
                letter = _letter(key, group, degrees)
                if letter is None:
                    _refuse(text, pos, not terms, group, field, degrees)
                letters[key] = letter
            word.append(letter)
        word = tuple(word)
        if _bodies is not None:
            _bodies[body] = word
        terms.append((word, coeff))
        pos = m.end()
    return FreePoly.from_terms(field, terms)


def _coefficient(
    field: Field, sign: Optional[str], num: Optional[str], den: Optional[str]
) -> Optional[Coefficient]:
    """A term's coefficient from its texts (1 if no number), or None if refused."""
    if num is None:
        coeff = field.one
    elif den is None:
        coeff = field.from_int(int(num))
    elif field.characteristic or not int(den):
        return None
    else:
        coeff = Fraction(int(num), int(den))
    return field.neg(coeff) if sign == "-" else coeff


def parse_coefficient(text: str, field: Field) -> Coefficient:
    """Read ['-'] coefficient, whitespace-insensitive, as a term's is read."""
    m = _COEFFICIENT.fullmatch(text)
    coeff = None if m is None else _coefficient(field, *m.groups())
    if coeff is None:
        raise ValueError(f"invalid coefficient {text!r} over {field}")
    return coeff


def _letter(key: tuple[str, str], group: Group, degrees: dict) -> Optional[GVar]:
    """The variable of one factor's (literal, index) text, or None when a
    check refuses it."""
    literal = key[0].strip()
    if literal not in degrees:
        if not literal:
            return None
        try:
            degrees[literal] = group.parse(literal)
        except ValueError:
            return None
    index = int(key[1])
    return GVar(degrees[literal], index) if index >= 1 else None


def _refuse(
    text: str, pos: int, first: bool, group: Group, field: Field, degrees: dict
) -> NoReturn:
    """Raise the error of the term at `pos`, which `_TERM` or a value check
    refused.

    Walks the term one token at a time, with the checks of the accepting
    path in the same order, so the error names the first offending
    character.  It builds no term.
    """

    def skip(p: int) -> int:
        return _SPACE.match(text, p).end()

    def expect(p: int, ch: str) -> int:
        if not text.startswith(ch, p):
            raise ParseError(f"expected {ch!r}", p)
        return p + 1

    def integer(p: int) -> tuple[int, int]:
        m = _INTEGER.match(text, p)
        if not m[1]:
            raise ParseError("expected an integer", m.start(1))
        return int(m[1]), m.end()

    term_start = pos = skip(pos)
    if pos == len(text):
        raise ParseError("empty polynomial", pos)
    if text[pos] in "+-":
        if first and text[pos] == "+":
            raise ParseError("unexpected leading '+'", pos)
        pos = skip(pos + 1)
    elif not first:
        raise ParseError("expected '+' or '-' between terms", pos)
    if text[pos : pos + 1].isdecimal():
        start = pos
        _, pos = integer(pos)
        pos = skip(pos)
        if text.startswith("/", pos):
            den_start = pos + 1
            den, pos = integer(den_start)
            if field.characteristic:
                raise ParseError(f"fractional coefficient not valid over {field}", start)
            if den == 0:
                raise ParseError("zero denominator", den_start)
        pos = expect(skip(pos), MUL_PATTERN)
    while True:
        pos = skip(pos)
        if not text.startswith("x", pos):
            raise ParseError("expected a variable factor 'x[...]'", pos)
        pos = expect(skip(pos + 1), "[")
        semi = text.find(";", pos)
        if semi < 0:
            raise ParseError("expected ';'", pos)
        literal = text[pos:semi].strip()
        if not literal:
            raise ParseError("empty element literal", pos)
        if literal not in degrees:
            try:
                degrees[literal] = group.parse(literal)
            except ValueError as exc:
                raise ParseError(str(exc), pos) from None
        index, pos = integer(semi + 1)
        if index < 1:
            raise ParseError("variable index must be >= 1", semi + 1)
        pos = skip(expect(skip(pos), "]"))
        if not text.startswith(MUL_PATTERN, pos):
            raise AssertionError(f"the term at {term_start} is well formed, yet it was refused")
        pos += 1


def parse_word(text: str, group: Group) -> Word:
    """Parse a single word (a one-term polynomial with coefficient 1)."""
    poly = parse_polynomial(text, group, RATIONALS)
    items = poly.sorted_terms()
    if len(items) != 1 or items[0][1] != RATIONALS.one:
        raise ValueError(f"{text!r} is not a single word with coefficient 1")
    return items[0][0]
