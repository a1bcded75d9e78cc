"""Generic matrices and exact graded-identity decision.

The generic matrix of degree h and index i places an independent commuting
variable y[h;i;k] at entry (k, s) for every row k whose degree-h matrix
unit E_{k,s} exists.  The algebra these matrices generate satisfies
exactly the graded identities of the graded matrix algebra, so a graded
polynomial is an identity precisely when its generic evaluation is the
zero matrix (for gradings with pairwise-distinct tuple entries).

Two evaluation paths are provided: `word_product_direct` multiplies the
matrices one by one, `word_product_closed` reads the result off the chain
structure (one monomial per surviving start row).  The closed form is the
default; the direct form is kept as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .commpoly import RATIONALS, Field, Monomial, Poly, YVar, render_poly
from .freealg import FreePoly, Word, degree_sequence, word_degree
from .grading import Grading
from .groups import Element


class DistinctTupleError(ValueError):
    """Raised when an identity query needs pairwise-distinct tuple entries."""


def require_distinct(grading: Grading) -> None:
    if not grading.is_distinct:
        raise DistinctTupleError(
            "grading tuple has repeated entries; identity decision is only "
            "supported for pairwise-distinct tuples"
        )


class GenericMatrix:
    """Sparse n x n matrix with polynomial entries (1-based positions)."""

    __slots__ = ("field", "n", "entries")

    def __init__(self, field: Field, n: int, entries: dict):
        self.field = field
        self.n = n
        self.entries = {pos: p for pos, p in entries.items() if not p.is_zero()}

    @classmethod
    def zero(cls, field: Field, n: int) -> "GenericMatrix":
        return cls(field, n, {})

    def is_zero(self) -> bool:
        return not self.entries

    def entry(self, i: int, j: int) -> Poly:
        return self.entries.get((i, j), Poly.zero(self.field))

    def __add__(self, other: "GenericMatrix") -> "GenericMatrix":
        if self.n != other.n or self.field != other.field:
            raise ValueError("matrix shape or field mismatch")
        entries = dict(self.entries)
        for pos, p in other.entries.items():
            acc = entries.get(pos)
            entries[pos] = p if acc is None else acc + p
        return GenericMatrix(self.field, self.n, entries)

    def __matmul__(self, other: "GenericMatrix") -> "GenericMatrix":
        if self.n != other.n or self.field != other.field:
            raise ValueError("matrix shape or field mismatch")
        by_row: dict[int, list[tuple[int, Poly]]] = {}
        for (k, j), q in other.entries.items():
            by_row.setdefault(k, []).append((j, q))
        entries: dict = {}
        for (i, k), p in self.entries.items():
            for j, q in by_row.get(k, ()):
                acc = entries.get((i, j))
                prod = p * q
                entries[(i, j)] = prod if acc is None else acc + prod
        return GenericMatrix(self.field, self.n, entries)

    def scale(self, value) -> "GenericMatrix":
        return GenericMatrix(
            self.field, self.n, {pos: p.scale(value) for pos, p in self.entries.items()}
        )

    def first_nonzero(self) -> Optional[tuple[tuple[int, int], Poly]]:
        """Entry at the row-major first nonzero position, if any."""
        if not self.entries:
            return None
        pos = min(self.entries)
        return pos, self.entries[pos]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenericMatrix):
            return NotImplemented
        return self.field == other.field and self.n == other.n and self.entries == other.entries

    __hash__ = None

    def render(self, degree_fmt) -> str:
        """Entries as "(i,j): polynomial" lines in row-major order."""
        if self.is_zero():
            return "0"
        lines = []
        for (i, j) in sorted(self.entries):
            lines.append(f"({i},{j}): {render_poly(self.entries[(i, j)], degree_fmt)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"GenericMatrix(n={self.n}, entries={len(self.entries)})"


def generic_matrix(grading: Grading, field: Field, h: Element, index: int) -> GenericMatrix:
    """The degree-h generic matrix with generic index `index`.

    One variable y[h;index;k] per row k whose degree-h unit exists; the
    zero matrix exactly when the degree-h component vanishes.
    """
    table = grading.step_table(h)
    if index < 1:
        raise ValueError(f"generic index must be >= 1, got {index}")
    entries: dict = {}
    for k in range(1, grading.n + 1):
        s = table[k]
        if s is not None:
            entries[(k, s)] = Poly.variable(field, YVar(h, index, k))
    return GenericMatrix(field, grading.n, entries)


def word_product_direct(grading: Grading, field: Field, word: Word) -> GenericMatrix:
    """Left-to-right product of the letters' generic matrices."""
    if not word:
        raise ValueError("cannot evaluate the empty word")
    result = generic_matrix(grading, field, word[0].degree, word[0].index)
    for v in word[1:]:
        result = result @ generic_matrix(grading, field, v.degree, v.index)
    return result


def word_product_closed(grading: Grading, field: Field, word: Word) -> GenericMatrix:
    """Product of generic matrices read off the surviving unit chains.

    For each start row k whose chain survives the word's degree sequence,
    the entry at (k, end row) is the single monomial collecting one
    variable per letter along the chain.
    """
    if not word:
        raise ValueError("cannot evaluate the empty word")
    ls = grading.lset(degree_sequence(word))
    entries: dict = {}
    for k in ls.starts:
        path = ls.paths[k]
        exps: dict = {}
        for v, row in zip(word, path):
            var = YVar(v.degree, v.index, row)
            exps[var] = exps.get(var, 0) + 1
        mono: Monomial = tuple(sorted(exps.items()))
        poly = Poly.monomial(field, mono)
        pos = (k, path[-1])
        acc = entries.get(pos)
        entries[pos] = poly if acc is None else acc + poly
    return GenericMatrix(field, grading.n, entries)


def evaluate(grading: Grading, f: FreePoly) -> GenericMatrix:
    """Substitute generic matrices for the variables of f.

    Every term's word product is added in place into one position ->
    monomial -> coefficient accumulator.  Only valid for gradings whose
    tuple entries are pairwise distinct: on other tuples a generic matrix
    needs more than one variable per row, so they raise
    DistinctTupleError.
    """
    require_distinct(grading)
    field = f.field
    acc: dict = {}
    for word, coeff in f.terms.items():
        if not word:
            raise ValueError("polynomial has a term with the empty word")
        for pos, p in word_product_closed(grading, field, word).entries.items():
            terms = acc.setdefault(pos, {})
            for mono, c in p.terms.items():
                total = field.add(terms.get(mono, field.zero), field.mul(coeff, c))
                if field.is_zero(total):
                    terms.pop(mono, None)
                else:
                    terms[mono] = total
    return GenericMatrix(field, grading.n, {pos: Poly(field, t) for pos, t in acc.items()})


def is_graded_identity(grading: Grading, f: FreePoly) -> bool:
    """Exact identity decision via generic evaluation.

    Only valid for gradings whose tuple entries are pairwise distinct;
    other gradings raise DistinctTupleError.
    """
    return evaluate(grading, f).is_zero()


class MatchingEntry(NamedTuple):
    position: tuple[int, int]
    monomial: Monomial


def matching_entry(grading: Grading, m: Word, n: Word) -> Optional[MatchingEntry]:
    """First position where both word evaluations carry the same monomial.

    Word evaluations have single-monomial entries with coefficient 1, so
    "same nonzero entry" is monomial equality.  Positions are scanned in
    row-major order.
    """
    if not m or not n:
        raise ValueError("matching entries are defined for nonempty words only")
    em = word_product_closed(grading, RATIONALS, m)
    en = word_product_closed(grading, RATIONALS, n)
    common = sorted(set(em.entries) & set(en.entries))
    for pos in common:
        if em.entries[pos] == en.entries[pos]:
            mono = next(iter(em.entries[pos].terms))
            return MatchingEntry(position=pos, monomial=mono)
    return None


@dataclass(frozen=True)
class MatchingPermutation:
    """Letter matching n = (letters of m permuted).

    `sigma[l-1]` is the 1-based position in m of n's l-th letter.  The
    degree condition holds at l when the degree of n's first l-1 letters
    equals the degree of m's first sigma(l)-1 letters; `alpha_checks`
    records each test.
    """

    sigma: tuple[int, ...]
    alpha_checks: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.alpha_checks)


def matching_permutation(
    grading: Grading, m: Word, n: Word, position: tuple[int, int]
) -> MatchingPermutation:
    """Recover the letter permutation behind a matching entry.

    When repeated letters admit several permutations, the lexicographically
    least valid one is returned.  Raises if the entry is not actually shared
    at `position` (which cannot happen when a MatchingEntry was computed).
    """
    k, col = position
    ls_m = grading.lset(degree_sequence(m))
    ls_n = grading.lset(degree_sequence(n))
    if k not in ls_m.paths or k not in ls_n.paths:
        raise ValueError(f"no shared nonzero entry in row {k}")
    path_m = ls_m.paths[k]
    path_n = ls_n.paths[k]
    if path_m[-1] != col or path_n[-1] != col:
        raise ValueError(f"chains from row {k} do not end in column {col}")
    if len(m) != len(n):
        raise ValueError("words with a shared entry must have equal length")

    # n's l-th letter must match an unused m-position with the same letter
    # and the same chain row; greedy least choice is lexicographically least.
    slots: dict[tuple, list[int]] = {}
    for a in range(len(m), 0, -1):
        key = (m[a - 1], path_m[a - 1])
        slots.setdefault(key, []).append(a)
    sigma: list[int] = []
    for l in range(1, len(n) + 1):
        key = (n[l - 1], path_n[l - 1])
        bucket = slots.get(key)
        if not bucket:
            raise ValueError(f"letter {l} of the second word has no partner in the first")
        sigma.append(bucket.pop())

    group = grading.group
    checks = []
    for l in range(1, len(n) + 1):
        lhs = word_degree(group, n[: l - 1])
        rhs = word_degree(group, m[: sigma[l - 1] - 1])
        checks.append(lhs == rhs)
    return MatchingPermutation(sigma=tuple(sigma), alpha_checks=tuple(checks))
