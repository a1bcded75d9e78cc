"""Generic evaluation and exact graded-identity decision.

The generic matrix of degree h and index i places an independent commuting
variable y[h;i;k] at entry (k, s) for every row k whose degree-h matrix
unit E_{k,s} exists.  The algebra these matrices generate satisfies
exactly the graded identities of the graded matrix algebra, so a graded
polynomial is an identity precisely when its generic evaluation is the
zero matrix (for gradings with pairwise-distinct tuple entries).

A word's evaluation is read off the chain structure, never multiplied
out: `word_product_closed` gives one monomial, with coefficient 1, at
(start row, end row) for every surviving chain.  `evaluate`, the identity
decision, `matching_entry` and the certificate code are built on that
map.  The direct matrix-product oracle that checks it is in
`tests/helpers.py`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .commpoly import Field, Monomial, Poly, YVar, accumulate, render_poly
from .freealg import FreePoly, Word, degree_sequence
from .grading import Grading


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

    def is_zero(self) -> bool:
        return not self.entries

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


def word_product_closed(grading: Grading, word: Word) -> dict[tuple[int, int], Monomial]:
    """A word's generic evaluation as {(start row, end row): monomial}.

    For each start row k whose chain survives the word's degree sequence,
    the entry at (k, end row) is the single monomial, with coefficient 1,
    collecting one variable per letter along the chain.  Distinct start
    rows give distinct positions, and the map is empty exactly when the
    word is a monomial identity.
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
        entries[(k, path[-1])] = tuple(sorted(exps.items()))
    return entries


def evaluate(grading: Grading, f: FreePoly) -> GenericMatrix:
    """Substitute generic matrices for the variables of f.

    Every term adds its coefficient at each monomial of its word's
    evaluation.  Only valid for gradings whose tuple entries are pairwise
    distinct: on other tuples a generic matrix needs more than one
    variable per row, so they raise DistinctTupleError.
    """
    require_distinct(grading)
    field = f.field
    acc: dict = {}
    for word, coeff in f.terms.items():
        if not word:
            raise ValueError("polynomial has a term with the empty word")
        for pos, mono in word_product_closed(grading, word).items():
            accumulate(field, acc.setdefault(pos, {}), mono, coeff)
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

    Positions are scanned in row-major order.
    """
    if not m or not n:
        raise ValueError("matching entries are defined for nonempty words only")
    em = word_product_closed(grading, m)
    en = word_product_closed(grading, n)
    for pos in sorted(em.keys() & en.keys()):
        if em[pos] == en[pos]:
            return MatchingEntry(position=pos, monomial=em[pos])
    return None


def matching_permutation(
    grading: Grading, m: Word, n: Word, position: tuple[int, int]
) -> tuple[int, ...]:
    """Recover the letter permutation behind a matching entry.

    Returns sigma with `sigma[l-1]` the 1-based position in m of n's l-th
    letter.  When repeated letters admit several permutations, the
    lexicographically least valid one is returned.  Raises if the entry is
    not actually shared at `position` (which cannot happen when a
    MatchingEntry was computed).
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
    return tuple(sigma)
