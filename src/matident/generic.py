"""Generic evaluation and exact graded-identity decision.

The generic matrix of degree h and index i places an independent commuting
variable y[h;i;k] at entry (k, s) for every row k whose degree-h matrix
unit E_{k,s} exists.  The algebra these matrices generate satisfies
exactly the graded identities of the graded matrix algebra, so a graded
polynomial is an identity precisely when its generic evaluation is the
zero matrix (for gradings with pairwise-distinct tuple entries).

A word's evaluation is read off the chain structure, never multiplied
out: `word_product_closed` gives one monomial, with coefficient 1, at
(start row, end row) for every surviving chain.  `evaluate` and the
identity decision sum those maps through `sum_evaluations`, which the
certificate code shares.

With a distinct tuple, the chain of a word from row k sits before its i-th
letter at the one row carrying g_k times the word's prefix degree.  The
monomial at row k therefore fixes the multiset of (letter, prefix degree)
pairs and the end degree, and those fix every surviving row and its
monomial: two nonempty word evaluations are either equal or share no
entry (`tests/test_generic.py::test_shared_entry_means_equal_evaluations`).
`letter_matching` decides sharing on the chains from one start row, and
pairs the letters row by row, without building monomials.  The direct
matrix-product oracle that checks all of this is in `tests/helpers.py`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .commpoly import Coefficient, Field, Monomial, Poly, YVar, accumulate, render_poly
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


def _chain_monomial(word: Word, path: Sequence[int]) -> Monomial:
    """The monomial collecting one variable per letter along a row path."""
    exps: dict = {}
    for v, row in zip(word, path):
        var = YVar(v.degree, v.index, row)
        exps[var] = exps.get(var, 0) + 1
    return tuple(sorted(exps.items()))


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
    return {(k, ls.paths[k][-1]): _chain_monomial(word, ls.paths[k]) for k in ls.starts}


def sum_evaluations(
    field: Field, n: int, weighted: Iterable[tuple[dict, Coefficient]]
) -> GenericMatrix:
    """Add each coefficient at every monomial of its word evaluation.

    `weighted` yields (word_product_closed map, coefficient) pairs; the
    result is the n x n generic matrix of their sum.
    """
    acc: dict = {}
    for entries, coeff in weighted:
        for pos, mono in entries.items():
            accumulate(field, acc.setdefault(pos, {}), mono, coeff)
    return GenericMatrix(field, n, {pos: Poly(field, t) for pos, t in acc.items()})


def evaluate(grading: Grading, f: FreePoly) -> GenericMatrix:
    """Substitute generic matrices for the variables of f.

    Every term adds its coefficient at each monomial of its word's
    evaluation.  Only valid for gradings whose tuple entries are pairwise
    distinct: on other tuples a generic matrix needs more than one
    variable per row, so they raise DistinctTupleError.
    """
    require_distinct(grading)
    if () in f.terms:
        raise ValueError("polynomial has a term with the empty word")
    return sum_evaluations(
        f.field,
        grading.n,
        ((word_product_closed(grading, word), coeff) for word, coeff in f.terms.items()),
    )


def is_graded_identity(grading: Grading, f: FreePoly) -> bool:
    """Exact identity decision via generic evaluation.

    Only valid for gradings whose tuple entries are pairwise distinct;
    other gradings raise DistinctTupleError.
    """
    return evaluate(grading, f).is_zero()


def letter_matching(grading: Grading, m: Word, n: Word) -> Optional[tuple[int, ...]]:
    """The letter matching of two words that share an evaluation entry.

    Returns sigma with `sigma[l-1]` the 1-based position in m of n's l-th
    letter, pairing equal letters on equal chain rows, or None when the
    evaluations share no entry.  With a distinct tuple two nonempty word
    evaluations are either equal or disjoint, so only the chains from m's
    first start row are read.  When repeated letters admit several
    matchings, the lexicographically least one is returned.
    """
    ls_m = grading.lset(degree_sequence(m))
    ls_n = grading.lset(degree_sequence(n))
    if len(m) != len(n) or ls_m.is_empty:
        return None
    k = ls_m.starts[0]
    path_m = ls_m.paths[k]
    path_n = ls_n.paths.get(k)
    if path_n is None or path_n[-1] != path_m[-1]:
        return None
    # n's l-th letter takes the least unused m-position with the same letter
    # and the same chain row; greedy least choice is lexicographically least.
    slots: dict[tuple, list[int]] = {}
    for a in range(len(m), 0, -1):
        slots.setdefault((m[a - 1], path_m[a - 1]), []).append(a)
    sigma: list[int] = []
    for key in zip(n, path_n):
        bucket = slots.get(key)
        if not bucket:
            return None
        sigma.append(bucket.pop())
    return tuple(sigma)
