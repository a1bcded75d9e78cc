"""Generic evaluation and exact graded-identity decision.

The generic matrix of degree h and index i places an independent commuting
variable y[h;i;k] at entry (k, s) for every row k whose degree-h matrix
unit E_{k,s} exists.  The algebra these matrices generate satisfies
exactly the graded identities of the graded matrix algebra, so a graded
polynomial is an identity precisely when its generic evaluation is the
zero matrix (for gradings with pairwise-distinct tuple entries).

With a distinct tuple, the chain of a word w from row k sits before its
i-th letter at the one row carrying g_k * d_i, where d_1 = e and
d_{i+1} = d_i * deg(w_i) are the prefix degrees.  A word's evaluation is
therefore fixed by its signature: the multiset of (letter, prefix degree)
pairs and the end degree d_{q+1}.  Row k survives exactly when every
g_k * d_i is a tuple entry, so the surviving start rows are the AND of
one n-bit mask per prefix degree (`Grading.step`), and the monomial at
row k has the variable of letter w_i on the row carrying g_k * d_i.
Two nonempty word evaluations are either equal or share no entry
(`tests/test_generic.py::test_shared_entry_means_equal_evaluations`).

`evaluate` and `is_graded_identity` sum the coefficients of f per
signature class and read each nonzero class's surviving rows from the
masks; the identity decision builds no monomial, and `evaluate` builds
monomials only for the surviving nonzero classes.  This is the path
argument behind the bases of Vasilovsky (Proc. AMS 127, 1999) and
Bahturin-Drensky (Linear Algebra Appl. 357, 2002).

Every producer reads signatures (`prefix_pairs`, `signatures`,
`survivors`): eval, is-identity, certify, and `letter_matching` for
equiv.  Only the certificate checkers walk chains, independent of the
signature argument: `word_product_closed` gives one monomial, with
coefficient 1, at (start row, end row) for every surviving chain.  The
direct matrix-product oracle that checks all of this is in
`tests/helpers.py`.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional, Sequence

from .commpoly import Coefficient, Field, Monomial, Poly, YVar, accumulate
from .freealg import FreePoly, GVar, Word, degree_sequence
from .grading import Grading
from .groups import Element, Group


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


def check_letters(group: Group, words: Iterable[Word]) -> None:
    """Validate each distinct letter of the words once, with `group.check`.

    Letters are told apart by object, not by value: a value key would
    merge GVar(1, 1) with GVar(True, 1) and let the second through
    unchecked.  The parser makes one object per distinct letter, so
    parsed input is checked once per letter.
    """
    for v in {id(v): v for word in words for v in word}.values():
        group.check(v.degree)


def prefix_pairs(group: Group, word: Word) -> tuple[list[tuple[GVar, Element]], Element]:
    """A word's (letter, prefix degree) pairs in word order, and its end degree.

    The prefix degrees are d_1 = e and d_{i+1} = d_i * deg(w_i), and the
    end degree is d_{q+1}.  Sorted, the pairs with the end degree are the
    word's signature.  Trusts its letters (see `check_letters`).
    """
    op = group.op
    d = group.identity()
    pairs = []
    for v in word:
        pairs.append((v, d))
        d = op(d, v.degree)
    return pairs, d


def signatures(grading: Grading, words: Collection[Word]) -> list[tuple]:
    """Each word's signature: its sorted (letter, prefix degree) pairs and
    its end degree.  Refuses the empty word; each letter is validated once."""
    if () in words:
        raise ValueError("polynomial has a term with the empty word")
    group = grading.group
    check_letters(group, words)
    keys = []
    for word in words:
        pairs, end = prefix_pairs(group, word)
        keys.append((tuple(sorted(pairs)), end))
    return keys


def _classes(grading: Grading, f: FreePoly) -> dict[tuple, Coefficient]:
    """Coefficient sums of f's terms per signature, zero sums dropped."""
    require_distinct(grading)
    classes: dict = {}
    for key, coeff in zip(signatures(grading, f.terms), f.terms.values()):
        accumulate(f.field, classes, key, coeff)
    return classes


def survivors(grading: Grading, key: tuple) -> int:
    """Bit mask of the start rows whose chains survive a signature's words."""
    pairs, end = key
    mask = grading.step(end)[1]
    for _, d in pairs:
        if not mask:
            break
        mask &= grading.step(d)[1]
    return mask


def evaluate(grading: Grading, f: FreePoly) -> GenericMatrix:
    """Substitute generic matrices for the variables of f.

    Terms are summed per evaluation class (see `_classes`), and only the
    classes with a nonzero sum and a surviving start row build monomials:
    at start row k the letter (w_i, d_i) sits on the row carrying g_k * d_i,
    and the entry's column is the row carrying g_k * d_{q+1}.  Distinct
    classes give distinct monomials, so no entry sums across classes.
    Only valid for gradings whose tuple entries are pairwise distinct: on
    other tuples a generic matrix needs more than one variable per row, so
    they raise DistinctTupleError.
    """
    entries: dict = {}
    for key, coeff in _classes(grading, f).items():
        mask = survivors(grading, key)
        if not mask:
            continue
        pairs, end = key
        letters = [v for v, _ in pairs]
        tables = [grading.step(d)[0] for _, d in pairs]
        end_table = grading.step(end)[0]
        while mask:
            k = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            mono = _chain_monomial(letters, [table[k] for table in tables])
            entries.setdefault((k, end_table[k]), {})[mono] = coeff
    return GenericMatrix(f.field, grading.n, {pos: Poly(f.field, t) for pos, t in entries.items()})


def is_graded_identity(grading: Grading, f: FreePoly) -> bool:
    """Exact identity decision: no nonzero evaluation class has a surviving row.

    Builds no monomial.  Only valid for gradings whose tuple entries are
    pairwise distinct; other gradings raise DistinctTupleError.
    """
    return not any(survivors(grading, key) for key in _classes(grading, f))


def letter_matching(grading: Grading, m: Word, n: Word) -> Optional[tuple[int, ...]]:
    """The letter matching of two words that share an evaluation entry.

    Returns sigma with `sigma[l-1]` the 1-based position in m of n's l-th
    letter, or None when the evaluations share no entry.  With a distinct
    tuple two nonempty word evaluations are either equal or disjoint, and
    they are equal exactly when the words have one signature; the chain
    from start row k carries the pair (w_i, d_i) on the row of g_k * d_i,
    so the matching pairs equal (letter, prefix degree) pairs.  When
    repeated letters admit several matchings, the lexicographically least
    one is returned.
    """
    if not m or not n:
        raise ValueError("degree sequence must be nonempty")
    group = grading.group
    check_letters(group, (m, n))
    if len(m) != len(n):
        return None
    pairs_m, end = prefix_pairs(group, m)
    pairs_n, end_n = prefix_pairs(group, n)
    key = (tuple(sorted(pairs_m)), end)
    if key != (tuple(sorted(pairs_n)), end_n) or not survivors(grading, key):
        return None
    # n's l-th letter takes the least unused m-position with the same pair;
    # greedy least choice is lexicographically least.
    slots: dict[tuple, list[int]] = {}
    for a in range(len(m), 0, -1):
        slots.setdefault(pairs_m[a - 1], []).append(a)
    return tuple(slots[pair].pop() for pair in pairs_n)
