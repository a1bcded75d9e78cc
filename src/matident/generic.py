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
monomials only for the surviving nonzero classes and returns just the
nonzero entries, as a {(row, col): polynomial} map.  This is the path
argument behind the bases of Vasilovsky (Proc. AMS 127, 1999) and
Bahturin-Drensky (Linear Algebra Appl. 357, 2002).

Every producer reads signatures (`signatures` from `prefix_degrees`, and
`survivors`): eval, is-identity, certify, which reads a non-identity's
witness from its class sums (`_entries`), and equiv, where two words
share an entry exactly when their signatures are equal and survive.
Derivations take each word's prefix degrees from `signatures` and move
them with the letters, since both swap rules keep them.  Only the
certificate checkers walk chains, independent of the signature argument:
`word_product_closed` gives one monomial, with coefficient 1, at (start
row, end row) for every surviving chain.  The direct matrix-product
oracle that checks all of this is in `tests/helpers.py`.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from .commpoly import Coefficient, Field, Monomial, Poly, YVar, accumulate
from .freealg import FreePoly, Word, degree_sequence
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
    paths = grading.lset(degree_sequence(word))
    return {(k, path[-1]): _chain_monomial(word, path) for k, path in paths.items()}


def check_letters(group: Group, words: Iterable[Word]) -> None:
    """Validate each distinct degree of the words' letters once, with
    `group.check`.

    Degrees are told apart by object, not by value: a value key would
    merge 1 with True and let GVar(True, 1) through unchecked.  The parser
    makes one object per distinct element literal, so parsed input is
    checked once per literal.
    """
    for d in {id(v.degree): v.degree for word in words for v in word}.values():
        group.check(d)


def prefix_degrees(group: Group, word: Word) -> list[Element]:
    """A word's prefix degrees d_1 = e, d_{i+1} = d_i * deg(w_i), through
    its end degree d_{q+1}.  Trusts its letters (see `check_letters`)."""
    op = group.op
    degrees = [group.identity()]
    for v in word:
        degrees.append(op(degrees[-1], v.degree))
    return degrees


def signatures(grading: Grading, words: Collection[Word]) -> list[tuple[tuple, list[Element]]]:
    """Each word's signature, its sorted (letter, prefix degree) pairs and
    its end degree, with the word's `prefix_degrees`.  Refuses the empty
    word; each letter degree is validated once."""
    if () in words:
        raise ValueError("polynomial has a term with the empty word")
    group = grading.group
    check_letters(group, words)
    out = []
    for word in words:
        d = prefix_degrees(group, word)
        out.append(((tuple(sorted(zip(word, d))), d[-1]), d))
    return out


def _classes(grading: Grading, f: FreePoly) -> dict[tuple, Coefficient]:
    """Coefficient sums of f's terms per signature, zero sums dropped."""
    require_distinct(grading)
    classes: dict = {}
    for (key, _), coeff in zip(signatures(grading, f.terms), f.terms.values()):
        accumulate(f.field, classes, key, coeff)
    return classes


def survivors(grading: Grading, key: tuple) -> int:
    """Bit mask of the start rows whose chains survive a signature's words."""
    pairs, end = key
    return grading.survivors([end] + [d for _, d in pairs])


def evaluate(grading: Grading, f: FreePoly) -> dict[tuple[int, int], Poly]:
    """Substitute generic matrices for the variables of f: the nonzero
    entries of the result, as {(row, col): polynomial} with 1-based rows.

    Terms are summed per evaluation class (see `_classes`), and only the
    classes with a nonzero sum and a surviving start row build monomials:
    at start row k the letter (w_i, d_i) sits on the row carrying g_k * d_i,
    and the entry's column is the row carrying g_k * d_{q+1}.  Distinct
    classes give distinct monomials, so no entry sums across classes.
    Only valid for gradings whose tuple entries are pairwise distinct: on
    other tuples a generic matrix needs more than one variable per row, so
    they raise DistinctTupleError.
    """
    return _entries(grading, f.field, _classes(grading, f))


def _entries(grading: Grading, field: Field, classes: dict) -> dict[tuple[int, int], Poly]:
    """`evaluate`'s entries from the coefficient sum of each signature class."""
    entries: dict = {}
    for key, coeff in classes.items():
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
    return {pos: Poly(field, t) for pos, t in entries.items()}


def is_graded_identity(grading: Grading, f: FreePoly) -> bool:
    """Exact identity decision: no nonzero evaluation class has a surviving row.

    Builds no monomial.  Only valid for gradings whose tuple entries are
    pairwise distinct; other gradings raise DistinctTupleError.
    """
    return not any(survivors(grading, key) for key in _classes(grading, f))

