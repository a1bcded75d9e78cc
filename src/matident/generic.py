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

Every producer reads signatures (`signatures` from `prefix_pairs`, and
`survivors`): eval, is-identity, certify, which reads a non-identity's
witness from its class sums (`_entries`), and equiv, where two words
share an entry exactly when their signatures are equal and survive.
Both swap rules keep every letter's prefix degree, so a word's pairs
are its whole rewrite state: derivations rearrange the pair lists that
`signatures` returns, and the checkers replay on the start's.  Only the
certificate checkers walk chains, independent of the signature argument:
`chain_key` advances all rows through each letter at once (`Grading.walk`)
and gives, at (start row, end row) for every surviving chain, the rows the
chain visits in sorted-letter order.  Between words with the same letters
these rows say what the chain's monomial says, with no `YVar` built.  The
closed-form monomial map `word_product_closed` and the direct
matrix-product oracle that check all of this are in `tests/helpers.py`.
"""

from __future__ import annotations

from itertools import groupby
from typing import Collection, Iterable, Sequence

from .commpoly import Coefficient, Field, Monomial, Poly, YVar, accumulate
from .freealg import FreePoly, Word, degree_sequence
from .grading import Grading
from .groups import Group


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


def chain_key(grading: Grading, word: Word) -> dict[tuple[int, int], tuple[int, ...]]:
    """The certificate checkers' form of a word's generic evaluation:
    {(start row, end row): rows the chain visits} for every surviving chain,
    read from one `Grading.walk` of all rows.

    The rows are listed in the order of the word's sorted letters, the row
    before each letter, and sorted within each run of a repeated letter.
    So they place each letter on its rows as the chain's monomial places
    its variables, and two words with the same letters get equal keys
    exactly when their evaluations are equal.  The map is empty exactly
    when the word is a monomial identity.  Reads no prefix degree, builds
    no `YVar` and trusts its letters (see `check_letters`).
    """
    if not word:
        raise ValueError("cannot evaluate the empty word")
    order = sorted(range(len(word)), key=word.__getitem__)
    stages = grading.walk(degree_sequence(word))
    rows = zip(*[stages[i] for i in order])  # one tuple per start row, dead row 0 first
    key = {(k, end): path for k, (end, path) in enumerate(zip(stages[-1], rows)) if end}
    if len(set(word)) == len(word):
        return key
    runs, a = [], 0  # [a, b) for each run of a repeated letter among the sorted letters
    for _, run in groupby(word[i] for i in order):
        b = a + sum(1 for _ in run)
        if b - a > 1:
            runs.append((a, b))
        a = b
    for pos, path in key.items():
        path = list(path)
        for a, b in runs:
            path[a:b] = sorted(path[a:b])
        key[pos] = tuple(path)
    return key


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


def prefix_pairs(group: Group, word: Word) -> list[tuple]:
    """A word's (letter, prefix degree) pairs (w_i, d_i), with d_1 = e and
    d_{i+1} = d_i * deg(w_i), then (None, d_{q+1}), which carries the end
    degree and no letter.  Trusts its letters (see `check_letters`)."""
    op, d, pairs = group.op, group.identity(), []
    for v in word:
        pairs.append((v, d))
        d = op(d, v.degree)
    pairs.append((None, d))
    return pairs


def signatures(grading: Grading, words: Collection[Word]) -> list[tuple[tuple, list[tuple]]]:
    """Each word's signature, its sorted (letter, prefix degree) pairs and
    its end degree, with the word's `prefix_pairs`.  Refuses the empty
    word; each letter degree is validated once."""
    if () in words:
        raise ValueError("polynomial has a term with the empty word")
    group = grading.group
    check_letters(group, words)
    out = []
    for word in words:
        pairs = prefix_pairs(group, word)
        out.append(((tuple(sorted(pairs[:-1])), pairs[-1][1]), pairs))
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

