"""Shared fixtures: gradings, random generators, and independent oracles.

The oracles here deliberately avoid the chain-based evaluation path: chains
are walked with one group operation per step instead of the grading's step
tables, generic matrices are multiplied entry by entry, and monomial
identities are decided by exhaustive matrix-unit substitution.  The
minimality oracle tests every proper factor and every coarsening on its
own chain walk, the filter the prefix-degree masks replaced.  The
certify oracle is the algorithm the indexed loop replaced: linear scans for
every target and source, and a derivation that recovers each step's letter
matching by comparing evaluation maps and walking naive chains, and tests
block neutrality with group products on the current words, where
`rewrite` reads both from prefix degrees carried along the derivation.  The
equivalence checker oracle re-evaluates the word after every rewrite
step, where `check_equivalence_certificate` compares the two ends once.
Both oracles apply steps with `apply_step_by_blocks`, which multiplies
each block's letter degrees where `apply_step` compares prefix degrees.
`neutral_report_by_units` scans and multiplies matrix units, where
`info` reads the one fact that decides all three views: whether the tuple
entries are pairwise distinct (`Grading.is_distinct`).
`is_monomial_identity` decides one degree sequence from its survivor
masks, as the enumerator's automaton does one letter at a time.  `elements` enumerates
the finite groups the tests sample from; the groups themselves do not.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from matident import (
    CayleyGroup,
    CyclicGroup,
    FreePoly,
    Grading,
    GVar,
    Group,
    IntegerGroup,
    ProductGroup,
    RATIONALS,
)
from matident.cli import main
from matident.commpoly import Coefficient, Field, Poly, YVar, accumulate
from matident.freealg import (
    MUL_PATTERN,
    ParseError,
    Word,
    multidegree,
)
from matident.generic import evaluate, require_distinct, word_product_closed
from matident.rewrite import (
    CONJUGATE_SWAP,
    JUSTIFY_EMPTY_LSET,
    JUSTIFY_OUTSIDE_SUPPORT,
    NEUTRAL_SWAP,
    CheckResult,
    EquivalenceCertificate,
    Justification,
    MembershipCertificate,
    NonIdentityWitness,
    Pairing,
    ResidualTerm,
    RewriteStep,
    StepError,
    _swap,
)


def elements(group: Group) -> Optional[list]:
    """Every element of a finite group, in value order; None for a group
    with an integer factor, which has infinitely many."""
    if isinstance(group, IntegerGroup):
        return None
    if isinstance(group, CyclicGroup):
        return list(range(group.n))
    if isinstance(group, CayleyGroup):
        return list(range(len(group.names)))
    factors = [elements(f) for f in group.factors]
    return None if None in factors else list(itertools.product(*factors))


def s3_group() -> CayleyGroup:
    """S3 as a Cayley table, built from permutation composition."""
    base = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(3))

    names = ["e", "a", "b", "c", "r", "s"]
    table = [[base.index(compose(x, y)) for y in base] for x in base]
    return CayleyGroup(names, table)


def d4_group() -> CayleyGroup:
    """The dihedral group of order 8 as a Cayley table, built from the
    symmetries of a square acting on its corners 0..3."""

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(4))

    r, s = (1, 2, 3, 0), (0, 3, 2, 1)
    rotations = [(0, 1, 2, 3)]
    for _ in range(3):
        rotations.append(compose(r, rotations[-1]))
    base = rotations + [compose(s, x) for x in rotations]
    names = ["e", "r", "r2", "r3", "s", "sr", "sr2", "sr3"]
    table = [[base.index(compose(x, y)) for y in base] for x in base]
    return CayleyGroup(names, table)


def partial_cayley_gradings() -> list[Grading]:
    """Distinct-tuple gradings by non-abelian Cayley groups whose support
    misses part of the group: S3 by (e, a, r), 5 of 6 degrees, and D4 by
    (e, r, s, sr), 6 of 8 degrees."""
    return [Grading(s3_group(), 3, (0, 1, 4)), Grading(d4_group(), 4, (0, 1, 4, 5))]


def z2z2_group() -> ProductGroup:
    return ProductGroup([CyclicGroup(2), CyclicGroup(2)])


def suite_gradings() -> list[Grading]:
    """The fixed distinct-tuple grading suite used by the acceptance tests."""
    gradings = [Grading(CyclicGroup(n), n, tuple(range(n))) for n in range(2, 6)]
    gradings.append(Grading(CyclicGroup(4), 2, (0, 1)))
    v4 = z2z2_group()
    gradings.append(Grading(v4, 4, ((0, 0), (0, 1), (1, 0), (1, 1))))
    s3 = s3_group()
    gradings.append(Grading(s3, 6, tuple(range(6))))
    return gradings


def run_cli(argv) -> tuple[int, str, str]:
    """Run `matident.cli.main` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def free_poly(field, *terms) -> FreePoly:
    """The free-algebra polynomial sum of c*word over (word, int c) pairs;
    with no pairs, the zero polynomial."""
    return FreePoly.from_terms(field, ((word, field.from_int(c)) for word, c in terms))


def poly_sum(*polys):
    """The sum of one or more polynomials of one type over one field."""
    first = polys[0]
    return type(first).from_terms(first.field, (t for p in polys for t in p.terms.items()))


def field_mul(field, a, b):
    """Product of two coefficients of `field`: the engine only ever adds them."""
    return a * b % field.p if field.characteristic else a * b


def is_multihomogeneous(f: FreePoly) -> bool:
    """True when all terms share the same per-variable occurrence counts."""
    return len({multidegree(w) for w in f.terms}) <= 1


def multidegree_components(f: FreePoly) -> list[FreePoly]:
    """Oracle for `multihomogeneous_components`: one bucket per term
    `multidegree`, listed in multidegree order."""
    buckets: dict[tuple, dict] = {}
    for word, c in f.terms.items():
        buckets.setdefault(multidegree(word), {})[word] = c
    return [FreePoly(f.field, terms) for _, terms in sorted(buckets.items())]


def is_multilinear(f: FreePoly) -> bool:
    """True when every term is a permutation of one common variable set.

    The zero polynomial counts as multilinear so that decomposition stays
    total.
    """
    if not f.terms:
        return True
    if not is_multihomogeneous(f):
        return False
    return all(count == 1 for _, count in multidegree(next(iter(f.terms))))


# ---------------------------------------------------------------------------
# independent oracles


def monomial_product(a: tuple, b: tuple) -> tuple:
    """Product of two monomials: exponents add per variable."""
    exps: dict = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def entry_product(p: Poly, q: Poly) -> Poly:
    """Product of two matrix entries, term by term."""
    f = p.field
    terms: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            accumulate(f, terms, monomial_product(m1, m2), field_mul(f, c1, c2))
    return Poly(f, terms)


class OracleMatrix:
    """An n x n matrix of polynomials (1-based positions, zero entries
    dropped) with the ring operations of the direct-product oracle."""

    __slots__ = ("field", "n", "entries")

    def __init__(self, field: Field, n: int, entries: dict):
        self.field = field
        self.n = n
        self.entries = {pos: p for pos, p in entries.items() if p.terms}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OracleMatrix):
            return NotImplemented
        return (self.field, self.n, self.entries) == (other.field, other.n, other.entries)

    @classmethod
    def zero(cls, field, n: int) -> "OracleMatrix":
        return cls(field, n, {})

    def entry(self, i: int, j: int) -> Poly:
        return self.entries.get((i, j), Poly(self.field, {}))

    def __add__(self, other: "OracleMatrix") -> "OracleMatrix":
        if self.n != other.n or self.field != other.field:
            raise ValueError("matrix shape or field mismatch")
        summands: dict = {}
        for m in (self, other):
            for pos, p in m.entries.items():
                summands.setdefault(pos, []).append(p)
        return OracleMatrix(
            self.field, self.n, {pos: poly_sum(*ps) for pos, ps in summands.items()}
        )

    def __matmul__(self, other: "OracleMatrix") -> "OracleMatrix":
        if self.n != other.n or self.field != other.field:
            raise ValueError("matrix shape or field mismatch")
        by_row: dict = {}
        for (k, j), q in other.entries.items():
            by_row.setdefault(k, []).append((j, q))
        summands: dict = {}
        for (i, k), p in self.entries.items():
            for j, q in by_row.get(k, ()):
                summands.setdefault((i, j), []).append(entry_product(p, q))
        return OracleMatrix(
            self.field, self.n, {pos: poly_sum(*ps) for pos, ps in summands.items()}
        )

    def scale(self, value) -> "OracleMatrix":
        f = self.field
        return OracleMatrix(
            f,
            self.n,
            {
                pos: Poly.from_terms(f, ((m, field_mul(f, value, c)) for m, c in p.terms.items()))
                for pos, p in self.entries.items()
            },
        )


def generic_matrix(grading: Grading, field, h, index: int) -> OracleMatrix:
    """The degree-h generic matrix with generic index `index`.

    One variable y[h;index;k] at (k, s) per row k whose degree-h unit
    E_{k,s} exists, found by `naive_step`; the zero matrix exactly when
    the degree-h component vanishes.
    """
    if index < 1:
        raise ValueError(f"generic index must be >= 1, got {index}")
    entries: dict = {}
    for k in range(1, grading.n + 1):
        s = naive_step(grading, k, h)
        if s is not None:
            entries[(k, s)] = Poly(field, {((YVar(h, index, k), 1),): field.one})
    return OracleMatrix(field, grading.n, entries)


def word_product_direct(grading: Grading, field, word) -> OracleMatrix:
    """Left-to-right product of the letters' generic matrices."""
    if not word:
        raise ValueError("cannot evaluate the empty word")
    result = generic_matrix(grading, field, word[0].degree, word[0].index)
    for v in word[1:]:
        result = result @ generic_matrix(grading, field, v.degree, v.index)
    return result


def closed_matrix(grading: Grading, field, word) -> OracleMatrix:
    """The engine's closed-form word evaluation as a matrix of one-term polynomials."""
    closed = word_product_closed(grading, word)
    return OracleMatrix(
        field, grading.n, {pos: Poly(field, {mono: field.one}) for pos, mono in closed.items()}
    )


def sum_evaluations(field: Field, weighted: Iterable[tuple[dict, Coefficient]]) -> dict:
    """Add each coefficient at every monomial of its word evaluation.

    `weighted` yields (word_product_closed map, coefficient) pairs; the
    result is the nonzero entries of their sum, the chain-path form of
    `evaluate`.
    """
    acc: dict = {}
    for entries, coeff in weighted:
        for pos, mono in entries.items():
            accumulate(field, acc.setdefault(pos, {}), mono, coeff)
    return {pos: Poly(field, t) for pos, t in acc.items() if t}


def evaluate_direct(grading: Grading, f: FreePoly) -> OracleMatrix:
    """Evaluation through plain matrix products (no chain shortcuts)."""
    result = OracleMatrix.zero(f.field, grading.n)
    for word, coeff in f.terms.items():
        result = result + word_product_direct(grading, f.field, word).scale(coeff)
    return result


def alpha_checks(grading: Grading, m, n, sigma) -> tuple[bool, ...]:
    """The degree condition of a letter matching n = (m permuted by sigma),
    position by position: n's first l-1 letters have the degree of m's
    first sigma(l)-1 letters."""
    group = grading.group
    return tuple(
        word_degree(group, n[: l - 1]) == word_degree(group, m[: sigma[l - 1] - 1])
        for l in range(1, len(n) + 1)
    )


def units_of_degree(grading: Grading, h) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(1, grading.n + 1)
        for j in range(1, grading.n + 1)
        if grading.unit_degree(i, j) == h
    ]


def neutral_report_by_units(grading: Grading) -> tuple[bool, bool, bool]:
    """The three views of `info`'s neutral report, each by its definition:
    the tuple entries are pairwise distinct; a scan of all matrix units
    finds only diagonal ones of neutral degree; and every pair of neutral
    units commutes, multiplied as units both ways."""
    units = units_of_degree(grading, grading.group.identity())

    def product(a: tuple[int, int], b: tuple[int, int]) -> Optional[tuple[int, int]]:
        return (a[0], b[1]) if a[1] == b[0] else None

    return (
        len(set(grading.entries)) == grading.n,
        all(i == j for i, j in units),
        all(product(u, v) == product(v, u) for u in units for v in units),
    )


def is_monomial_identity(grading: Grading, hseq) -> bool:
    """True when every matrix-unit chain of these degrees dies out: no row
    survives all the prefix degrees' masks."""
    group = grading.group
    hseq = [group.check(h) for h in hseq]
    if not hseq:
        raise ValueError("degree sequence must be nonempty")
    return not grading.survivors(itertools.accumulate(hseq, group.op))


def sequence_vanishes_by_units(grading: Grading, hseq) -> bool:
    """True when no chain of matrix units with these degrees multiplies to
    a nonzero product (exhaustive substitution)."""
    options = [units_of_degree(grading, h) for h in hseq]
    for choice in itertools.product(*options):
        if all(choice[a][1] == choice[a + 1][0] for a in range(len(choice) - 1)):
            return False
    return True


def naive_step(grading: Grading, pos: int, h) -> Optional[int]:
    """Least row j with g_j = g_pos * h: one group op and a scan of the tuple."""
    target = grading.group.op(grading.entry(pos), h)
    return next((j for j in range(1, grading.n + 1) if grading.entry(j) == target), None)


def naive_lset(grading: Grading, hseq) -> dict[int, tuple[int, ...]]:
    """`Grading.lset`'s {start row: row path} map, walking every row with
    a group op per letter."""
    paths: dict = {}
    for k in range(1, grading.n + 1):
        path = [k]
        for h in hseq:
            nxt = naive_step(grading, path[-1], h)
            if nxt is None:
                break
            path.append(nxt)
        else:
            paths[k] = tuple(path)
    return paths


def _coarsenings(seq: tuple):
    """Splits of the sequence into consecutive blocks, at least one of size >= 2."""
    q = len(seq)
    for mask in range(2 ** (q - 1)):
        cuts = [i + 1 for i in range(q - 1) if mask >> i & 1]
        bounds = [0] + cuts + [q]
        if len(bounds) - 1 == q:
            continue  # all singletons: the sequence itself
        yield [seq[a:b] for a, b in zip(bounds, bounds[1:])]


def is_minimal_identity_by_coarsenings(grading: Grading, hseq) -> bool:
    """The minimality filter the prefix-degree masks replaced: every proper
    factor and every coarsening inside the support is tested on its own,
    each by a `naive_lset` chain walk."""

    def identity(seq) -> bool:
        return not naive_lset(grading, seq)

    seq = tuple(hseq)
    if not identity(seq):
        return False
    q = len(seq)
    for a in range(q):
        for b in range(a + 1, q + 1):
            if (b - a) < q and identity(seq[a:b]):
                return False
    group = grading.group
    support = set(grading.support())
    for blocks in _coarsenings(seq):
        merged = []
        for block in blocks:
            acc = block[0]
            for h in block[1:]:
                acc = group.op(acc, h)
            merged.append(acc)
        if all(h in support for h in merged) and identity(merged):
            return False
    return True


def naive_transition(grading: Grading, state, h) -> frozenset:
    return frozenset(
        nxt for nxt in (naive_step(grading, pos, h) for pos in state) if nxt is not None
    )


class MatchingEntry(NamedTuple):
    position: tuple[int, int]
    monomial: tuple


def matching_entry(grading: Grading, m, n) -> Optional[MatchingEntry]:
    """Row-major first position where both words' evaluations carry the
    same monomial, found by comparing the two maps position by position."""
    em, en = word_product_closed(grading, m), word_product_closed(grading, n)
    shared = sorted(pos for pos in em.keys() & en.keys() if em[pos] == en[pos])
    return MatchingEntry(shared[0], em[shared[0]]) if shared else None


def matching_permutation(grading: Grading, m, n, position) -> tuple[int, ...]:
    """The lexicographically least letter matching at a shared position.

    Walks both words' `naive_lset` paths from the position's start row;
    n's l-th letter takes the least unused position in m holding the same
    letter on the same row.  `sigma[l-1]` is that 1-based position.
    """
    k = position[0]
    path_m = naive_lset(grading, [v.degree for v in m])[k]
    path_n = naive_lset(grading, [v.degree for v in n])[k]
    unused = list(range(1, len(m) + 1))
    sigma = []
    for letter, row in zip(n, path_n):
        a = next((a for a in unused if (m[a - 1], path_m[a - 1]) == (letter, row)), None)
        if a is None:
            raise ValueError(f"the words carry different monomials at {position}")
        unused.remove(a)
        sigma.append(a)
    return tuple(sigma)


def word_degree(group: Group, word):
    """Ordered product of the letter degrees; empty word gives the identity."""
    acc = group.identity()
    for v in word:
        acc = group.op(acc, v.degree)
    return acc


def apply_step_by_blocks(group: Group, word, step: RewriteStep):
    """`rewrite.apply_step` on the word alone, with each side condition
    read from the product of its blocks' letter degrees instead of from
    prefix degrees.  Checks in `apply_step`'s order, with its messages."""
    eps = group.identity()
    cuts = step.split
    if any(cuts[a] >= cuts[a + 1] for a in range(len(cuts) - 1)):
        raise StepError(f"factorization mismatch: cut points {cuts} must increase")
    if cuts[0] < 0 or cuts[-1] > len(word):
        raise StepError(
            f"factorization mismatch: cut points {cuts} outside word of length {len(word)}"
        )
    if step.rule == NEUTRAL_SWAP:
        i, j, k = cuts
        if word_degree(group, word[i:j]) != eps:
            raise StepError("side condition failed: first swapped block must have neutral degree")
        if word_degree(group, word[j:k]) != eps:
            raise StepError("side condition failed: second swapped block must have neutral degree")
        return _swap(word, step)
    i, j, k, l = cuts
    du = word_degree(group, word[i:j])
    if du == eps:
        raise StepError("side condition failed: swapped blocks must have non-neutral degree")
    if word_degree(group, word[j:k]) != group.inverse(du):
        raise StepError("side condition failed: middle block must have the inverse degree")
    if word_degree(group, word[k:l]) != du:
        raise StepError("side condition failed: swapped blocks must have equal degree")
    return _swap(word, step)


def _merge_terms(field, work: list, target: int, source: int) -> list:
    """Fold the source coefficient into the target and drop the source."""
    merged = field.add(work[target][1], work[source][1])
    out = []
    for idx, item in enumerate(work):
        if idx == source:
            continue
        if idx == target:
            if not field.is_zero(merged):
                out.append((item[0], merged))
        else:
            out.append(item)
    return out


def _alignment_step(
    group: Group, msuf: Word, nsuf: Word, sigma: Sequence[int], a: int
) -> tuple[str, RewriteStep]:
    """One swap making the two suffixes start with the same letter.

    `sigma` is the letter matching of the suffixes and `a` the 1-based
    position in nsuf of msuf's leading letter.  Returns ("n", step) or
    ("m", step) naming the side to rotate: when some value r sits before
    position a while r+1 sits after, nsuf rotates; otherwise the positions
    before a hold exactly msuf's top segment and msuf rotates instead.
    A conjugate rotation collapses to a neutral swap of merged blocks
    whenever its middle block is empty or all three blocks are neutral.
    """
    eps = group.identity()
    q = len(sigma)
    inv = [0] * (q + 1)
    for l, value in enumerate(sigma, start=1):
        inv[value] = l

    r = next((r for r in range(1, q) if inv[r] < a < inv[r + 1]), None)
    if r is not None:
        ir, ir1 = inv[r], inv[r + 1]
        if ir + 1 == a or word_degree(group, nsuf[:ir]) == eps:
            return "n", RewriteStep(NEUTRAL_SWAP, (0, a - 1, ir1 - 1))
        return "n", RewriteStep(CONJUGATE_SWAP, (0, ir, a - 1, ir1 - 1))
    b = q - a + 2
    s1 = sigma[0]
    if b == s1 or word_degree(group, msuf[: b - 1]) == eps:
        return "m", RewriteStep(NEUTRAL_SWAP, (0, s1 - 1, q))
    return "m", RewriteStep(CONJUGATE_SWAP, (0, b - 1, s1 - 1, q))


def derive_equivalence_stepwise(grading: Grading, m, n) -> EquivalenceCertificate:
    """`derive_equivalence` with the letter matching of every alignment step
    recovered through the oracles `matching_entry` and `matching_permutation`
    (two evaluations and two naive chain walks per step)."""
    require_distinct(grading)
    m, n = tuple(m), tuple(n)
    if matching_entry(grading, m, n) is None:
        raise ValueError("words do not share a nonzero entry; no derivation exists")
    group = grading.group
    m_cur, n_cur = m, n
    m_steps: list = []
    n_steps: list = []
    p = 0
    while p < len(m_cur):
        if m_cur[p] == n_cur[p]:
            p += 1
            continue
        msuf, nsuf = m_cur[p:], n_cur[p:]
        match = matching_entry(grading, msuf, nsuf)
        assert match is not None, "shared entry lost while stripping aligned letters"
        sigma = matching_permutation(grading, msuf, nsuf, match.position)
        side, step = _alignment_step(group, msuf, nsuf, sigma, sigma.index(1) + 1)
        step = RewriteStep(step.rule, tuple(c + p for c in step.split))
        if side == "n":
            n_cur = apply_step_by_blocks(group, n_cur, step)
            n_steps.append(step)
        else:
            m_cur = apply_step_by_blocks(group, m_cur, step)
            m_steps.append(step)
    assert m_cur == n_cur, "alignment finished on different words"
    steps = tuple(n_steps) + tuple(s.inverse() for s in reversed(m_steps))
    return EquivalenceCertificate(start=n, steps=steps, end=m)


def certify_membership_linear(grading: Grading, f: FreePoly):
    """`certify_membership` by linear scans: each pairing re-evaluates the
    working list up to the first term with a nonzero evaluation (the
    target) and calls `matching_entry` on every later term until one shares
    an entry (the source).  The oracle for the indexed loop."""
    total = evaluate(grading, f)
    if total:
        position = min(total)
        return NonIdentityWitness(position=position, entry=total[position])
    work = f.sorted_terms()
    pairings = []
    while True:
        target = next(
            (idx for idx, (word, _) in enumerate(work) if word_product_closed(grading, word)),
            None,
        )
        if target is None:
            break
        source = next(
            idx
            for idx in range(target + 1, len(work))
            if matching_entry(grading, work[target][0], work[idx][0]) is not None
        )
        cert = derive_equivalence_stepwise(grading, work[target][0], work[source][0])
        pairings.append(Pairing(target=target, source=source, certificate=cert))
        work = _merge_terms(f.field, work, target, source)
    residual = []
    for word, coeff in work:
        assert not naive_lset(grading, [v.degree for v in word])
        outside = [
            idx
            for idx, v in enumerate(word, start=1)
            if not units_of_degree(grading, v.degree)
        ]
        why = (
            Justification(JUSTIFY_OUTSIDE_SUPPORT, letter=outside[0])
            if outside
            else Justification(JUSTIFY_EMPTY_LSET)
        )
        residual.append(ResidualTerm(word, coeff, why))
    return MembershipCertificate(input=f, pairings=tuple(pairings), residual=tuple(residual))


def check_equivalence_certificate_stepwise(
    grading: Grading, cert: EquivalenceCertificate, _evaluate=None
) -> CheckResult:
    """Replay a derivation, recomputing side conditions and evaluations.

    Accepts only when every step applies, the final word is the recorded
    end, and the generic evaluation of every intermediate word equals the
    start's.  Equal evaluations prove nothing on a tuple with repeated
    entries, so such a grading raises DistinctTupleError.

    `_evaluate`, the membership checker's memo of evaluations, is accepted
    and ignored, so the oracle evaluates every word itself.
    """
    require_distinct(grading)
    group = grading.group
    current = tuple(cert.start)
    if not current:
        return CheckResult(False, "start word is empty")
    reference = word_product_closed(grading, current)
    for idx, step in enumerate(cert.steps):
        try:
            current = apply_step_by_blocks(group, current, step)
        except StepError as exc:
            return CheckResult(False, f"step {idx}: {exc}")
        if word_product_closed(grading, current) != reference:
            return CheckResult(False, f"step {idx}: generic evaluation changed")
    if current != tuple(cert.end):
        return CheckResult(False, "replayed word does not match the recorded end")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# random generators (all deterministic through an explicit Random)


def random_word(rng: random.Random, grading: Grading, max_len: int, index_pool: int = 4):
    """Uniform degrees from the support; indices from a small pool."""
    support = grading.support()
    length = rng.randint(1, max_len)
    return tuple(
        GVar(rng.choice(support), rng.randint(1, index_pool)) for _ in range(length)
    )


def random_chain_word(
    rng: random.Random,
    grading: Grading,
    length: int,
    start: Optional[int] = None,
    end: Optional[int] = None,
    index_pool: int = 4,
):
    """Word whose degree sequence follows a row walk, so evaluation is nonzero.

    With `end` set, the walk is steered to finish on that row (the last step
    jumps there directly).
    """
    n = grading.n
    pos = start if start is not None else rng.randint(1, n)
    letters = []
    for step in range(length):
        if end is not None and step == length - 1:
            nxt = end
        else:
            nxt = rng.randint(1, n)
        h = grading.unit_degree(pos, nxt)
        letters.append(GVar(h, rng.randint(1, index_pool)))
        pos = nxt
    return tuple(letters)


def random_neutral_word(rng: random.Random, grading: Grading, length: int, index_pool: int = 4):
    """Closed row walk: the word's total degree is the group identity."""
    start = rng.randint(1, grading.n)
    return random_chain_word(rng, grading, length, start=start, end=start, index_pool=index_pool)


def valid_rewrite_steps(group, word) -> list:
    """All neutral/conjugate swaps applicable to the word."""
    eps = group.identity()
    L = len(word)
    prefix = [eps]
    for v in word:
        prefix.append(group.op(prefix[-1], v.degree))

    def block(a, b):  # degree of word[a:b]
        return group.op(group.inverse(prefix[a]), prefix[b])

    steps = []
    for i in range(L):
        for j in range(i + 1, L):
            for k in range(j + 1, L + 1):
                if block(i, j) == eps and block(j, k) == eps:
                    steps.append(RewriteStep(NEUTRAL_SWAP, (i, j, k)))
            for t_end in range(j + 1, L):
                du = block(i, j)
                if du == eps or block(j, t_end) != group.inverse(du):
                    continue
                for l in range(t_end + 1, L + 1):
                    if block(t_end, l) == du:
                        steps.append(RewriteStep(CONJUGATE_SWAP, (i, j, t_end, l)))
    return steps


def random_rewrite_variant(rng: random.Random, grading: Grading, word, max_steps: int = 4):
    """Apply up to max_steps random valid swaps; returns the reached word."""
    group = grading.group
    current = tuple(word)
    for _ in range(rng.randint(0, max_steps)):
        steps = valid_rewrite_steps(group, current)
        if not steps:
            break
        current = apply_step_by_blocks(group, current, rng.choice(steps))
    return current


def random_swappable_word(rng: random.Random, grading: Grading, index_pool: int = 6):
    """Nonzero-evaluation word built from closed-walk blocks, so swaps exist."""
    start = rng.randint(1, grading.n)
    blocks = []
    for _ in range(rng.randint(2, 3)):
        blocks.append(
            random_chain_word(
                rng, grading, rng.randint(1, 3), start=start, end=start, index_pool=index_pool
            )
        )
    tail = random_chain_word(rng, grading, rng.randint(1, 2), start=start, index_pool=index_pool)
    return tuple(itertools.chain.from_iterable(blocks)) + tail


def zero_sum(rng: random.Random, count: int) -> list[int]:
    """`count` nonzero small integers summing to zero (count >= 2)."""
    while True:
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(count - 1)]
        if sum(coeffs):
            return coeffs + [-sum(coeffs)]


def random_swap(rng: random.Random, group, word):
    """One random neutral or conjugate swap, or the word itself.

    Cut points come from positions of equal prefix degree: blocks between
    three such positions have neutral degree, and p|u|t|v|q with equal
    prefixes before u and before v, and after u and after v, is a
    conjugate factorization.
    """
    prefix = [group.identity()]
    for v in word:
        prefix.append(group.op(prefix[-1], v.degree))
    at: dict = {}
    for pos, value in enumerate(prefix):
        at.setdefault(value, []).append(pos)
    pairs = [(i, k) for cuts in at.values() for i in cuts for k in cuts if k - i >= 2]
    if not pairs:
        return word
    i, k = rng.choice(pairs)
    j = rng.randint(i + 1, k - 1)
    if prefix[j] == prefix[i]:
        return word[:i] + word[j:k] + word[i:j] + word[k:]
    later = [l for l in at[prefix[j]] if l > k]
    if not later:
        return word
    l = rng.choice(later)
    return word[:i] + word[k:l] + word[j:k] + word[i:j] + word[l:]


def swap_class(rng: random.Random, group, word, size: int) -> list:
    """Up to `size` distinct words reached from `word` by random swaps."""
    seen = {word}
    for _ in range(4 * size):
        word = random_swap(rng, group, word)
        seen.add(word)
    found = sorted(seen)
    rng.shuffle(found)
    return found[:size]


def random_identity_component(
    rng: random.Random,
    grading: Grading,
    field,
    classes: int,
    per_class: int,
    vanishing: int = 0,
    index_pool: int = 3,
) -> FreePoly:
    """A multihomogeneous identity: permutations of one letter multiset.

    Each class is a random permutation with a nonzero evaluation and swap
    variants of it, with integer coefficients summing to zero (a sum that
    may also vanish only in the field's characteristic).  Up to
    `vanishing` permutations with an empty chain set get arbitrary
    coefficients.  Repeated letters come from the small index pool.
    """
    letters = random_swappable_word(rng, grading, index_pool=index_pool)
    terms: dict = {}

    def permutations():
        return (tuple(rng.sample(letters, len(letters))) for _ in range(20))

    for _ in range(classes):
        base = next((w for w in permutations() if word_product_closed(grading, w)), letters)
        words = swap_class(rng, grading.group, base, per_class)
        if len(words) >= 2:
            for word, c in zip(words, zero_sum(rng, len(words))):
                terms[word] = terms.get(word, 0) + c
    for _ in range(vanishing):
        word = next((w for w in permutations() if not word_product_closed(grading, w)), None)
        if word is not None:
            terms[word] = terms.get(word, 0) + rng.randint(1, 5)
    return free_poly(field, *terms.items())


def z4_sweep_component(terms: int, seed: int = 7, length: int = 14, per_class: int = 10) -> FreePoly:
    """A multilinear Z4 (0,1,2,3) identity with about `terms` terms, in
    classes of `per_class` swap variants of random permutations of one
    chain word, so that every class has the same shape at every size."""
    rng = random.Random(seed)
    grading = Grading(CyclicGroup(4), 4, (0, 1, 2, 3))
    letters = [
        GVar(v.degree, idx)
        for idx, v in enumerate(random_chain_word(rng, grading, length), start=1)
    ]
    acc: dict = {}
    for _ in range(max(1, terms // per_class)):
        words = swap_class(rng, grading.group, tuple(rng.sample(letters, length)), per_class)
        for w, c in zip(words, zero_sum(rng, len(words))):
            acc[w] = acc.get(w, 0) + c
    return free_poly(RATIONALS, *acc.items())


# ---------------------------------------------------------------------------
# The character-at-a-time parser that `freealg.parse_polynomial` replaced,
# kept as its oracle.  It reads integers as `str.isdigit` runs, so a digit
# such as '²' reaches `int()` and fails without a position.


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


def parse_polynomial_stepwise(text: str, group: Group, field: Field) -> FreePoly:
    """Parse the textual polynomial syntax into a canonical polynomial."""
    if text.strip() == "0":
        return FreePoly(field, {})
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
