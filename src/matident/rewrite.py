"""Machine-checkable rewrite and membership certificates.

Two swap rules generate the congruence used throughout:

  neutral-swap     w = p|u|v|q      ->  p|v|u|q     deg(u) = deg(v) = e
  conjugate-swap   w = p|u|t|v|q    ->  p|v|t|u|q   deg(u) = deg(v) != e,
                                                    deg(t) = deg(u)^-1

Both preserve the generic evaluation of the word exactly.  An equivalence
certificate is a replayable list of such steps from one word to another; a
membership certificate reduces a multihomogeneous polynomial, pairing off
terms through equivalence certificates until every remaining term is a
monomial identity on its own.  Verifiers replay every step's side
conditions and compare the generic evaluations of each pairing's two
ends, so checking is independent of how a certificate was produced.  Both
checkers replay through `_replay`, the membership checker on the input's
own term words, whose letters it has validated, evaluating each distinct
term word once per certificate, for its pairings and its residual alike.
`read_certificate` reads a document of any of the three types and
`check_certificate` runs its checker; `check-cert` calls these two.
Reading a document parses each distinct text once: a word text equal to a
parsed term's factor text reads as that term's word.

Certifying groups the terms by signature (see `generic`): with a
distinct tuple two nonempty evaluations are equal exactly when the
signatures are, and otherwise share no entry, so every pairing is found
by lookup in its class, and certify cost is linear in the term count
plus the derivations, which skip the validation `signatures` has done and
take each word's `prefix_pairs` from it.  A swap keeps every letter's
prefix degree, so this one list is a word's whole rewrite state.
Derivation and check share one swap rule, `apply_step`, on it: the block
between cuts a < b has degree d[a]^-1 * d[b], so each side condition is
one comparison, the pairs move in place over the step's span, and no step
makes a group operation.
Only the checkers walk chains: their verdict rests on comparing the two
ends' `chain_key`s, one walk of all rows per word that reads no prefix
degree and builds no `YVar`, and a residual's empty chain set is an empty
key.  The ends of a replay have the same letters, so equal keys mean equal
evaluations.  Letters are validated once, with `check_letters`, before any
walk, and the working list is replayed independently of certify.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence, Union

from .commpoly import Field, Poly, accumulate, render_poly
from .freealg import (
    FreePoly,
    Word,
    format_polynomial,
    format_word,
    multihomogeneous_components,
    parse_coefficient,
    parse_polynomial,
    parse_word,
)
from .generic import (
    _entries,
    chain_key,
    check_letters,
    prefix_pairs,
    require_distinct,
    signatures,
    survivors,
)
from .grading import Grading
from .groups import Group

CERTIFICATE_FORMAT = 1

NEUTRAL_SWAP = "neutral-swap"
CONJUGATE_SWAP = "conjugate-swap"

JUSTIFY_EMPTY_LSET = "empty-lset"
JUSTIFY_OUTSIDE_SUPPORT = "degree-outside-support"


class StepError(ValueError):
    """A rewrite step does not apply: bad factorization or side condition."""


@dataclass(frozen=True)
class RewriteStep:
    """One swap with its full factorization, as 0-based cut points.

    neutral-swap:    split (i, j, k)    gives p=w[:i], u=w[i:j], v=w[j:k]
    conjugate-swap:  split (i, j, k, l) gives p=w[:i], u=w[i:j], t=w[j:k],
                                        v=w[k:l]
    The trailing block q is whatever remains after the last cut.
    """

    rule: str
    split: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rule not in (NEUTRAL_SWAP, CONJUGATE_SWAP):
            raise ValueError(f"unknown rewrite rule {self.rule!r}")
        want = 3 if self.rule == NEUTRAL_SWAP else 4
        if len(self.split) != want:
            raise ValueError(f"{self.rule} needs {want} cut points, got {len(self.split)}")

    def inverse(self) -> "RewriteStep":
        """The step undoing this one on the swapped word."""
        if self.rule == NEUTRAL_SWAP:
            i, j, k = self.split
            return RewriteStep(NEUTRAL_SWAP, (i, i + (k - j), k))
        i, j, k, l = self.split
        return RewriteStep(CONJUGATE_SWAP, (i, i + l - k, i + l - j, l))


def apply_step(pairs: list, step: RewriteStep) -> None:
    """Apply one swap in place to a word's `prefix_pairs` (w_c, d_c),
    checking the cut points, then the side conditions: the block between
    cuts a < b has degree d[a]^-1 * d[b], so each condition compares two
    prefix degrees.  The pairs then move over [first cut, last cut), which
    ends at or before the end pair; a step that raises changes nothing."""
    cuts = step.split
    if any(cuts[a] >= cuts[a + 1] for a in range(len(cuts) - 1)):
        raise StepError(f"factorization mismatch: cut points {cuts} must increase")
    q = len(pairs) - 1
    if cuts[0] < 0 or cuts[-1] > q:
        raise StepError(f"factorization mismatch: cut points {cuts} outside word of length {q}")
    i, j, k, l = cuts[0], cuts[1], cuts[-2], cuts[-1]  # a neutral swap's middle [j, k) is empty
    if step.rule == NEUTRAL_SWAP:
        if pairs[i][1] != pairs[j][1]:
            raise StepError("side condition failed: first swapped block must have neutral degree")
        if pairs[j][1] != pairs[l][1]:
            raise StepError("side condition failed: second swapped block must have neutral degree")
    else:
        if pairs[i][1] == pairs[j][1]:
            raise StepError("side condition failed: swapped blocks must have non-neutral degree")
        if pairs[k][1] != pairs[i][1]:
            raise StepError("side condition failed: middle block must have the inverse degree")
        if pairs[l][1] != pairs[j][1]:
            raise StepError("side condition failed: swapped blocks must have equal degree")
    pairs[i:l] = pairs[k:l] + pairs[j:k] + pairs[i:j]


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Replayable derivation start ->* end, one swap per step."""

    start: Word
    steps: tuple[RewriteStep, ...]
    end: Word


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def check_equivalence_certificate(grading: Grading, cert: EquivalenceCertificate) -> CheckResult:
    """Replay a derivation's side conditions, then compare end evaluations.

    Accepts only when every step applies, the final word is the recorded
    end, and its evaluation equals the start's.  The start's letters are
    validated first (a swap only permutes them), and `_replay` compares
    the two ends' `chain_key`s.  A repeated tuple raises
    DistinctTupleError: equal evaluations prove nothing there.
    """
    require_distinct(grading)
    start = tuple(cert.start)
    if not start:
        return CheckResult(False, "start word is empty")
    check_letters(grading.group, (start,))
    return _replay(grading, start, cert.steps, tuple(cert.end), partial(chain_key, grading))


def _replay(
    grading: Grading, start: Word, steps: Sequence[RewriteStep], end: Word, key: Callable
) -> CheckResult:
    """Both checkers' replay, from a nonempty start with validated letters:
    the start's `key`, then `apply_step`, the rule the derivation builds
    its steps with, on the start's `prefix_pairs`, then the replayed word,
    made of the start's letter objects, against `end`, then its key
    against the start's.  Both words have the same letters, so equal keys
    mean equal evaluations.  `key` is `chain_key` or the membership
    checker's memo of it."""
    reference = key(start)
    pairs = prefix_pairs(grading.group, start)
    for idx, step in enumerate(steps):
        try:
            apply_step(pairs, step)
        except StepError as exc:
            return CheckResult(False, f"step {idx}: {exc}")
    replayed = tuple([v for v, _ in pairs][:-1])
    if replayed != end:
        return CheckResult(False, "replayed word does not match the recorded end")
    if key(replayed) != reference:
        return CheckResult(False, "generic evaluation changed between start and end")
    return CheckResult(True)


def derive_equivalence(grading: Grading, m: Word, n: Word) -> EquivalenceCertificate:
    """Derive a certificate from n to m.

    Requires a shared nonzero entry (and a distinct-entry grading): equal
    signatures with a surviving start row.  The steps are built by
    `_align`, which `certify_membership` calls without the precheck: its
    pairs have equal surviving signatures.
    """
    require_distinct(grading)
    m, n = tuple(m), tuple(n)
    (key_m, pm), (key_n, pn) = signatures(grading, (m, n))
    if key_m != key_n or not survivors(grading, key_m):
        raise ValueError("words do not share a nonzero entry; no derivation exists")
    return _align(m, n, pm, pn)


def _align(m: Word, n: Word, pm: list, pn: list) -> EquivalenceCertificate:
    """The derivation from n to m, for words with validated letters that
    share an entry, and their `prefix_pairs`.

    The words agree before p, so their suffixes carry equal (letter, prefix
    degree) pairs.  At a mismatch, m's pair at p + r takes the least
    unused n-position inv[r] of that pair, and one rotation (p, i, k, l)
    moves the letter at k to p; so each mismatched position takes one step.
    When some r >= 1 has inv[r] < a = inv[0] < inv[r+1], n rotates, with
    (i, k, l) = (inv[r] + 1, a, inv[r+1]).  Otherwise n's letters before a
    are m's last a - p letters, and m rotates, with i = end - (a - p), k the
    m-position of n's letter at p and l = end.  The rotation swaps the
    outer blocks [p, i) and [k, l) around [i, k) by the conjugate rule;
    when the middle block is empty, or the first block is neutral
    (d[p] == d[i]), which makes all three neutral, it is the neutral swap
    of the merged blocks [p, k) and [k, l) instead.  The matching is
    rebuilt at every mismatch: a rotation can reorder two equal pairs, and
    the greedy matching of the new order can differ.

    Each built step goes through `apply_step`, the checker's swap rule, on
    copies of the pair lists made on entry: certify passes one target's
    list to each of its sources.  Steps rotating m are appended to the
    certificate inverted, so the replay runs n to m."""
    pm, pn = list(pm), list(pn)
    m_steps: list[RewriteStep] = []
    n_steps: list[RewriteStep] = []
    end = len(pm) - 1
    for p in range(end):
        if pm[p] == pn[p]:
            continue
        slots: dict[tuple, list[int]] = {}
        for b in range(end - 1, p - 1, -1):
            slots.setdefault(pn[b], []).append(b)
        try:
            inv = [slots[pair].pop() for pair in pm[p:end]]
        except (KeyError, IndexError):
            raise AssertionError("shared entry lost while stripping aligned letters") from None
        a = inv[0]
        r = next((r for r in range(1, len(inv) - 1) if inv[r] < a < inv[r + 1]), None)
        if r is not None:
            pairs, steps, (i, k, l) = pn, n_steps, (inv[r] + 1, a, inv[r + 1])
        else:
            pairs, steps, (i, k, l) = pm, m_steps, (end - (a - p), p + inv.index(p), end)
        if i == k or pairs[i][1] == pairs[p][1]:
            step = RewriteStep(NEUTRAL_SWAP, (p, k, l))
        else:
            step = RewriteStep(CONJUGATE_SWAP, (p, i, k, l))
        try:
            apply_step(pairs, step)
        except StepError:
            raise AssertionError(f"alignment built a step that does not apply: {step}") from None
        steps.append(step)
    if pm != pn:
        raise AssertionError("alignment finished on different words")
    return EquivalenceCertificate(
        start=n, steps=tuple(n_steps) + tuple(s.inverse() for s in reversed(m_steps)), end=m
    )


# ---------------------------------------------------------------------------
# membership certificates


@dataclass(frozen=True)
class Justification:
    """Why a single residual term vanishes on its own."""

    kind: str  # JUSTIFY_EMPTY_LSET | JUSTIFY_OUTSIDE_SUPPORT
    letter: Optional[int] = None  # 1-based letter whose degree has a zero component


@dataclass(frozen=True)
class Pairing:
    """Cancel term `source` against term `target` of the working list."""

    target: int
    source: int
    certificate: EquivalenceCertificate


@dataclass(frozen=True)
class ResidualTerm:
    word: Word
    coefficient: Any
    justification: Justification


@dataclass(frozen=True)
class MembershipCertificate:
    input: FreePoly
    pairings: tuple[Pairing, ...]
    residual: tuple[ResidualTerm, ...]


@dataclass(frozen=True)
class NonIdentityWitness:
    """A position whose entry survives evaluation, with the entry itself."""

    position: tuple[int, int]
    entry: Poly


def _justify_zero_word(grading: Grading, word: Word) -> Justification:
    """Why a word whose evaluation is empty vanishes: a letter of a degree
    outside the support, or else an empty chain set."""
    for idx, letter in enumerate(word, start=1):
        if grading.component_dimension(letter.degree) == 0:
            return Justification(JUSTIFY_OUTSIDE_SUPPORT, letter=idx)
    return Justification(JUSTIFY_EMPTY_LSET)


def certify_membership(
    grading: Grading, f: FreePoly
) -> Union[MembershipCertificate, NonIdentityWitness]:
    """Certify a multihomogeneous identity, or witness the failure.

    When f evaluates to zero the cancellation loop runs: take the first
    term whose own evaluation is nonzero, find the first later term
    sharing a nonzero entry (one must exist, since the full sum cancels),
    record the equivalence certificate between the two words, and merge.
    Terms left at the end vanish individually and are recorded with their
    reason.

    Each term's prefix degrees and signature are computed once.  A
    signature's sorted pairs list its word's sorted letters, so f is
    multihomogeneous exactly when all signatures give one letter tuple.
    Terms with no surviving start row vanish on their own and are left for
    the residual; the others are grouped by signature, which gives the
    classes of their nonempty evaluations.  The zero test sums coefficients
    per class, and a nonzero sum takes its witness at the row-major first
    entry of the evaluation those sums give (`_entries`, as in `evaluate`).
    Terms keep the ids of their sorted order; the target is the next live
    id in a class and the source the next id of that class.  Pairings
    record ranks among the live ids, and coefficients are kept by id until
    the residual is built at the end.
    """
    require_distinct(grading)
    field = f.field
    terms = f.sorted_terms()
    words = [word for word, _ in terms]
    coeffs = [coeff for _, coeff in terms]
    sigs = signatures(grading, words)
    keys = [key for key, _ in sigs]
    if len({tuple([v for v, _ in pairs]) for pairs, _ in keys}) > 1:
        raise ValueError("input must be multihomogeneous; decompose first")
    alive = {key for key in set(keys) if survivors(grading, key)}
    classes: dict = {}  # surviving signature -> its live ids, ascending
    sums: dict = {}
    for tid, key in enumerate(keys):
        if key in alive:
            classes.setdefault(key, deque()).append(tid)
            accumulate(field, sums, key, coeffs[tid])
    if sums:
        position, entry = min(_entries(grading, field, sums).items())  # positions are distinct
        return NonIdentityWitness(position=position, entry=entry)

    live = list(range(len(words)))
    pairings: list[Pairing] = []
    for target, key in enumerate(keys):
        ids = classes.get(key)
        while ids and ids[0] == target:
            if len(ids) == 1:
                raise AssertionError("zero sum with an uncancellable term")
            source = ids[1]
            rt, rs = bisect_left(live, target), bisect_left(live, source)
            cert = _align(words[target], words[source], sigs[target][1], sigs[source][1])
            pairings.append(Pairing(target=rt, source=rs, certificate=cert))
            del ids[1], live[rs]
            coeffs[target] = field.add(coeffs[target], coeffs[source])
            if field.is_zero(coeffs[target]):
                ids.popleft()
                del live[rt]

    residual = tuple(
        ResidualTerm(words[tid], coeffs[tid], _justify_zero_word(grading, words[tid]))
        for tid in live
    )
    return MembershipCertificate(input=f, pairings=tuple(pairings), residual=residual)


def check_membership_certificate(
    grading: Grading, f: FreePoly, cert: MembershipCertificate
) -> CheckResult:
    """Replay a membership certificate against the polynomial it claims.

    Raises DistinctTupleError on a tuple with repeated entries.
    """
    require_distinct(grading)
    if cert.input != f:
        return CheckResult(False, "certificate was issued for a different polynomial")
    if () in f.terms:
        # the empty word evaluates to a nonzero scalar matrix, so f is no identity
        return CheckResult(False, "input has a term with the empty word")
    # Group arithmetic trusts its arguments, and a residual justified by one
    # letter outside the support never evaluates the others: validate them all.
    check_letters(grading.group, f.terms)
    field = f.field
    work: list[tuple[Word, Any]] = f.sorted_terms()
    # each term word's `chain_key`, made once and dropped when the term leaves `work`
    evaluations: dict[Word, dict] = {}

    def evaluate_word(word: Word) -> dict:
        found = evaluations.get(word)
        if found is None:
            found = evaluations[word] = chain_key(grading, word)
        return found

    for idx, pairing in enumerate(cert.pairings):
        t, s = pairing.target, pairing.source
        if not (0 <= t < len(work) and 0 <= s < len(work)) or t == s:
            return CheckResult(False, f"pairing {idx}: term indexes out of range")
        eq = pairing.certificate
        start, end = work[s][0], work[t][0]
        if tuple(eq.start) != start or tuple(eq.end) != end:
            return CheckResult(False, f"pairing {idx}: certificate words do not match the terms")
        # replay on the validated term objects: GVar(True, 1) == GVar(1, 1)
        sub = _replay(grading, start, eq.steps, end, evaluate_word)
        if not sub:
            return CheckResult(False, f"pairing {idx}: {sub.reason}")
        merged = field.add(work[t][1], work[s][1])
        work[t] = (end, merged)
        evaluations.pop(start, None)
        if field.is_zero(merged):
            evaluations.pop(end, None)
            del work[max(t, s)], work[min(t, s)]
        else:
            del work[s]
    recorded = [(term.word, term.coefficient) for term in cert.residual]
    if work != recorded:
        return CheckResult(False, "replay does not reach the recorded residual")
    for idx, ((word, _), term) in enumerate(zip(work, cert.residual)):
        j = term.justification
        if j.kind == JUSTIFY_OUTSIDE_SUPPORT:
            if j.letter is None or not 1 <= j.letter <= len(word):
                return CheckResult(False, f"residual {idx}: cited letter out of range")
            # the validated working-list word, as for the pairings
            degree = word[j.letter - 1].degree
            if grading.component_dimension(degree) != 0:
                return CheckResult(
                    False, f"residual {idx}: cited letter's component is not zero"
                )
        elif j.kind == JUSTIFY_EMPTY_LSET:
            if evaluate_word(word):
                return CheckResult(False, f"residual {idx}: chain set is not empty")
        else:
            return CheckResult(False, f"residual {idx}: unknown justification {j.kind!r}")
    return CheckResult(True)


@dataclass(frozen=True)
class BundleComponent:
    """One listed part of a membership bundle.

    `certificate` is None for a part the bundle marks as a non-identity.
    """

    component: FreePoly
    certificate: Optional[MembershipCertificate]


@dataclass(frozen=True)
class MembershipBundle:
    """Certificates for the multihomogeneous parts of one polynomial."""

    input: FreePoly
    components: tuple[BundleComponent, ...]


def check_membership_bundle(grading: Grading, bundle: MembershipBundle) -> CheckResult:
    """Accept only when the listed components cover the input's
    multihomogeneous parts one to one, each with a valid certificate.

    Each listed component is matched by one lookup and one comparison: the
    parts are keyed by the sorted letters of their words, which all of a
    part's words share.  Raises DistinctTupleError on a tuple with repeated
    entries.
    """
    require_distinct(grading)
    parts = {
        tuple(sorted(next(iter(p.terms)))): p for p in multihomogeneous_components(bundle.input)
    }
    if len(bundle.components) != len(parts):
        return CheckResult(
            False,
            f"bundle has {len(bundle.components)} components, "
            f"input decomposes into {len(parts)}",
        )
    covered: set[tuple] = set()
    for idx, item in enumerate(bundle.components):
        if item.certificate is None:
            return CheckResult(False, f"component {idx} is marked as a non-identity")
        key = tuple(sorted(next(iter(item.component.terms), ())))
        part = parts.get(key)
        if part is None or part != item.component:
            return CheckResult(
                False, f"component {idx} does not match any multihomogeneous part"
            )
        if key in covered:
            return CheckResult(
                False, f"component {idx} repeats a multihomogeneous part already covered"
            )
        covered.add(key)
        result = check_membership_certificate(grading, part, item.certificate)
        if not result.ok:
            return CheckResult(False, f"component {idx}: {result.reason}")
    return CheckResult(True)


def check_certificate(
    grading: Grading, cert: Union[EquivalenceCertificate, MembershipCertificate, MembershipBundle]
) -> CheckResult:
    """Run the checker for a certificate as `read_certificate` returns it.
    A membership certificate vouches for its own `input`."""
    if isinstance(cert, EquivalenceCertificate):
        return check_equivalence_certificate(grading, cert)
    if isinstance(cert, MembershipCertificate):
        return check_membership_certificate(grading, cert.input, cert)
    return check_membership_bundle(grading, cert)


# ---------------------------------------------------------------------------
# serialization (stable schema, format 1)


_REQUIRED = object()


def _get(obj: Any, key: str, kind: type, what: str, default: Any = _REQUIRED) -> Any:
    """Read `obj[key]`, checking that obj is an object and the value's type.

    Bools are rejected where an int is expected.  With a default, a
    missing key gives the default instead of an error.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        if default is not _REQUIRED:
            return default
        raise ValueError(f"{what} is missing the {key!r} key")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what}: {key!r} must be {kind.__name__}, got {value!r}")
    return value


class _Reader:
    """Reads one certificate document, parsing each distinct text once.

    Polynomial texts are memoized: a bundle component's text and its
    certificate's input are the same string.  Each parsed term's factor
    text is kept with its word, and a word text found there reads as that
    word, which is what `parse_word` builds from it; other word texts go to
    `parse_word`.  Texts are read in one order, a certificate's `input`
    before its residual and pairing words, and the first bad text's error
    is raised at once.  A bundle's `field`, when present, must name the
    reader's field; it is checked before any text is read.
    """

    def __init__(self, group: Group, field: Field):
        self.group = group
        self.field = field
        self.polys: dict[str, FreePoly] = {}
        self.words: dict[str, Word] = {}

    def polynomial(self, text: str) -> FreePoly:
        poly = self.polys.get(text)
        if poly is None:
            poly = self.polys[text] = parse_polynomial(text, self.group, self.field, self.words)
        return poly

    def word(self, text: str) -> Word:
        word = self.words.get(text)
        if word is None:
            word = self.words[text] = parse_word(text, self.group)
        return word

    def equivalence(self, obj: dict) -> EquivalenceCertificate:
        what = "equivalence certificate"
        if _get(obj, "type", str, what) != "equivalence":
            raise ValueError("not an equivalence certificate document")
        start = self.word(_get(obj, "start", str, what))
        steps = []
        for item in _get(obj, "steps", list, what, []):
            rule = _get(item, "rule", str, "rewrite step")
            split = _get(item, "split", list, "rewrite step")
            if not all(isinstance(c, int) and not isinstance(c, bool) for c in split):
                raise ValueError(f"rewrite step: 'split' must be a list of integers, got {split!r}")
            steps.append(RewriteStep(rule, tuple(split)))
        end = self.word(_get(obj, "end", str, what))
        return EquivalenceCertificate(start=start, steps=tuple(steps), end=end)

    def membership(self, obj: dict) -> MembershipCertificate:
        what = "membership certificate"
        if _get(obj, "type", str, what) != "membership":
            raise ValueError("not a membership certificate document")
        # `input` first, so that its factor texts serve the words below
        poly = self.polynomial(_get(obj, "input", str, what))
        residual = []
        for item in _get(obj, "residual", list, what, []):
            word = self.word(_get(item, "word", str, "residual term"))
            coeff = parse_coefficient(_get(item, "coefficient", str, "residual term"), self.field)
            j = _get(item, "justification", dict, "residual term")
            kind = _get(j, "kind", str, "justification")
            letter = _get(j, "letter", int, "justification", None)
            residual.append(ResidualTerm(word, coeff, Justification(kind, letter)))
        pairings = tuple(
            Pairing(
                target=_get(item, "target", int, "pairing"),
                source=_get(item, "source", int, "pairing"),
                certificate=self.equivalence(_get(item, "certificate", dict, "pairing")),
            )
            for item in _get(obj, "pairings", list, what, [])
        )
        return MembershipCertificate(input=poly, pairings=pairings, residual=tuple(residual))

    def bundle(self, obj: dict) -> MembershipBundle:
        what = "membership bundle"
        if _get(obj, "type", str, what) != "membership-bundle":
            raise ValueError("not a membership bundle document")
        field = _get(obj, "field", str, what, None)
        if field is not None and field != str(self.field):
            raise ValueError(f"bundle is over {field}, but the field in force is {self.field}")
        components = []
        for item in _get(obj, "components", list, what):
            identity = _get(item, "identity", bool, "bundle component")
            cert = _get(item, "certificate", dict, "bundle component") if identity else None
            components.append(
                BundleComponent(
                    component=self.polynomial(_get(item, "component", str, "bundle component")),
                    certificate=None if cert is None else self.membership(cert),
                )
            )
        return MembershipBundle(
            input=self.polynomial(_get(obj, "input", str, what)),
            components=tuple(components),
        )


def read_certificate(
    doc: Any, group: Group, field: Field
) -> Union[EquivalenceCertificate, MembershipCertificate, MembershipBundle]:
    """Read a certificate document of any of the three types, chosen by its
    `type`, over `field`, which a bundle's own `field` key must name.  The
    type is compared, not looked up, so any JSON type gets one error line.
    A top-level `format`, if present, must be `CERTIFICATE_FORMAT`."""
    if not isinstance(doc, dict):
        raise ValueError(f"certificate document must be a JSON object, got {type(doc).__name__}")
    version = _get(doc, "format", int, "certificate document", CERTIFICATE_FORMAT)
    if version != CERTIFICATE_FORMAT:
        raise ValueError(f"unsupported certificate format {version}, expected {CERTIFICATE_FORMAT}")
    kind = doc.get("type")
    reader = _Reader(group, field)
    if kind == "equivalence":
        return reader.equivalence(doc)
    if kind == "membership":
        return reader.membership(doc)
    if kind == "membership-bundle":
        return reader.bundle(doc)
    raise ValueError(f"unknown certificate type {kind!r}")


def equivalence_to_dict(
    cert: EquivalenceCertificate, group: Group, texts: Optional[dict[Word, str]] = None
) -> dict:
    texts = texts or {}  # texts of the words already written in the document
    return {
        "format": CERTIFICATE_FORMAT,
        "type": "equivalence",
        "start": texts.get(cert.start) or format_word(group, cert.start),
        "end": texts.get(cert.end) or format_word(group, cert.end),
        "steps": [{"rule": s.rule, "split": list(s.split)} for s in cert.steps],
    }


def membership_to_dict(
    cert: MembershipCertificate, group: Group, texts: Optional[dict[Word, str]] = None
) -> dict:
    field = cert.input.field
    texts = {} if texts is None else texts  # pairing and residual words are input words
    return {
        "format": CERTIFICATE_FORMAT,
        "type": "membership",
        "input": format_polynomial(group, cert.input, texts),
        "pairings": [
            {
                "target": pairing.target,
                "source": pairing.source,
                "certificate": equivalence_to_dict(pairing.certificate, group, texts),
            }
            for pairing in cert.pairings
        ],
        "residual": [
            {
                "word": texts.get(term.word) or format_word(group, term.word),
                "coefficient": field.format(term.coefficient),
                # the fields are the schema's keys; an absent letter is not written
                "justification": {
                    k: v for k, v in vars(term.justification).items() if v is not None
                },
            }
            for term in cert.residual
        ],
    }


def bundle_to_dict(
    f: FreePoly,
    outcomes: Sequence[tuple[FreePoly, Union[MembershipCertificate, NonIdentityWitness]]],
    group: Group,
) -> dict:
    """The membership-bundle document for f, from each multihomogeneous
    component with its certificate or its non-identity witness.  Each
    distinct word is formatted once, into the document's memo `texts`."""
    texts: dict[Word, str] = {}
    components = []
    for component, outcome in outcomes:
        if isinstance(outcome, NonIdentityWitness):
            item: dict = {
                "component": format_polynomial(group, component, texts),
                "identity": False,
                "witness": {
                    "position": list(outcome.position),
                    "entry": render_poly(outcome.entry, group.format),
                },
            }
        else:
            cert = membership_to_dict(outcome, group, texts)
            text = cert["input"]  # certify's certificates hold their component as input
            if outcome.input is not component:
                text = format_polynomial(group, component, texts)
            item = {
                "component": text,
                "identity": True,
                "certificate": cert,
            }
        components.append(item)
    return {
        "format": CERTIFICATE_FORMAT,
        "type": "membership-bundle",
        "field": str(f.field),
        "input": format_polynomial(group, f, texts),
        "components": components,
        "identity": all(item["identity"] for item in components),
    }
