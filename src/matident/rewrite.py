"""Machine-checkable rewrite and membership certificates.

Two swap rules generate the congruence used throughout:

  neutral-swap     w = p|u|v|q      ->  p|v|u|q     deg(u) = deg(v) = e
  conjugate-swap   w = p|u|t|v|q    ->  p|v|t|u|q   deg(u) = deg(v) != e,
                                                    deg(t) = deg(u)^-1

Both preserve the generic evaluation of the word exactly.  An equivalence
certificate is a replayable list of such steps from one word to another; a
membership certificate reduces a multihomogeneous polynomial, pairing off
terms through equivalence certificates until every remaining term is a
monomial identity on its own.  Verifiers recompute every side condition
from scratch and compare the generic evaluations of each pairing's two
ends once, so checking is independent of how a certificate was produced.

Certifying groups the terms by signature (see `generic`): with a
distinct tuple two nonempty evaluations are equal exactly when the
signatures are, and otherwise share no entry, so every pairing is found
by lookup in its class, and certify cost is linear in the term count
plus the derivations.  Only the checkers walk chains: they compare end
evaluations with `word_product_closed` and recompute empty chain sets
with `Grading.lset`, replaying the working list independently of certify.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

from .commpoly import Field, Poly, accumulate, render_poly
from .freealg import (
    FreePoly,
    Word,
    degree_sequence,
    format_polynomial,
    format_word,
    is_multihomogeneous,
    multihomogeneous_components,
    parse_polynomial,
    parse_word,
    word_degree,
)
from .generic import (
    _matching,
    check_letters,
    evaluate,
    letter_matching,
    require_distinct,
    signatures,
    survivors,
    word_product_closed,
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

    def shifted(self, offset: int) -> "RewriteStep":
        return RewriteStep(self.rule, tuple(c + offset for c in self.split))

    def inverse(self) -> "RewriteStep":
        """The step undoing this one on the swapped word."""
        if self.rule == NEUTRAL_SWAP:
            i, j, k = self.split
            return RewriteStep(NEUTRAL_SWAP, (i, i + (k - j), k))
        i, j, k, l = self.split
        return RewriteStep(CONJUGATE_SWAP, (i, i + l - k, i + l - j, l))


def apply_step(group: Group, word: Word, step: RewriteStep) -> Word:
    """Apply one swap, checking the factorization and degree conditions."""
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
        u, v = word[i:j], word[j:k]
        if word_degree(group, u) != eps:
            raise StepError("side condition failed: first swapped block must have neutral degree")
        if word_degree(group, v) != eps:
            raise StepError("side condition failed: second swapped block must have neutral degree")
        return word[:i] + v + u + word[k:]
    i, j, k, l = cuts
    u, t, v = word[i:j], word[j:k], word[k:l]
    du = word_degree(group, u)
    if du == eps:
        raise StepError("side condition failed: swapped blocks must have non-neutral degree")
    if word_degree(group, v) != du:
        raise StepError("side condition failed: swapped blocks must have equal degree")
    if word_degree(group, t) != group.inverse(du):
        raise StepError("side condition failed: middle block must have the inverse degree")
    return word[:i] + v + t + u + word[l:]


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
    end, and its evaluation equals the start's, which is evaluated first
    to validate every letter (a swap only permutes them).  A repeated
    tuple raises DistinctTupleError: equal evaluations prove nothing there.
    """
    require_distinct(grading)
    group = grading.group
    current = tuple(cert.start)
    if not current:
        return CheckResult(False, "start word is empty")
    reference = word_product_closed(grading, current)
    for idx, step in enumerate(cert.steps):
        try:
            current = apply_step(group, current, step)
        except StepError as exc:
            return CheckResult(False, f"step {idx}: {exc}")
    if current != tuple(cert.end):
        return CheckResult(False, "replayed word does not match the recorded end")
    if word_product_closed(grading, current) != reference:
        return CheckResult(False, "generic evaluation changed between start and end")
    return CheckResult(True)


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


def derive_equivalence(grading: Grading, m: Word, n: Word) -> EquivalenceCertificate:
    """Derive a certificate from n to m.

    Requires a shared nonzero entry (and a distinct-entry grading).  The
    derivation aligns one letter at a time: recover the letter matching of
    the unaligned suffixes from their signatures (one per suffix and step,
    trusting the letters that the precheck's matching validated), rotate
    whichever side the matching dictates so the leading letters agree, and
    strip.  Rotations applied to the m side are appended to the certificate
    inverted, so the replay runs n to m.
    """
    require_distinct(grading)
    m = tuple(m)
    n = tuple(n)
    if letter_matching(grading, m, n) is None:
        raise ValueError("words do not share a nonzero entry; no derivation exists")
    group = grading.group
    m_cur, n_cur = m, n
    m_steps: list[RewriteStep] = []
    n_steps: list[RewriteStep] = []
    p = 0
    while p < len(m_cur):
        if m_cur[p] == n_cur[p]:
            p += 1
            continue
        msuf, nsuf = m_cur[p:], n_cur[p:]
        sigma = _matching(grading, msuf, nsuf)
        if sigma is None:
            raise AssertionError("shared entry lost while stripping aligned letters")
        a = sigma.index(1) + 1
        side, step = _alignment_step(group, msuf, nsuf, sigma, a)
        step = step.shifted(p)
        if side == "n":
            n_cur = apply_step(group, n_cur, step)
            n_steps.append(step)
        else:
            m_cur = apply_step(group, m_cur, step)
            m_steps.append(step)
    if m_cur != n_cur:
        raise AssertionError("alignment finished on different words")
    steps = tuple(n_steps) + tuple(s.inverse() for s in reversed(m_steps))
    return EquivalenceCertificate(start=n, steps=steps, end=m)


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

    Each term's signature is computed once.  Terms with no surviving
    start row vanish on their own and are left for the residual; the
    others are grouped by signature, which gives the classes of their
    nonempty evaluations.  The zero test sums coefficients per class, and
    a nonzero sum takes its witness from `evaluate`.  Terms keep the ids
    of their sorted order; the target is the next live id in a class and
    the source the next id of that class.  Pairings record ranks among
    the live ids, and coefficients are kept by id until the residual is
    built at the end.
    """
    require_distinct(grading)
    if not is_multihomogeneous(f):
        raise ValueError("input must be multihomogeneous; decompose first")
    field = f.field
    terms = f.sorted_terms()
    words = [word for word, _ in terms]
    coeffs = [coeff for _, coeff in terms]
    keys = signatures(grading, words)
    alive = {key for key in set(keys) if survivors(grading, key)}
    classes: dict = {}  # surviving signature -> its live ids, ascending
    sums: dict = {}
    for tid, key in enumerate(keys):
        if key in alive:
            classes.setdefault(key, deque()).append(tid)
            accumulate(field, sums, key, coeffs[tid])
    if sums:
        position, entry = evaluate(grading, f).first_nonzero()
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
            cert = derive_equivalence(grading, words[target], words[source])
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
    # Group arithmetic trusts its arguments, and a residual justified by one
    # letter outside the support never evaluates the others: validate them all.
    check_letters(grading.group, f.terms)
    field = f.field
    work: list[tuple[Word, Any]] = f.sorted_terms()
    for idx, pairing in enumerate(cert.pairings):
        t, s = pairing.target, pairing.source
        if not (0 <= t < len(work) and 0 <= s < len(work)) or t == s:
            return CheckResult(False, f"pairing {idx}: term indexes out of range")
        eq = pairing.certificate
        if tuple(eq.start) != work[s][0] or tuple(eq.end) != work[t][0]:
            return CheckResult(False, f"pairing {idx}: certificate words do not match the terms")
        sub = check_equivalence_certificate(grading, eq)
        if not sub:
            return CheckResult(False, f"pairing {idx}: {sub.reason}")
        merged = field.add(work[t][1], work[s][1])
        work[t] = (work[t][0], merged)
        if field.is_zero(merged):
            del work[max(t, s)], work[min(t, s)]
        else:
            del work[s]
    recorded = [(term.word, term.coefficient) for term in cert.residual]
    if work != recorded:
        return CheckResult(False, "replay does not reach the recorded residual")
    for idx, term in enumerate(cert.residual):
        j = term.justification
        if j.kind == JUSTIFY_OUTSIDE_SUPPORT:
            if j.letter is None or not 1 <= j.letter <= len(term.word):
                return CheckResult(False, f"residual {idx}: cited letter out of range")
            degree = term.word[j.letter - 1].degree
            if grading.component_dimension(degree) != 0:
                return CheckResult(
                    False, f"residual {idx}: cited letter's component is not zero"
                )
        elif j.kind == JUSTIFY_EMPTY_LSET:
            if not grading.lset(degree_sequence(term.word)).is_empty:
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

    Raises DistinctTupleError on a tuple with repeated entries.
    """
    require_distinct(grading)
    parts = multihomogeneous_components(bundle.input)
    if len(bundle.components) != len(parts):
        return CheckResult(
            False,
            f"bundle has {len(bundle.components)} components, "
            f"input decomposes into {len(parts)}",
        )
    covered: set[int] = set()
    for idx, item in enumerate(bundle.components):
        if item.certificate is None:
            return CheckResult(False, f"component {idx} is marked as a non-identity")
        part = next((k for k, p in enumerate(parts) if p == item.component), None)
        if part is None:
            return CheckResult(
                False, f"component {idx} does not match any multihomogeneous part"
            )
        if part in covered:
            return CheckResult(
                False, f"component {idx} repeats a multihomogeneous part already covered"
            )
        covered.add(part)
        result = check_membership_certificate(grading, parts[part], item.certificate)
        if not result.ok:
            return CheckResult(False, f"component {idx}: {result.reason}")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# serialization (stable schema, format 1)


def step_to_dict(step: RewriteStep) -> dict:
    return {"rule": step.rule, "split": list(step.split)}


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


def step_from_dict(obj: dict) -> RewriteStep:
    what = "rewrite step"
    rule = _get(obj, "rule", str, what)
    split = _get(obj, "split", list, what)
    if not all(isinstance(c, int) and not isinstance(c, bool) for c in split):
        raise ValueError(f"{what}: 'split' must be a list of integers, got {split!r}")
    return RewriteStep(rule, tuple(split))


def equivalence_to_dict(cert: EquivalenceCertificate, group: Group) -> dict:
    return {
        "format": CERTIFICATE_FORMAT,
        "type": "equivalence",
        "start": format_word(group, cert.start),
        "end": format_word(group, cert.end),
        "steps": [step_to_dict(s) for s in cert.steps],
    }


def equivalence_from_dict(obj: dict, group: Group) -> EquivalenceCertificate:
    what = "equivalence certificate"
    if _get(obj, "type", str, what) != "equivalence":
        raise ValueError("not an equivalence certificate document")
    return EquivalenceCertificate(
        start=parse_word(_get(obj, "start", str, what), group),
        steps=tuple(step_from_dict(s) for s in _get(obj, "steps", list, what, [])),
        end=parse_word(_get(obj, "end", str, what), group),
    )


def justification_to_dict(j: Justification) -> dict:
    out: dict = {"kind": j.kind}
    if j.letter is not None:
        out["letter"] = j.letter
    return out


def justification_from_dict(obj: dict) -> Justification:
    what = "justification"
    return Justification(
        kind=_get(obj, "kind", str, what), letter=_get(obj, "letter", int, what, None)
    )


def membership_to_dict(cert: MembershipCertificate, group: Group) -> dict:
    field = cert.input.field
    return {
        "format": CERTIFICATE_FORMAT,
        "type": "membership",
        "input": format_polynomial(group, cert.input),
        "pairings": [
            {
                "target": pairing.target,
                "source": pairing.source,
                "certificate": equivalence_to_dict(pairing.certificate, group),
            }
            for pairing in cert.pairings
        ],
        "residual": [
            {
                "word": format_word(group, term.word),
                "coefficient": field.format(term.coefficient),
                "justification": justification_to_dict(term.justification),
            }
            for term in cert.residual
        ],
    }


def membership_from_dict(obj: dict, group: Group, field: Field) -> MembershipCertificate:
    what = "membership certificate"
    if _get(obj, "type", str, what) != "membership":
        raise ValueError("not a membership certificate document")
    residual = tuple(
        ResidualTerm(
            word=parse_word(_get(item, "word", str, "residual term"), group),
            coefficient=field.parse(_get(item, "coefficient", str, "residual term")),
            justification=justification_from_dict(
                _get(item, "justification", dict, "residual term")
            ),
        )
        for item in _get(obj, "residual", list, what, [])
    )
    pairings = tuple(
        Pairing(
            target=_get(item, "target", int, "pairing"),
            source=_get(item, "source", int, "pairing"),
            certificate=equivalence_from_dict(_get(item, "certificate", dict, "pairing"), group),
        )
        for item in _get(obj, "pairings", list, what, [])
    )
    return MembershipCertificate(
        input=parse_polynomial(_get(obj, "input", str, what), group, field),
        pairings=pairings,
        residual=residual,
    )


def bundle_to_dict(
    f: FreePoly,
    outcomes: Sequence[tuple[FreePoly, Union[MembershipCertificate, NonIdentityWitness]]],
    group: Group,
) -> dict:
    """The membership-bundle document for f, from each multihomogeneous
    component with its certificate or its non-identity witness."""
    components = []
    for component, outcome in outcomes:
        item: dict = {"component": format_polynomial(group, component)}
        if isinstance(outcome, NonIdentityWitness):
            item["identity"] = False
            item["witness"] = {
                "position": list(outcome.position),
                "entry": render_poly(outcome.entry, group.format),
            }
        else:
            item["identity"] = True
            item["certificate"] = membership_to_dict(outcome, group)
        components.append(item)
    return {
        "format": CERTIFICATE_FORMAT,
        "type": "membership-bundle",
        "field": str(f.field),
        "input": format_polynomial(group, f),
        "components": components,
        "identity": all(item["identity"] for item in components),
    }


def bundle_from_dict(obj: dict, group: Group, field: Field) -> MembershipBundle:
    what = "membership bundle"
    if _get(obj, "type", str, what) != "membership-bundle":
        raise ValueError("not a membership bundle document")
    components = []
    for item in _get(obj, "components", list, what):
        identity = _get(item, "identity", bool, "bundle component")
        cert = _get(item, "certificate", dict, "bundle component") if identity else None
        components.append(
            BundleComponent(
                component=parse_polynomial(
                    _get(item, "component", str, "bundle component"), group, field
                ),
                certificate=None if cert is None else membership_from_dict(cert, group, field),
            )
        )
    return MembershipBundle(
        input=parse_polynomial(_get(obj, "input", str, what), group, field),
        components=tuple(components),
    )
