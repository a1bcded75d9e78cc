"""How often certify and check-cert parse, evaluate, validate and write a word.

Reading a bundle parses each polynomial text once and reads every word
text that is a term's factor text from the parsed term; the membership
checker evaluates each distinct term word once per certificate, one
`chain_key` walk each; certify makes one `signatures` pass, which also
decides multihomogeneity and gives a non-identity's witness, and its
derivations skip `derive_equivalence`'s precheck and compute each term's
`prefix_pairs` once; writing a bundle formats each distinct word once.
Counters wrap the names `rewrite` calls, so each test also shows which
calls a path makes.  Along a ladder of component counts,
writing touches only each component's own words in the document's memo,
and checking a bundle compares each listed component with one part.
Along a ladder of word lengths, replaying a step moves only the
(letter, prefix degree) pairs within its span.
"""

import json
import random
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from matident import CyclicGroup, GVar, Grading, IntegerGroup, RATIONALS
from matident import freealg, generic, rewrite
from matident.commpoly import SparsePoly
from matident.freealg import format_polynomial, multihomogeneous_components, parse_polynomial
from matident.rewrite import (
    JUSTIFY_OUTSIDE_SUPPORT,
    NEUTRAL_SWAP,
    BundleComponent,
    CheckResult,
    EquivalenceCertificate,
    Justification,
    MembershipBundle,
    MembershipCertificate,
    NonIdentityWitness,
    Pairing,
    ResidualTerm,
    RewriteStep,
    bundle_to_dict,
    certify_membership,
    check_equivalence_certificate,
    check_membership_bundle,
    check_membership_certificate,
    read_certificate,
)

from helpers import (
    free_poly,
    poly_sum,
    random_identity_component,
    replay_stepwise,
    s3_group,
    word_product_closed,
)

GRADINGS = {
    "z4": Grading(CyclicGroup(4), 4, (0, 1, 2, 3)),
    "z4_partial": Grading(CyclicGroup(4), 2, (0, 1)),
    "s3": Grading(s3_group(), 6, tuple(range(6))),
    "integers": Grading(IntegerGroup(), 3, (0, 1, 3)),
}
CASES = [(name, seed) for name in sorted(GRADINGS) for seed in (1, 2)]


def _identity(grading, seed):
    """Two random identity components, with vanishing terms, summed."""
    rng = random.Random(seed)
    return poly_sum(
        *(random_identity_component(rng, grading, RATIONALS, 3, 4, vanishing=2) for _ in range(2))
    )


def _bundle_doc(grading, f) -> dict:
    outcomes = [(c, certify_membership(grading, c)) for c in multihomogeneous_components(f)]
    return json.loads(json.dumps(bundle_to_dict(f, outcomes, grading.group)))


def _counting(monkeypatch, module, name, arg=0) -> list:
    """Wrap module.name; returns the list of each call's argument `arg`."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args[arg])
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("name,seed", CASES)
def test_reading_a_genuine_bundle_parses_no_word(monkeypatch, name, seed):
    grading = GRADINGS[name]
    doc = _bundle_doc(grading, _identity(grading, seed))
    words = _counting(monkeypatch, rewrite, "parse_word")
    polys = _counting(monkeypatch, rewrite, "parse_polynomial")
    bundle = read_certificate(doc, grading.group, RATIONALS)
    assert words == []
    # a certificate's input is its component's text, parsed once
    texts = {doc["input"]} | {item["component"] for item in doc["components"]}
    assert sorted(polys) == sorted(texts)
    assert check_membership_bundle(grading, bundle)


@pytest.mark.parametrize("name,seed", CASES)
def test_respaced_word_texts_read_to_the_same_words(monkeypatch, name, seed):
    grading = GRADINGS[name]
    doc = _bundle_doc(grading, _identity(grading, seed))
    bundle = read_certificate(doc, grading.group, RATIONALS)
    # no factor text has a space around '*' or before its first 'x'
    respaced = set()
    for item in doc["components"]:
        cert = item["certificate"]
        for pairing in cert["pairings"]:
            eq = pairing["certificate"]
            eq["start"], eq["end"] = (" " + eq[k].replace("*", " * ") for k in ("start", "end"))
            respaced.update((eq["start"], eq["end"]))
        for term in cert["residual"]:
            term["word"] = " " + term["word"]
            respaced.add(term["word"])
    words = _counting(monkeypatch, rewrite, "parse_word")
    read = read_certificate(doc, grading.group, RATIONALS)
    assert read == bundle
    assert sorted(words) == sorted(respaced)
    assert check_membership_bundle(grading, read)


@pytest.mark.parametrize("name,seed", CASES)
def test_check_evaluates_each_term_word_once(monkeypatch, name, seed):
    grading = GRADINGS[name]
    doc = _bundle_doc(grading, _identity(grading, seed))
    bundle = read_certificate(doc, grading.group, RATIONALS)
    evaluated = _counting(monkeypatch, rewrite, "chain_key", arg=1)
    assert check_membership_bundle(grading, bundle)
    terms = {word for item in bundle.components for word in item.component.terms}
    assert evaluated, "the checker made no chain walk"
    assert max(Counter(evaluated).values()) == 1
    assert set(evaluated) <= terms


@pytest.mark.parametrize("name,seed", CASES)
def test_certify_makes_no_letter_matching_call(monkeypatch, name, seed):
    """Each pairing's letter matching is read inside `_align`, never through
    `derive_equivalence`, whose precheck would recompute the signatures."""
    grading = GRADINGS[name]
    calls = _counting(monkeypatch, rewrite, "derive_equivalence", arg=1)
    pairings = 0
    for component in multihomogeneous_components(_identity(grading, seed)):
        cert = certify_membership(grading, component)
        assert isinstance(cert, MembershipCertificate)
        pairings += len(cert.pairings)
    assert pairings and calls == []


@pytest.mark.parametrize("name,seed", CASES)
def test_certify_makes_one_signatures_pass(monkeypatch, name, seed):
    """The multihomogeneity check reads the signatures, so certify on an
    identity builds no multidegree."""
    grading = GRADINGS[name]
    components = multihomogeneous_components(_identity(grading, seed))
    passes = _counting(monkeypatch, rewrite, "signatures", arg=1)
    multidegrees = _counting(monkeypatch, freealg, "multidegree")
    for component in components:
        passes.clear()
        assert isinstance(certify_membership(grading, component), MembershipCertificate)
        assert [sorted(words) for words in passes] == [sorted(component.terms)]
    assert multidegrees == []


@pytest.mark.parametrize("name,seed", CASES)
def test_certify_computes_prefix_degrees_once_per_term(monkeypatch, name, seed):
    """Derivations rearrange each term's `prefix_pairs` through
    `apply_step`, once per derivation step."""
    grading = GRADINGS[name]
    components = multihomogeneous_components(_identity(grading, seed))
    expected = [certify_membership(grading, c) for c in components]
    prefix = _counting(monkeypatch, generic, "prefix_pairs", arg=1)
    applied = _counting(monkeypatch, rewrite, "apply_step")
    assert [certify_membership(grading, c) for c in components] == expected
    steps = sum(len(p.certificate.steps) for cert in expected for p in cert.pairings)
    assert steps
    assert sorted(prefix) == sorted(word for c in components for word in c.terms)
    assert len(applied) == steps


@pytest.mark.parametrize("name,seed", CASES)
def test_certify_witness_computes_prefix_degrees_once_per_term(monkeypatch, name, seed):
    """On a non-identity component, certify reads its witness from the
    class sums of its one `signatures` pass, not from a second pass
    through `evaluate`."""
    grading = GRADINGS[name]
    component = multihomogeneous_components(_identity(grading, seed))[0]
    live = next(w for w in sorted(component.terms) if word_product_closed(grading, w))
    f = poly_sum(component, free_poly(RATIONALS, (live, 1)))
    expected = min(generic.evaluate(grading, f).items())
    prefix = _counting(monkeypatch, generic, "prefix_pairs", arg=1)
    witness = certify_membership(grading, f)
    assert isinstance(witness, NonIdentityWitness)
    assert (witness.position, witness.entry) == expected
    assert sorted(prefix) == sorted(f.terms)


@pytest.mark.parametrize("name,seed", CASES)
def test_bundle_to_dict_formats_each_word_once(monkeypatch, name, seed):
    grading = GRADINGS[name]
    f = _identity(grading, seed)
    outcomes = [(c, certify_membership(grading, c)) for c in multihomogeneous_components(f)]
    expected = json.dumps(bundle_to_dict(f, outcomes, grading.group))
    formatted = [_counting(monkeypatch, module, "format_word", arg=1) for module in (freealg, rewrite)]
    assert json.dumps(bundle_to_dict(f, outcomes, grading.group)) == expected
    words = formatted[0] + formatted[1]
    assert sorted(words) == sorted(f.terms)


def test_bundle_to_dict_formats_each_polynomial_once(monkeypatch):
    grading = GRADINGS["z4"]
    f = _identity(grading, 3)
    outcomes = [(c, certify_membership(grading, c)) for c in multihomogeneous_components(f)]
    expected = json.dumps(bundle_to_dict(f, outcomes, grading.group))
    formatted = _counting(monkeypatch, rewrite, "format_polynomial")
    assert json.dumps(bundle_to_dict(f, outcomes, grading.group)) == expected
    assert len(formatted) == 1 + len(outcomes)


COMPONENT_LADDER = (100, 400, 1600)


def _commutators(count: int):
    """The sum of `count` neutral commutators x[0;2i-1]*x[0;2i] - x[0;2i]*x[0;2i-1],
    which has `count` multihomogeneous components of two terms each."""
    terms = []
    for i in range(1, count + 1):
        u, v = GVar(0, 2 * i - 1), GVar(0, 2 * i)
        terms += [((u, v), 1), ((v, u), -1)]
    return free_poly(RATIONALS, *terms)


class _CountingMemo(dict):
    """A word -> text memo that counts its operations: one per lookup or
    store, and one per key for a pass over all its keys."""

    ops = 0

    def __contains__(self, key):
        self.ops += 1
        return super().__contains__(key)

    def __getitem__(self, key):
        self.ops += 1
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.ops += 1
        super().__setitem__(key, value)

    def get(self, key, default=None):
        self.ops += 1
        return super().get(key, default)

    def update(self, other=(), **kwargs):
        items = dict(other, **kwargs)
        self.ops += len(items)
        super().update(items)

    def keys(self):
        self.ops += len(self)
        return super().keys()

    def __iter__(self):
        self.ops += len(self)
        return super().__iter__()


def test_format_polynomial_memo_work_follows_the_terms():
    """Memo operations per component stay proportional to its term count
    from C = 100 to C = 1,600 components, formatted into one memo as
    `bundle_to_dict` does: only the component's own words are looked up."""
    group = CyclicGroup(4)
    per_term = []
    for count in COMPONENT_LADDER:
        texts = _CountingMemo()
        for part in multihomogeneous_components(_commutators(count)):
            before = texts.ops
            format_polynomial(group, part, texts)
            per_term.append((texts.ops - before) / len(part.terms))
    assert max(per_term) <= 3, max(per_term)


def test_bundle_check_compares_each_listed_component_once(monkeypatch):
    """`SparsePoly.__eq__` calls per listed component stay flat from C = 100
    to C = 1,600 components: each is looked up among the parts, not compared
    with every one."""
    grading = GRADINGS["z4"]
    bundles = []
    for count in COMPONENT_LADDER:
        f = _commutators(count)
        parts = multihomogeneous_components(f)
        components = [BundleComponent(c, certify_membership(grading, c)) for c in parts]
        bundles.append(MembershipBundle(f, tuple(components)))
    calls = []
    eq = SparsePoly.__eq__

    def counting(self, other):
        calls.append(1)
        return eq(self, other)

    monkeypatch.setattr(SparsePoly, "__eq__", counting)
    per_component = []
    for bundle in bundles:
        calls.clear()
        assert check_membership_bundle(grading, bundle)
        per_component.append(len(calls) / len(bundle.components))
    assert len(set(per_component)) == 1 and per_component[0] <= 2, per_component


WORD_LADDER = (1000, 2000, 4000, 8000)


class _CountingPairs(list):
    """A `prefix_pairs` list that adds to `moved` the elements its slice
    reads, its slice writes and its sums touch; its slices and sums are
    counting lists too."""

    moved = 0

    def __getitem__(self, key):
        got = super().__getitem__(key)
        if not isinstance(key, slice):
            return got
        _CountingPairs.moved += len(got)
        return _CountingPairs(got)

    def __setitem__(self, key, value):
        if isinstance(key, slice):
            _CountingPairs.moved += len(value)
        super().__setitem__(key, value)

    def __add__(self, other):
        _CountingPairs.moved += len(self) + len(other)
        return _CountingPairs(super().__add__(other))


def test_replay_work_follows_the_step_spans(monkeypatch):
    """Pair-list elements moved per replayed step stay flat from q = 1,000
    to q = 8,000 neutral letters over Z4, with q/2 steps neutral-swap
    [0, 1, 2]: as an equivalence certificate, and as the one pairing of a
    membership certificate, whose replay evaluates through the checker's
    memo.  A step rearranges the list over its span, not the whole word."""
    grading = GRADINGS["z4"]
    original = rewrite.prefix_pairs
    monkeypatch.setattr(
        rewrite, "prefix_pairs", lambda group, word: _CountingPairs(original(group, word))
    )
    swap = RewriteStep(NEUTRAL_SWAP, (0, 1, 2))
    per_step: dict = {"equivalence": [], "membership": []}
    for q in WORD_LADDER:
        m = tuple(GVar(0, i) for i in range(1, q + 1))
        n = (m[1], m[0]) + m[2:]
        # q/2 swaps of the first two letters lead from n to n, so the
        # membership pairing from n to m takes one more
        eq = EquivalenceCertificate(n, (swap,) * (q // 2), n)
        f = free_poly(RATIONALS, (m, 1), (n, -1))
        target = [word for word, _ in f.sorted_terms()].index(m)
        pairing = Pairing(target, 1 - target, EquivalenceCertificate(n, eq.steps + (swap,), m))
        cert = MembershipCertificate(f, (pairing,), ())
        runs = {
            "equivalence": (partial(check_equivalence_certificate, grading, eq), q // 2),
            "membership": (partial(check_membership_certificate, grading, f, cert), q // 2 + 1),
        }
        for kind, (check, steps) in runs.items():
            _CountingPairs.moved = 0
            assert check()
            per_step[kind].append(_CountingPairs.moved / steps)
    assert all(len(set(counts)) == 1 for counts in per_step.values()), per_step


def test_pairing_words_equal_by_value_get_the_oracle_verdict(monkeypatch):
    # GVar(True, 1) == GVar(1, 1) with equal hashes: the pairing words match
    # the terms by value, and the replay runs on the validated term words
    grading = GRADINGS["z4"]
    f = parse_polynomial(
        "x[0;4]*x[1;1]*x[3;2]*x[1;3] - 3*x[0;4]*x[1;3]*x[3;2]*x[1;1]"
        " + 2*x[1;1]*x[3;2]*x[0;4]*x[1;3]",
        grading.group,
        RATIONALS,
    )
    cert = certify_membership(grading, f)
    assert isinstance(cert, MembershipCertificate) and cert.pairings

    def as_true(word):
        return tuple(GVar(True, v.index) if v.degree == 1 else v for v in word)

    forged = MembershipCertificate(
        cert.input,
        tuple(
            Pairing(p.target, p.source, EquivalenceCertificate(
                as_true(p.certificate.start), p.certificate.steps, as_true(p.certificate.end)
            ))
            for p in cert.pairings
        ),
        cert.residual,
    )
    assert forged == cert
    verdict = check_membership_certificate(grading, f, forged)
    received = []

    def oracle(g, start, steps, end, key):
        received.append(start + end)
        return replay_stepwise(g, start, steps, end, key)

    monkeypatch.setattr(rewrite, "_replay", oracle)
    assert check_membership_certificate(grading, f, forged) == verdict
    assert verdict.ok
    assert len(received) == len(cert.pairings)
    assert all(type(v.degree) is int for words in received for v in words)


@pytest.mark.parametrize(
    "letter,reason", [(1, None), (2, "residual 0: cited letter's component is not zero")]
)
def test_residual_words_equal_by_value_get_the_genuine_verdict(letter, reason):
    # the residual word matches the term by value, and its cited letter is
    # read from the validated term word, not from the recorded one, whose
    # degree-1 letters carry True
    grading = GRADINGS["z4_partial"]
    f = parse_polynomial("x[2;1]*x[1;1]", grading.group, RATIONALS)
    [(word, coeff)] = f.sorted_terms()
    forged = tuple(GVar(True, v.index) if v.degree == 1 else v for v in word)
    assert forged == word
    why = Justification(JUSTIFY_OUTSIDE_SUPPORT, letter=letter)
    verdicts = [
        check_membership_certificate(
            grading, f, MembershipCertificate(f, (), (ResidualTerm(recorded, coeff, why),))
        )
        for recorded in (word, forged)
    ]
    assert verdicts == [CheckResult(reason is None, reason)] * 2


MEMBERSHIP = Path(__file__).parent / "golden" / "inputs" / "z4_membership.json"


def test_reading_a_standalone_membership_parses_no_word(monkeypatch):
    # its pairing words are factor texts of its input, which is read first
    doc = json.loads(MEMBERSHIP.read_text(encoding="utf-8"))
    grading = GRADINGS["z4"]
    words = _counting(monkeypatch, rewrite, "parse_word")
    cert = read_certificate(doc, grading.group, RATIONALS)
    assert words == []
    assert check_membership_certificate(grading, cert.input, cert)


@pytest.mark.parametrize(
    "start,residual",
    [
        # the input is read first, and its error is raised at once
        ("x[2;3]*x[2;4]**x[0;5]", []),
        (None, [{"word": "x[", "coefficient": "1", "justification": {"kind": "empty-lset"}}]),
        (None, []),
    ],
    ids=["pairing", "residual", "input"],
)
def test_a_bad_input_is_reported_before_the_bad_words(start, residual):
    doc = json.loads(MEMBERSHIP.read_text(encoding="utf-8"))
    doc["input"] = "x[0;5]*x[7;1] + "
    if start is not None:
        doc["pairings"][1]["certificate"]["start"] = start
    doc["residual"] = residual
    with pytest.raises(ValueError) as caught:
        read_certificate(doc, GRADINGS["z4"].group, RATIONALS)
    assert str(caught.value) == "residue 7 out of range for Z4 (at position 9)"
