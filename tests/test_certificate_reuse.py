"""How often certify and check-cert parse, evaluate, validate and write a word.

Reading a bundle parses each polynomial text once and reads every word
text that is a term's factor text from the parsed term; the membership
checker evaluates each distinct term word once per certificate; certify
makes one `signatures` pass, which also decides multihomogeneity and
gives a non-identity's witness, and its derivations skip
`derive_equivalence`'s precheck and compute each term's prefix degrees
once; writing a bundle formats each distinct word once.  Counters wrap the names `rewrite` calls, so each test
also shows which calls a path makes.  Along a ladder of component counts,
writing touches only each component's own words in the document's memo,
and checking a bundle compares each listed component with one part.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from matident import CyclicGroup, GVar, Grading, IntegerGroup, RATIONALS
from matident import freealg, generic, rewrite
from matident.commpoly import SparsePoly
from matident.freealg import format_polynomial, multihomogeneous_components, parse_polynomial
from matident.rewrite import (
    BundleComponent,
    EquivalenceCertificate,
    MembershipBundle,
    MembershipCertificate,
    NonIdentityWitness,
    Pairing,
    bundle_to_dict,
    certify_membership,
    check_membership_bundle,
    check_membership_certificate,
    read_certificate,
)

from helpers import (
    check_equivalence_certificate_stepwise,
    free_poly,
    poly_sum,
    random_identity_component,
    s3_group,
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
    evaluated = _counting(monkeypatch, rewrite, "word_product_closed", arg=1)
    assert check_membership_bundle(grading, bundle)
    terms = {word for item in bundle.components for word in item.component.terms}
    assert max(Counter(evaluated).values(), default=1) == 1
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
    """Derivations rearrange each term's prefix degrees with its letters
    through `apply_step`, once per derivation step."""
    grading = GRADINGS[name]
    components = multihomogeneous_components(_identity(grading, seed))
    expected = [certify_membership(grading, c) for c in components]
    prefix = _counting(monkeypatch, generic, "prefix_degrees", arg=1)
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
    live = next(w for w in sorted(component.terms) if generic.word_product_closed(grading, w))
    f = poly_sum(component, free_poly(RATIONALS, (live, 1)))
    expected = min(generic.evaluate(grading, f).items())
    prefix = _counting(monkeypatch, generic, "prefix_degrees", arg=1)
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

    def oracle(g, eq, *rest):
        received.append(eq)
        return check_equivalence_certificate_stepwise(g, eq, *rest)

    monkeypatch.setattr(rewrite, "check_equivalence_certificate", oracle)
    assert check_membership_certificate(grading, f, forged) == verdict
    assert verdict.ok
    assert len(received) == len(cert.pairings)
    assert all(type(v.degree) is int for eq in received for v in eq.start + eq.end)


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
