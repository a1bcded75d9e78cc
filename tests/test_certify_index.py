"""The indexed certify loop against the linear-scan oracle, and its cost.

`certify_membership` computes each term's signature once and pairs each
target with the next term of the same signature class;
`helpers.certify_membership_linear` picks targets and sources by the
scans it replaced, with derivations that recover each step's letter
matching through the independent oracles `helpers.matching_entry`
(compared evaluation maps) and `helpers.matching_permutation` (naive
chain walks).  Both must produce the same certificate, pairing for
pairing, on any multihomogeneous input.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from matident import CyclicGroup, Grading, IntegerGroup, PrimeField, RATIONALS
from matident import generic
from matident.generic import word_product_closed
from matident.rewrite import (
    MembershipCertificate,
    NonIdentityWitness,
    certify_membership,
    check_membership_certificate,
    membership_to_dict,
    read_certificate,
)

from helpers import (
    certify_membership_linear,
    free_poly,
    partial_cayley_gradings,
    poly_sum,
    random_identity_component,
    s3_group,
    z2z2_group,
    z4_sweep_component,
)

GRADINGS = {
    "z4": Grading(CyclicGroup(4), 4, (0, 1, 2, 3)),
    "z4_partial": Grading(CyclicGroup(4), 2, (0, 1)),
    "z2z2": Grading(z2z2_group(), 4, ((0, 0), (0, 1), (1, 0), (1, 1))),
    "s3": Grading(s3_group(), 6, tuple(range(6))),
    "integers": Grading(IntegerGroup(), 3, (0, 1, 3)),
}
FIELDS = [RATIONALS, PrimeField(2), PrimeField(3)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(sorted(GRADINGS)),
    field=st.sampled_from(FIELDS),
    classes=st.integers(1, 4),
    per_class=st.integers(2, 5),
    vanishing=st.integers(0, 3),
    broken=st.sampled_from([False, False, False, True]),
)
def test_certify_matches_linear_scan_oracle(
    seed, name, field, classes, per_class, vanishing, broken
):
    rng = random.Random(seed)
    grading = GRADINGS[name]
    f = random_identity_component(rng, grading, field, classes, per_class, vanishing)
    if broken:
        # one more copy of a term with a nonzero evaluation breaks the zero sum
        word = next((w for w in f.terms if word_product_closed(grading, w)), None)
        if word is not None:
            f = poly_sum(f, free_poly(field, (word, 1)))
    if not f.terms:
        return
    got = certify_membership(grading, f)
    assert got == certify_membership_linear(grading, f)
    if isinstance(got, MembershipCertificate):
        assert check_membership_certificate(grading, f, got)
    else:
        assert isinstance(got, NonIdentityWitness)


PARTIAL_CAYLEY = partial_cayley_gradings()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    which=st.integers(0, len(PARTIAL_CAYLEY) - 1),
    field=st.sampled_from(FIELDS),
    classes=st.integers(1, 4),
    per_class=st.integers(2, 5),
    vanishing=st.integers(0, 3),
)
def test_identities_over_partial_cayley_gradings_certify(
    seed, which, field, classes, per_class, vanishing
):
    # completeness: every zero-sum swap-class identity over a non-abelian
    # grading with partial support certifies, and its document checks
    rng = random.Random(seed)
    grading = PARTIAL_CAYLEY[which]
    group = grading.group
    f = random_identity_component(rng, grading, field, classes, per_class, vanishing)
    if not f.terms:
        return
    cert = certify_membership(grading, f)
    assert isinstance(cert, MembershipCertificate)
    doc = json.loads(json.dumps(membership_to_dict(cert, group)))
    read = read_certificate(doc, group, field)
    assert isinstance(read, MembershipCertificate)
    assert read.input == f
    assert check_membership_certificate(grading, read.input, read)


def test_certify_signature_work_per_term_is_flat(monkeypatch):
    """Signature computations per term stay flat along a Z4 term-count
    ladder: the index replaces scans whose work grew with the term count."""
    grading = GRADINGS["z4"]
    calls = []
    prefix_degrees = generic.prefix_degrees

    def counting(group, word):
        calls.append(1)
        return prefix_degrees(group, word)

    monkeypatch.setattr(generic, "prefix_degrees", counting)
    per_term = []
    for terms in (50, 150, 360):
        f = z4_sweep_component(terms)
        calls.clear()
        assert isinstance(certify_membership(grading, f), MembershipCertificate)
        per_term.append(len(calls) / len(f.terms))
    assert 1 <= per_term[0] and per_term[-1] <= 1.2 * per_term[0], per_term
