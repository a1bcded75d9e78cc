import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matident import (
    CyclicGroup,
    DistinctTupleError,
    Grading,
    RATIONALS,
    PrimeField,
)
from matident.commpoly import Poly, YVar
from matident.freealg import GVar, parse_polynomial, parse_word
from matident import rewrite
from matident.generic import prefix_degrees, word_product_closed
from matident.rewrite import (
    CONJUGATE_SWAP,
    NEUTRAL_SWAP,
    BundleComponent,
    CheckResult,
    MembershipBundle,
    EquivalenceCertificate,
    Justification,
    MembershipCertificate,
    NonIdentityWitness,
    Pairing,
    ResidualTerm,
    RewriteStep,
    StepError,
    apply_step,
    certify_membership,
    check_equivalence_certificate,
    check_membership_bundle,
    check_membership_certificate,
    derive_equivalence,
    equivalence_to_dict,
    membership_to_dict,
    read_certificate,
)

from helpers import (
    evaluate_direct,
    free_poly,
    is_multihomogeneous,
    random_rewrite_variant,
    random_swappable_word,
    s3_group,
    suite_gradings,
    valid_rewrite_steps,
    z2z2_group,
)

Z2 = CyclicGroup(2)
Z4 = CyclicGroup(4)
GR_Z2 = Grading(Z2, 2, (0, 1))
GR_Z4 = Grading(Z4, 2, (0, 1))


def test_apply_neutral_swap_example():
    w = parse_word("x[1;1]*x[1;2]*x[1;3]*x[1;4]", Z2)
    step = RewriteStep(NEUTRAL_SWAP, (0, 2, 4))
    swapped = parse_word("x[1;3]*x[1;4]*x[1;1]*x[1;2]", Z2)
    assert apply_step(w, prefix_degrees(Z2, w), step) == (swapped, [0, 1, 0, 1, 0])


def test_apply_conjugate_swap_example():
    w = parse_word("x[1;1]*x[1;3]*x[1;2]", Z2)
    step = RewriteStep(CONJUGATE_SWAP, (0, 1, 2, 3))
    swapped = parse_word("x[1;2]*x[1;3]*x[1;1]", Z2)
    assert apply_step(w, prefix_degrees(Z2, w), step) == (swapped, [0, 1, 0, 1])


def test_apply_step_side_condition_errors():
    w = parse_word("x[1;1]*x[1;2]*x[1;3]*x[1;4]", Z2)
    d = prefix_degrees(Z2, w)
    with pytest.raises(StepError, match="neutral degree"):
        apply_step(w, d, RewriteStep(NEUTRAL_SWAP, (0, 1, 2)))
    with pytest.raises(StepError, match="factorization mismatch"):
        apply_step(w, d, RewriteStep(NEUTRAL_SWAP, (0, 2, 5)))
    with pytest.raises(StepError, match="factorization mismatch"):
        apply_step(w, d, RewriteStep(NEUTRAL_SWAP, (2, 2, 4)))
    # conjugate swap needs non-neutral outer blocks
    with pytest.raises(StepError, match="non-neutral"):
        apply_step(w, d, RewriteStep(CONJUGATE_SWAP, (0, 2, 3, 4)))


def test_conjugate_step_failing_both_block_conditions_reports_the_middle_block():
    # u = x[1;1] has degree 1, t = x[1;2] degree 1 (not 3), v = x[2;3]
    # degree 2 (not 1): the middle block is checked first, since it is the
    # one comparison d[k] == d[i] of prefix degrees [0, 1, 2, 0]
    w = parse_word("x[1;1]*x[1;2]*x[2;3]", Z4)
    with pytest.raises(StepError) as exc:
        apply_step(w, prefix_degrees(Z4, w), RewriteStep(CONJUGATE_SWAP, (0, 1, 2, 3)))
    assert str(exc.value) == "side condition failed: middle block must have the inverse degree"


def test_step_inverse_round_trip():
    rng = random.Random(8)
    for grading in suite_gradings()[:3]:
        for _ in range(20):
            w = random_swappable_word(rng, grading)
            d = prefix_degrees(grading.group, w)
            for step in valid_rewrite_steps(grading.group, w):
                swapped, ds = apply_step(w, d, step)
                assert ds == prefix_degrees(grading.group, swapped)
                assert apply_step(swapped, ds, step.inverse()) == (w, d)


def test_steps_preserve_generic_evaluation():
    rng = random.Random(9)
    for grading in suite_gradings()[:4]:
        for _ in range(15):
            w = random_swappable_word(rng, grading)
            before = word_product_closed(grading, w)
            d = prefix_degrees(grading.group, w)
            for step in valid_rewrite_steps(grading.group, w):
                after = word_product_closed(grading, apply_step(w, d, step)[0])
                assert after == before


def test_check_certificate_empty_steps():
    w = parse_word("x[1;1]*x[1;2]", Z2)
    cert = EquivalenceCertificate(start=w, steps=(), end=w)
    assert check_equivalence_certificate(GR_Z2, cert)


def test_check_certificate_detects_corruption():
    m = parse_word("x[1;1]*x[1;2]*x[1;3]*x[1;4]", Z2)
    n = parse_word("x[1;3]*x[1;4]*x[1;1]*x[1;2]", Z2)
    good = derive_equivalence(GR_Z2, m, n)
    assert check_equivalence_certificate(GR_Z2, good)

    # corrupt the split so a degree condition fails
    bad_step = RewriteStep(NEUTRAL_SWAP, (0, 1, 4))
    bad = EquivalenceCertificate(start=n, steps=(bad_step,), end=m)
    result = check_equivalence_certificate(GR_Z2, bad)
    assert not result
    assert "step 0" in result.reason

    # valid steps but wrong end word
    wrong_end = EquivalenceCertificate(start=n, steps=good.steps, end=n)
    result = check_equivalence_certificate(GR_Z2, wrong_end)
    assert not result
    assert "end" in result.reason


def test_checkers_reject_a_step_that_changes_the_evaluation(monkeypatch):
    # A swap preserves the generic evaluation only under its side
    # conditions.  With them gone, the replay reaches the recorded end and
    # only the comparison of the two end evaluations rejects.
    def unchecked_swap(word, degrees, step):
        return rewrite._swap(word, step), rewrite._swap(degrees, step)

    monkeypatch.setattr(rewrite, "apply_step", unchecked_swap)
    grading = Grading(Z4, 4, (0, 1, 2, 3))
    start = parse_word("x[1;1]*x[2;2]*x[1;3]", Z4)
    step = RewriteStep(NEUTRAL_SWAP, (0, 1, 2))
    end = rewrite._swap(start, step)
    assert word_product_closed(grading, end) != word_product_closed(grading, start)
    reason = "generic evaluation changed between start and end"
    eq = EquivalenceCertificate(start, (step,), end)
    assert check_equivalence_certificate(grading, eq) == CheckResult(False, reason)

    f = free_poly(RATIONALS, (start, 1), (end, -1))
    (w0, _), _ = f.sorted_terms()
    pairing = Pairing(0, 1, eq) if w0 == end else Pairing(1, 0, eq)
    cert = MembershipCertificate(f, (pairing,), ())
    result = check_membership_certificate(grading, f, cert)
    assert result == CheckResult(False, f"pairing 0: {reason}")


def test_derive_four_letter_pair_single_neutral_swap():
    m = parse_word("x[1;1]*x[1;2]*x[1;3]*x[1;4]", Z2)
    n = parse_word("x[1;3]*x[1;4]*x[1;1]*x[1;2]", Z2)
    cert = derive_equivalence(GR_Z2, m, n)
    assert cert.start == n and cert.end == m
    assert len(cert.steps) == 1
    assert cert.steps[0].rule == NEUTRAL_SWAP
    assert check_equivalence_certificate(GR_Z2, cert)


def test_derive_equal_words_empty_certificate():
    m = parse_word("x[1;1]*x[1;2]", Z2)
    cert = derive_equivalence(GR_Z2, m, m)
    assert cert.steps == ()
    assert check_equivalence_certificate(GR_Z2, cert)


def test_derive_conjugate_pair_single_swap():
    m = parse_word("x[1;1]*x[1;3]*x[1;2]", Z2)
    n = parse_word("x[1;2]*x[1;3]*x[1;1]", Z2)
    cert = derive_equivalence(GR_Z2, m, n)
    assert len(cert.steps) == 1
    assert cert.steps[0].rule == CONJUGATE_SWAP
    assert check_equivalence_certificate(GR_Z2, cert)


def test_derive_requires_matching_entry():
    m = parse_word("x[1;1]*x[1;2]", Z2)
    n = parse_word("x[1;2]*x[1;1]", Z2)
    with pytest.raises(ValueError, match="share a nonzero entry"):
        derive_equivalence(GR_Z2, m, n)


def test_derive_random_pairs_all_gradings():
    rng = random.Random(20260401)
    for grading in suite_gradings():
        for _ in range(25):
            m = random_swappable_word(rng, grading)
            n = random_rewrite_variant(rng, grading, m)
            cert = derive_equivalence(grading, m, n)
            assert cert.start == n and cert.end == m
            assert len(cert.steps) <= 3 * len(m)
            assert check_equivalence_certificate(grading, cert)


def test_certify_conjugate_identity_single_pairing():
    f = parse_polynomial("x[1;1]*x[3;3]*x[1;2] - x[1;2]*x[3;3]*x[1;1]", Z4, RATIONALS)
    cert = certify_membership(GR_Z4, f)
    assert isinstance(cert, MembershipCertificate)
    assert len(cert.pairings) == 1
    assert cert.residual == ()
    assert check_membership_certificate(GR_Z4, f, cert)


def test_certify_monomial_identity_residual_only():
    f = parse_polynomial("x[1;1]*x[1;2]", Z4, RATIONALS)
    cert = certify_membership(GR_Z4, f)
    assert isinstance(cert, MembershipCertificate)
    assert cert.pairings == ()
    assert len(cert.residual) == 1
    assert cert.residual[0].justification.kind == "empty-lset"
    assert check_membership_certificate(GR_Z4, f, cert)


def test_certify_outside_support_justification():
    f = parse_polynomial("x[0;1]*x[2;1]", Z4, RATIONALS)
    cert = certify_membership(GR_Z4, f)
    assert isinstance(cert, MembershipCertificate)
    assert cert.residual[0].justification.kind == "degree-outside-support"
    assert cert.residual[0].justification.letter == 2
    assert check_membership_certificate(GR_Z4, f, cert)


def test_certify_non_identity_witness():
    f = parse_polynomial("x[1;1]", Z2, RATIONALS)
    witness = certify_membership(GR_Z2, f)
    assert isinstance(witness, NonIdentityWitness)
    assert witness.position == (1, 2)
    assert witness.entry == Poly(RATIONALS, {((YVar(1, 1, 1), 1),): RATIONALS.one})
    # independent re-evaluation confirms the cited entry
    direct = evaluate_direct(GR_Z2, f)
    assert direct.entry(*witness.position) == witness.entry


def test_certify_requires_multihomogeneous():
    f = parse_polynomial("x[0;1] + x[0;1]*x[0;2]", Z2, RATIONALS)
    with pytest.raises(ValueError, match="multihomogeneous"):
        certify_membership(GR_Z2, f)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    which=st.integers(0, len(suite_gradings()) - 1),
    mixed=st.booleans(),
)
def test_certify_refuses_exactly_the_inputs_the_oracle_calls_mixed(seed, which, mixed):
    # permutations of one word are multihomogeneous; a second word of the
    # same length over few letters may or may not share its multidegree
    rng = random.Random(seed)
    grading = suite_gradings()[which]
    support = grading.support()

    def word(length):
        return tuple(GVar(rng.choice(support), rng.randint(1, 2)) for _ in range(length))

    base = word(rng.randint(1, 4))
    words = [base] + [tuple(rng.sample(base, len(base))) for _ in range(rng.randint(0, 2))]
    if mixed:
        words.append(word(rng.choice((len(base), rng.randint(1, 4)))))
    f = free_poly(RATIONALS, *((w, rng.choice((-2, -1, 1, 2))) for w in words))
    if is_multihomogeneous(f):
        assert isinstance(certify_membership(grading, f), (MembershipCertificate, NonIdentityWitness))
    else:
        with pytest.raises(ValueError) as exc:
            certify_membership(grading, f)
        assert str(exc.value) == "input must be multihomogeneous; decompose first"


def test_certify_zero_polynomial():
    cert = certify_membership(GR_Z2, free_poly(RATIONALS))
    assert isinstance(cert, MembershipCertificate)
    assert cert.pairings == () and cert.residual == ()


def test_check_membership_rejects_wrong_residual():
    f = parse_polynomial("x[1;1]*x[1;2]", Z4, RATIONALS)
    cert = certify_membership(GR_Z4, f)
    # claim a residual term with a nonempty chain set
    live_word = parse_word("x[1;1]*x[3;2]", Z4)
    forged = MembershipCertificate(
        input=free_poly(RATIONALS, (live_word, 1)),
        pairings=(),
        residual=(
            ResidualTerm(live_word, Fraction(1), Justification("empty-lset")),
        ),
    )
    result = check_membership_certificate(GR_Z4, free_poly(RATIONALS, (live_word, 1)), forged)
    assert not result
    assert "chain set" in result.reason

    # replay mismatch: residual omits the term
    forged2 = MembershipCertificate(input=f, pairings=(), residual=())
    result2 = check_membership_certificate(GR_Z4, f, forged2)
    assert not result2
    assert "residual" in result2.reason


def test_check_membership_rejects_foreign_polynomial():
    f = parse_polynomial("x[1;1]*x[1;2]", Z4, RATIONALS)
    g = parse_polynomial("x[3;1]*x[3;2]", Z4, RATIONALS)
    cert = certify_membership(GR_Z4, f)
    result = check_membership_certificate(GR_Z4, g, cert)
    assert not result


def _refused(check) -> bool:
    """True when a certificate checker raises ValueError or answers invalid."""
    try:
        return not check()
    except ValueError:
        return True


@pytest.mark.parametrize(
    "grading, bad",
    [
        (Grading(Z4, 4, (0, 1, 2, 3)), 5),
        (Grading(Z4, 4, (0, 1, 2, 3)), True),
        (GR_Z4, 5),
        (GR_Z4, True),
        (Grading(z2z2_group(), 4, ((0, 0), (0, 1), (1, 0), (1, 1))), (0, 2)),
    ],
    ids=["z4-5", "z4-true", "z4p-5", "z4p-true", "z2z2-(0,2)"],
)
def test_checkers_refuse_non_element_degrees(grading, bad):
    # Hand-built certificates bypass parsing, and group arithmetic trusts
    # its arguments: the checkers themselves must refuse such words.
    good = grading.entries[1]
    word = (GVar(bad, 1), GVar(good, 2))
    swapped = (GVar(good, 2), GVar(bad, 1))
    swap = RewriteStep(NEUTRAL_SWAP, (0, 1, 2))
    for cert in (
        EquivalenceCertificate(word, (), word),
        EquivalenceCertificate(word, (swap,), swapped),
        EquivalenceCertificate(swapped, (swap,), word),
    ):
        assert _refused(lambda: check_equivalence_certificate(grading, cert))

    def membership(f, pairings, residual):
        cert = MembershipCertificate(f, tuple(pairings), tuple(residual))
        return _refused(lambda: check_membership_certificate(grading, f, cert))

    one = free_poly(RATIONALS, (word, 1))
    for letter in (1, 2):
        justified = Justification("degree-outside-support", letter=letter)
        assert membership(one, (), [ResidualTerm(word, Fraction(1), justified)])
    empty = Justification("empty-lset")
    assert membership(one, (), [ResidualTerm(word, Fraction(1), empty)])
    # on Z4 (0,1) the cited letter's degree is outside the support and the
    # other letter's is no element: the citation alone must not pass
    outside = (GVar(2, 1), GVar(bad, 2))
    cited = Justification("degree-outside-support", letter=1)
    assert membership(
        free_poly(RATIONALS, (outside, 1)), (), [ResidualTerm(outside, Fraction(1), cited)]
    )
    pair = free_poly(RATIONALS, (word, 1), (swapped, -1))
    (w0, _), (w1, _) = pair.sorted_terms()
    for pairing in (
        Pairing(0, 1, EquivalenceCertificate(w1, (swap,), w0)),
        Pairing(1, 0, EquivalenceCertificate(w0, (swap,), w1)),
    ):
        assert membership(pair, [pairing], [])


def test_checkers_refuse_repeated_tuples():
    # The swap is valid on Z2 (0,1), but on Z2 (0,0) every matrix has the
    # neutral degree and the difference is no identity: x1 = I, x2 = E12,
    # x3 = E21 sends it to E11 - E22.
    repeated = Grading(Z2, 2, (0, 0))
    start = parse_word("x[0;1]*x[0;3]*x[0;1]*x[0;2]", Z2)
    end = parse_word("x[0;1]*x[0;2]*x[0;1]*x[0;3]", Z2)
    eq = EquivalenceCertificate(start, (RewriteStep(NEUTRAL_SWAP, (0, 2, 4)),), end)
    f = free_poly(RATIONALS, (end, 1), (start, -1))
    cert = certify_membership(GR_Z2, f)
    bundle = MembershipBundle(f, (BundleComponent(f, cert),))
    checks = (
        lambda grading: check_equivalence_certificate(grading, eq),
        lambda grading: check_membership_certificate(grading, f, cert),
        lambda grading: check_membership_bundle(grading, bundle),
    )
    for check in checks:
        assert check(GR_Z2)
        with pytest.raises(DistinctTupleError):
            check(repeated)


def test_certify_over_prime_field():
    f3 = PrimeField(3)
    f = parse_polynomial("x[1;1]*x[3;3]*x[1;2] - x[1;2]*x[3;3]*x[1;1]", Z4, f3)
    cert = certify_membership(GR_Z4, f)
    assert isinstance(cert, MembershipCertificate)
    assert check_membership_certificate(GR_Z4, f, cert)


def test_equivalence_serialization_round_trip():
    m = parse_word("x[1;1]*x[1;2]*x[1;3]*x[1;4]", Z2)
    n = parse_word("x[1;3]*x[1;4]*x[1;1]*x[1;2]", Z2)
    cert = derive_equivalence(GR_Z2, m, n)
    doc = equivalence_to_dict(cert, Z2)
    back = read_certificate(doc, Z2, RATIONALS)
    assert isinstance(back, EquivalenceCertificate)
    assert back == cert
    assert equivalence_to_dict(back, Z2) == doc


def test_membership_serialization_round_trip():
    f = parse_polynomial(
        "x[1;1]*x[3;3]*x[1;2] - x[1;2]*x[3;3]*x[1;1] + x[1;1]*x[1;1]", Z4, RATIONALS
    )
    from matident.freealg import multihomogeneous_components

    for comp in multihomogeneous_components(f):
        cert = certify_membership(GR_Z4, comp)
        assert isinstance(cert, MembershipCertificate)
        doc = membership_to_dict(cert, Z4)
        back = read_certificate(doc, Z4, RATIONALS)
        assert isinstance(back, MembershipCertificate)
        assert back == cert
        assert membership_to_dict(back, Z4) == doc
        assert check_membership_certificate(GR_Z4, comp, back)


def test_derive_nonabelian_case_rotating_first_word():
    # pairs engineered so the aligned letter sits behind the whole tail,
    # forcing the derivation to rotate the first word and invert the steps
    s3 = s3_group()
    grading = Grading(s3, 6, tuple(range(6)))
    rng = random.Random(66)
    for _ in range(40):
        n = random_swappable_word(rng, grading)
        m = random_rewrite_variant(rng, grading, n)
        cert = derive_equivalence(grading, m, n)
        assert check_equivalence_certificate(grading, cert)
        assert cert.start == n and cert.end == m
