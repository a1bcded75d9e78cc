"""Acceptance suite: exact, tolerance-free checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time

from matident import (
    CyclicGroup,
    FreePoly,
    Grading,
    GVar,
    RATIONALS,
    PrimeField,
)
from matident.freealg import multihomogeneous_components
from matident.generic import evaluate, is_graded_identity
from matident.monomials import (
    enumerate_monomial_identities,
    length_bounds,
    shortest_monomial_identity,
)
from matident.rewrite import (
    MembershipCertificate,
    NonIdentityWitness,
    certify_membership,
    check_equivalence_certificate,
    check_membership_certificate,
    derive_equivalence,
)

from helpers import (
    closed_matrix,
    evaluate_direct,
    free_poly,
    is_minimal_identity_by_coarsenings,
    is_multihomogeneous,
    poly_sum,
    random_chain_word,
    random_neutral_word,
    random_rewrite_variant,
    random_swappable_word,
    random_word,
    s3_group,
    sequence_vanishes_by_units,
    suite_gradings,
    word_product_direct,
    z2z2_group,
)

FIELDS = (RATIONALS, PrimeField(3))


def report(name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {name}: {status}")
    assert not failures, f"{name}: {failures[:5]}"


# ---------------------------------------------------------------------------
# basis identity instances


def basis_identity_instances(grading, field, max_index=3):
    """All instances of the three basis identities with indices <= max_index."""
    group = grading.group
    eps = group.identity()
    instances = []
    idx = range(1, max_index + 1)
    for i, j in itertools.product(idx, idx):
        if i == j:
            continue
        a = (GVar(eps, i), GVar(eps, j))
        b = (GVar(eps, j), GVar(eps, i))
        instances.append(free_poly(field, (a, 1), (b, -1)))
    for h in group.elements():
        if h == eps:
            continue
        hinv = group.inverse(h)
        for i, j, k in itertools.product(idx, idx, idx):
            a = (GVar(h, i), GVar(hinv, k), GVar(h, j))
            b = (GVar(h, j), GVar(hinv, k), GVar(h, i))
            instances.append(free_poly(field, (a, 1), (b, -1)))
        if grading.component_dimension(h) == 0:
            for i in idx:
                instances.append(free_poly(field, ((GVar(h, i),), 1)))
    return instances


def test_c1_basis_identities_vanish():
    failures = []
    started = time.monotonic()
    for grading in suite_gradings():
        for field in FIELDS:
            for inst in basis_identity_instances(grading, field):
                if evaluate(grading, inst):
                    failures.append(f"{grading.group} {field}: nonzero evaluation")
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    report("C1 basis identities vanish", failures)


def test_c2_closed_form_matches_direct_products():
    failures = []
    rng = random.Random(2026)
    for grading in suite_gradings():
        for _ in range(1000):
            w = random_word(rng, grading, 6)
            if closed_matrix(grading, RATIONALS, w) != word_product_direct(
                grading, RATIONALS, w
            ):
                failures.append(f"{grading.group}: mismatch on {w}")
                break
    report("C2 closed form equals direct products (1000 words/grading)", failures)


def test_c3_full_support_has_no_monomial_identities():
    failures = []
    for n in range(2, 6):
        grading = Grading(CyclicGroup(n), n, tuple(range(n)))
        if enumerate_monomial_identities(grading, 8) != []:
            failures.append(f"Z{n}: enumeration found sequences")
        if shortest_monomial_identity(grading) is not None:
            failures.append(f"Z{n}: automaton reached the dead state")
    report("C3 |G|=n gradings admit no monomial identities", failures)


def test_c4_partial_support_shortest_and_minimal_set():
    failures = []
    grading = Grading(CyclicGroup(4), 2, (0, 1))
    if shortest_monomial_identity(grading) != (2, (1, 1)):
        failures.append("shortest is not length 2 with witness (1,1)")
    flagged = enumerate_monomial_identities(grading, 2)
    minimal = [seq for seq, flag in flagged if flag]
    if minimal != [(1, 1), (3, 3)]:
        failures.append(f"minimal length-2 set is {minimal}")
    for seq, flag in flagged:
        if flag != is_minimal_identity_by_coarsenings(grading, seq):
            failures.append(f"coarsening oracle disagrees on {seq}")
    for seq in minimal:
        if not sequence_vanishes_by_units(grading, seq):
            failures.append(f"unit-substitution oracle rejects {seq}")
    # the oracle also confirms no shorter identity exists
    for h in grading.support():
        if sequence_vanishes_by_units(grading, (h,)):
            failures.append(f"oracle found a length-1 identity ({h})")
    report("C4 shortest=2 and minimal set {(1,1),(3,3)} for Z4 g=(0,1)", failures)


def test_c5_equivalence_certificates_round_trip():
    failures = []
    rng = random.Random(5005)
    gradings = suite_gradings()
    for count in range(200):
        grading = gradings[count % len(gradings)]
        m = random_swappable_word(rng, grading)
        n = random_rewrite_variant(rng, grading, m)
        cert = derive_equivalence(grading, m, n)
        if cert.start != n or cert.end != m:
            failures.append(f"pair {count}: certificate endpoints wrong")
            continue
        if len(cert.steps) > 3 * len(m):
            failures.append(f"pair {count}: {len(cert.steps)} steps exceeds 3x length")
        result = check_equivalence_certificate(grading, cert)
        if not result:
            failures.append(f"pair {count}: {result.reason}")
    report("C5 200 derived certificates all check", failures)


# ---------------------------------------------------------------------------
# random identities and non-identities for C6/C9


def random_commutator_identity(rng, grading, field):
    for _ in range(20):
        u = random_neutral_word(rng, grading, rng.randint(1, 3))
        v = random_neutral_word(rng, grading, rng.randint(1, 3))
        f = free_poly(field, (u + v, 1), (v + u, -1))
        if not f.is_zero():
            return f
    return None


def random_conjugate_identity(rng, grading, field):
    if grading.n < 2:
        return None
    for _ in range(20):
        p, q = rng.sample(range(1, grading.n + 1), 2)
        u = random_chain_word(rng, grading, rng.randint(1, 3), start=p, end=q)
        v = random_chain_word(rng, grading, rng.randint(1, 3), start=p, end=q)
        t = random_chain_word(rng, grading, rng.randint(1, 3), start=q, end=p)
        f = free_poly(field, (u + t + v, 1), (v + t + u, -1))
        if not f.is_zero():
            return f
    return None


def random_orbit_identity(rng, grading, field):
    w = random_swappable_word(rng, grading)
    terms = []
    for _ in range(rng.randint(1, 3)):
        variant = random_rewrite_variant(rng, grading, w)
        c = rng.randint(1, 2)
        terms += [(w, c), (variant, -c)]
    f = free_poly(field, *terms)
    return None if f.is_zero() else f


def random_monomial_identity_poly(rng, grading, field):
    sequences = [seq for seq, _ in enumerate_monomial_identities(grading, 3)]
    if not sequences:
        return None
    seq = rng.choice(sequences)
    word = tuple(GVar(h, rng.randint(1, 3)) for h in seq)
    return free_poly(field, (word, rng.randint(1, 2)))


def random_identity(rng, grading, field):
    makers = [
        random_commutator_identity,
        random_conjugate_identity,
        random_orbit_identity,
        random_monomial_identity_poly,
    ]
    while True:
        f = rng.choice(makers)(rng, grading, field)
        if f is None:
            continue
        if rng.random() < 0.4:
            wrap = random_chain_word(rng, grading, rng.randint(1, 2))
            left = rng.random() < 0.5
            f = FreePoly.from_terms(
                field, ((wrap + w if left else w + wrap, c) for w, c in f.terms.items())
            )
        assert is_multihomogeneous(f)
        return f


def random_non_identity(rng, grading, field):
    while True:
        if rng.random() < 0.5:
            word = random_chain_word(rng, grading, rng.randint(1, 4))
            f = free_poly(field, (word, rng.randint(1, 2)))
        else:
            w = random_swappable_word(rng, grading)
            terms = [(w, 1)]
            for _ in range(rng.randint(0, 2)):
                terms.append((random_rewrite_variant(rng, grading, w), rng.randint(1, 2)))
            f = free_poly(field, *terms)
        if evaluate(grading, f):
            return f


def test_c6_membership_certification():
    failures = []
    rng = random.Random(6006)
    gradings = suite_gradings()

    for count in range(100):
        grading = gradings[count % len(gradings)]
        field = FIELDS[count % 2]
        f = random_identity(rng, grading, field)
        if not is_graded_identity(grading, f):
            failures.append(f"identity {count}: evaluation is not zero")
            continue
        cert = certify_membership(grading, f)
        if not isinstance(cert, MembershipCertificate):
            failures.append(f"identity {count}: no certificate produced")
            continue
        result = check_membership_certificate(grading, f, cert)
        if not result:
            failures.append(f"identity {count}: {result.reason}")

    for count in range(100):
        grading = gradings[count % len(gradings)]
        field = FIELDS[count % 2]
        f = random_non_identity(rng, grading, field)
        witness = certify_membership(grading, f)
        if not isinstance(witness, NonIdentityWitness):
            failures.append(f"non-identity {count}: expected a witness")
            continue
        direct = evaluate_direct(grading, f)
        cited = direct.entry(*witness.position)
        if cited.is_zero() or cited != witness.entry:
            failures.append(f"non-identity {count}: witness entry not confirmed")
    report("C6 membership certificates and witnesses (100 + 100)", failures)


def test_c7_neutral_report_equivalence():
    failures = []
    rng = random.Random(7007)
    groups = [CyclicGroup(2), CyclicGroup(3), CyclicGroup(4), z2z2_group(), s3_group()]
    specs = [
        Grading(CyclicGroup(2), 2, (0, 0)),
        Grading(CyclicGroup(2), 3, (0, 0, 1)),
        Grading(CyclicGroup(4), 4, (0, 1, 1, 2)),
        Grading(z2z2_group(), 3, ((0, 0), (0, 0), (1, 1))),
        Grading(s3_group(), 2, (0, 0)),
        Grading(CyclicGroup(5), 5, (0, 1, 2, 3, 4)),
    ]
    while len(specs) < 20:
        group = rng.choice(groups)
        elements = list(group.elements())
        n = rng.randint(1, 4)
        specs.append(Grading(group, n, tuple(rng.choice(elements) for _ in range(n))))
    for idx, grading in enumerate(specs):
        r = grading.neutral_report()
        if not (all(r) or not any(r)):
            failures.append(f"spec {idx}: booleans disagree: {r}")
    report("C7 neutral-shape report booleans agree on 20 specs", failures)


def test_c8_closed_form_bounds():
    failures = []
    s2 = Grading(CyclicGroup(2), 2, (0, 1))  # support size 2
    s3_spec = Grading(CyclicGroup(4), 2, (0, 1))  # support size 3
    if len(s2.support()) != 2 or length_bounds(s2).support_bound != 256:
        failures.append("support bound at s=2 is not 256")
    if len(s3_spec.support()) != 3 or length_bounds(s3_spec).support_bound != 26244:
        failures.append("support bound at s=3 is not 26244")
    if length_bounds(s2).size_bound != 4194304:
        failures.append("size bound at n=2 is not 4194304")
    report("C8 bounds 256 / 26244 / 4194304 exactly", failures)


def test_c9_multihomogeneous_decomposition():
    failures = []
    rng = random.Random(9009)
    gradings = suite_gradings()

    for count in range(100):
        grading = gradings[count % len(gradings)]
        words = [random_word(rng, grading, 4) for _ in range(rng.randint(1, 5))]
        f = FreePoly.from_terms(
            RATIONALS,
            [(w, RATIONALS.from_int(rng.randint(-3, 3))) for w in words],
        )
        comps = multihomogeneous_components(f)
        if not all(is_multihomogeneous(comp) for comp in comps):
            failures.append(f"poly {count}: non-multihomogeneous component")
        if poly_sum(free_poly(RATIONALS), *comps) != f:
            failures.append(f"poly {count}: components do not sum to the input")

    for count in range(50):
        grading = gradings[count % len(gradings)]
        f = poly_sum(
            *(random_identity(rng, grading, RATIONALS) for _ in range(rng.randint(2, 4)))
        )
        for comp in multihomogeneous_components(f):
            if not is_graded_identity(grading, comp):
                failures.append(f"identity sum {count}: component is not an identity")
    report("C9 decomposition resums and preserves identities", failures)
