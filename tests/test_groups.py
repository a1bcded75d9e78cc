import json
import random

import pytest

from matident import (
    RATIONALS,
    CayleyGroup,
    CyclicGroup,
    FreePoly,
    Grading,
    IntegerGroup,
    ProductGroup,
    group_from_config,
    validate_cayley,
)
from matident.freealg import GVar, format_word, parse_polynomial, parse_word
from matident.generic import evaluate, is_graded_identity
from matident.rewrite import (
    NEUTRAL_SWAP,
    EquivalenceCertificate,
    MembershipCertificate,
    RewriteStep,
    certify_membership,
    check_equivalence_certificate,
    check_membership_certificate,
    derive_equivalence,
)
from matident.groups import Group, element_from_json

from helpers import random_rewrite_variant, random_swappable_word, run_cli, s3_group, z2z2_group


def test_cyclic_op_examples():
    g = CyclicGroup(4)
    assert g.op(1, 3) == 0
    assert g.inverse(3) == 1
    assert g.identity() == 0


def test_integers_examples():
    z = IntegerGroup()
    assert z.op(2, -5) == -3
    assert z.inverse(7) == -7
    assert z.identity() == 0


def test_product_identity():
    v4 = z2z2_group()
    assert v4.identity() == (0, 0)
    assert v4.op((1, 0), (1, 1)) == (0, 1)
    assert v4.inverse((1, 0)) == (1, 0)


def test_inverse_of_identity_is_identity():
    for g in (CyclicGroup(4), IntegerGroup(), z2z2_group(), s3_group()):
        assert g.inverse(g.identity()) == g.identity()


def test_s3_transpositions_compose_to_cycle():
    s3 = s3_group()
    a = s3.parse("a")
    b = s3.parse("b")
    # the table dictates which 3-cycle each order of composition gives
    assert s3.format(s3.op(a, b)) == "s"
    assert s3.format(s3.op(b, a)) == "r"
    assert s3.op(s3.op(a, b), s3.inverse(s3.op(a, b))) == s3.identity()


def test_validate_z2_table_ok():
    assert validate_cayley(["e", "t"], [[0, 1], [1, 0]]) is None


def test_validate_s3_table_ok():
    s3 = s3_group()
    assert validate_cayley(s3.names, s3.table) is None


def test_validate_reports_associativity_violation():
    # Latin square with two-sided identity but non-associative (a loop):
    # row/col 0 is the identity; the 5x5 core is a non-associative latin square.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    names = list("eabcd")
    violation = validate_cayley(names, table)
    assert violation is not None
    assert violation.axiom == "associativity"
    assert len(violation.witness) == 3


def test_validate_reports_latin_violation():
    violation = validate_cayley(["e", "t"], [[0, 0], [1, 0]])
    assert violation is not None
    assert violation.axiom == "latin-square"


def test_validate_reports_missing_identity():
    # Latin square whose only identity-like row has the wrong column
    table = [[1, 2, 0], [0, 1, 2], [2, 0, 1]]
    violation = validate_cayley(list("abc"), table)
    assert violation is not None
    assert violation.axiom == "identity"


def test_validate_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        validate_cayley(["e", "t"], [[0, 1]])
    with pytest.raises(ValueError):
        validate_cayley(["e", "e"], [[0, 1], [1, 0]])


def test_cayley_constructor_rejects_bad_table():
    with pytest.raises(ValueError, match="identity"):
        CayleyGroup(list("abc"), [[1, 2, 0], [0, 1, 2], [2, 0, 1]])


@pytest.mark.parametrize("label", ["a;b", " a", "a ", "a b", "a\tb", "a,b", "(a", "a)", ""])
def test_cayley_rejects_labels_that_do_not_read_back(label):
    with pytest.raises(ValueError, match="would not read back"):
        CayleyGroup(["e", label], [[0, 1], [1, 0]])


def test_cayley_labels_read_back_from_words_and_products():
    z2 = CayleyGroup(["e", "g[1]*"], [[0, 1], [1, 0]])
    word = (GVar(1, 1), GVar(0, 2))
    assert format_word(z2, word) == "x[g[1]*;1]*x[e;2]"
    assert parse_word(format_word(z2, word), z2) == word
    pair = ProductGroup([z2, z2])
    assert pair.parse(pair.format((1, 0))) == (1, 0)


@pytest.mark.parametrize(
    "group",
    [CyclicGroup(1), CyclicGroup(7), z2z2_group(), s3_group(), IntegerGroup()],
    ids=str,
)
def test_group_axioms_on_random_triples(group):
    rng = random.Random(20260808)

    def sample():
        if group.order is not None:
            elements = list(group.elements())
            return rng.choice(elements)
        return rng.randint(-10**9, 10**9)

    e = group.identity()
    for _ in range(1000):
        a, b, c = sample(), sample(), sample()
        assert group.op(group.op(a, b), c) == group.op(a, group.op(b, c))
        assert group.op(e, a) == a == group.op(a, e)
        assert group.op(a, group.inverse(a)) == e


@pytest.mark.parametrize(
    "group", [CyclicGroup(5), z2z2_group(), s3_group()], ids=str
)
def test_parse_format_roundtrip_all_elements(group):
    for x in group.elements():
        assert group.parse(group.format(x)) == x


def test_parse_errors():
    with pytest.raises(ValueError):
        CyclicGroup(4).parse("5")
    with pytest.raises(ValueError):
        CyclicGroup(4).parse("x")
    with pytest.raises(ValueError):
        s3_group().parse("q")
    with pytest.raises(ValueError):
        z2z2_group().parse("1,0")


def test_nested_product_parse_roundtrip():
    g = ProductGroup([CyclicGroup(2), ProductGroup([CyclicGroup(3), IntegerGroup()])])
    x = (1, (2, -7))
    assert g.parse(g.format(x)) == x
    assert g.parse("( 1 , ( 2 , -7 ) )") == x


def test_membership_checks():
    # Group arithmetic trusts its arguments, so each non-element is refused
    # at every boundary where it can enter instead.
    z4, v4 = CyclicGroup(4), z2z2_group()
    cases = [  # (group, value, its JSON form, its literal, a valid tuple)
        (z4, 4, 4, "4", [0, 1, 2]),
        (z4, True, True, "True", [0, 1, 2]),
        (v4, (0, 2), [0, 2], "(0,2)", [(0, 0), (0, 1), (1, 0)]),
    ]
    for group, value, json_value, literal, entries in cases:
        grading = Grading(group, len(entries), entries)
        with pytest.raises(ValueError):
            group.check(value)
        with pytest.raises(ValueError):
            element_from_json(group, json_value)
        with pytest.raises(ValueError):
            element_from_json(group, value)
        with pytest.raises(ValueError):
            Grading(group, len(entries) + 1, entries + [value])
        with pytest.raises(ValueError):
            grading.lset([value])
        with pytest.raises(ValueError):
            grading.component_dimension(value)
        with pytest.raises(ValueError):
            parse_word(f"x[{literal};1]", group)


def test_arithmetic_is_validated_only_at_the_boundary(monkeypatch):
    # Z8xZ8 with every element in the tuple: the n entries are checked when
    # the grading is built and each distinct degree object once when the
    # decision reads it; the step tables' n group operations per degree
    # check nothing.
    group = ProductGroup([CyclicGroup(8), CyclicGroup(8)])
    rng = random.Random(64)
    elements = list(group.elements())
    built = FreePoly.from_terms(
        RATIONALS,
        [
            (tuple(GVar(rng.choice(elements), rng.randint(1, 3)) for _ in range(length)), 1)
            for length in (1, 5, 16, 64)
        ],
    )
    # the parser makes one degree object per distinct literal: 3 literals,
    # 4 letters, 8 occurrences
    parsed = parse_polynomial(
        "x[(1,2);1]*x[(3,4);2]*x[(1,2);1] + 2*x[(3,4);2]*x[(1,2);2]*x[(1,2);1]"
        " - x[(0,5);3]*x[(3,4);2]",
        group,
        RATIONALS,
    )
    calls = []
    check = Group.check

    def counted(self, a):
        calls.append(a)
        return check(self, a)

    # a derivation of several alignment steps between equivalent words
    grading = Grading(group, 64, elements)
    while True:
        m = random_swappable_word(rng, grading)
        n = random_rewrite_variant(rng, grading, m)
        if len(derive_equivalence(grading, m, n).steps) >= 2:
            break

    def degrees(words) -> int:
        return len({id(v.degree) for word in words for v in word})

    assert degrees(built.terms) < sum(len(word) for word in built.terms)
    assert len({v for word in parsed.terms for v in word}) == 4
    monkeypatch.setattr(Group, "check", counted)
    for f, checked in ((built, degrees(built.terms)), (parsed, 3)):
        calls.clear()
        grading = Grading(group, 64, elements)
        assert len(calls) == 64
        assert not is_graded_identity(grading, f)
        assert len(calls) == 64 + checked
    # the derivation checks each distinct degree once, in its precheck,
    # and trusts them in every alignment step
    calls.clear()
    derive_equivalence(grading, m, n)
    assert len(calls) == degrees((m, n))


@pytest.mark.parametrize(
    "grading, a, b",
    [
        (Grading(CyclicGroup(4), 4, (0, 1, 2, 3)), 1, True),
        (Grading(z2z2_group(), 4, ((0, 0), (0, 1), (1, 0), (1, 1))), (1, 0), (True, 0)),
    ],
    ids=["Z4", "Z2xZ2"],
)
def test_letters_equal_to_an_element_are_still_checked(grading, a, b):
    # a == b with equal hashes, so a letter set keyed by value would check
    # GVar(a, 1) and let GVar(b, 1) through
    word = (GVar(a, 1), GVar(b, 1))
    f = FreePoly.from_terms(RATIONALS, [(word, 1)])
    for query in (is_graded_identity, evaluate, certify_membership):
        with pytest.raises(ValueError, match="is not an element"):
            query(grading, f)
    with pytest.raises(ValueError, match="is not an element"):
        derive_equivalence(grading, word, word)
    # the checkers validate the letters before a step runs group
    # arithmetic on them, even a step that does not apply
    outside = RewriteStep(NEUTRAL_SWAP, (0, 1, 3))
    for steps in ((), (outside,)):
        with pytest.raises(ValueError, match="is not an element"):
            check_equivalence_certificate(grading, EquivalenceCertificate(word, steps, word))
    with pytest.raises(ValueError, match="is not an element"):
        check_membership_certificate(grading, f, MembershipCertificate(f, (), ()))


def test_integers_cannot_enumerate():
    with pytest.raises(ValueError):
        IntegerGroup().elements()


def test_validate_accepts_exactly_group_tables():
    # every Z_n table passes; every single-cell perturbation of Z_3 fails
    for n in range(1, 6):
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        names = [str(i) for i in range(n)]
        assert validate_cayley(names, table) is None
    base = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    for i in range(3):
        for j in range(3):
            for v in range(3):
                if v == base[i][j]:
                    continue
                mutated = [row[:] for row in base]
                mutated[i][j] = v
                assert validate_cayley(list("abc"), mutated) is not None


def test_group_from_config():
    g = group_from_config({"type": "cyclic", "order": 6})
    assert g == CyclicGroup(6)
    g = group_from_config(
        {"type": "product", "factors": [{"type": "cyclic", "order": 2}, {"type": "integers"}]}
    )
    assert g.op((1, 3), (1, -5)) == (0, -2)
    with pytest.raises(ValueError):
        group_from_config({"type": "dihedral"})
    with pytest.raises(ValueError):
        group_from_config({"type": "cyclic"})


@pytest.mark.parametrize(
    "names, table",
    [(5, [[0]]), ("e", [[0]]), (["e"], 7), (["e"], [5]), (["e"], ["0"]), (None, None)],
)
def test_cayley_config_needs_lists(names, table):
    with pytest.raises(ValueError, match="'names' list and a 'table' list of lists"):
        group_from_config({"type": "cayley", "names": names, "table": table})


@pytest.mark.parametrize("names", [[None, True], [1, 2], ["e", 1], ["e", ["a"]]], ids=str)
def test_cayley_labels_must_be_strings(names, tmp_path):
    table = [[0, 1], [1, 0]]
    with pytest.raises(ValueError, match="is not a string"):
        CayleyGroup(names, table)
    doc = {"group": {"type": "cayley", "names": names, "table": table}, "n": 1, "tuple": [0]}
    path = tmp_path / "grading.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["info", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "is not a string" in err


def test_element_from_json():
    v4 = z2z2_group()
    assert element_from_json(v4, "(1,0)") == (1, 0)
    assert element_from_json(v4, [1, 0]) == (1, 0)
    assert element_from_json(CyclicGroup(4), 3) == 3
    assert element_from_json(s3_group(), "r") == s3_group().parse("r")
    with pytest.raises(ValueError):
        element_from_json(CyclicGroup(4), 4)
