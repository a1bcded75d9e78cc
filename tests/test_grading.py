import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matident import CyclicGroup, Grading, grading_from_config
from matident.groups import IntegerGroup, ProductGroup
from matident.monomials import transition

from helpers import (
    d4_group,
    elements,
    is_monomial_identity,
    naive_lset,
    naive_transition,
    neutral_report_by_units,
    s3_group,
    suite_gradings,
    z2z2_group,
)

# Chain-walk oracle suite: the acceptance gradings, infinite and mixed
# product groups, and a repeated tuple (where a step takes the least row).
ORACLE_GRADINGS = suite_gradings() + [
    Grading(IntegerGroup(), 5, (0, 1, 3, 9, 20)),
    Grading(IntegerGroup(), 3, (-2, 0, 5)),
    Grading(ProductGroup([CyclicGroup(2), CyclicGroup(3)]), 4, ((0, 0), (1, 0), (0, 2), (1, 1))),
    Grading(ProductGroup([IntegerGroup(), CyclicGroup(2)]), 3, ((0, 0), (1, 1), (3, 0))),
    Grading(CyclicGroup(4), 3, (0, 0, 1)),
]


def _oracle_alphabet(grading: Grading) -> list:
    """The support and its pairwise products, which reach outside it."""
    support = grading.support()
    return sorted(set(support) | {grading.group.op(a, b) for a in support for b in support})


@pytest.fixture
def z4_01():
    return Grading(CyclicGroup(4), 2, (0, 1))


def test_unit_degree_examples(z4_01):
    assert z4_01.unit_degree(1, 2) == 1
    assert z4_01.unit_degree(2, 1) == 3
    for grading in suite_gradings():
        eps = grading.group.identity()
        for i in range(1, grading.n + 1):
            assert grading.unit_degree(i, i) == eps


def test_unit_degree_range_check(z4_01):
    with pytest.raises(ValueError):
        z4_01.unit_degree(0, 1)
    with pytest.raises(ValueError):
        z4_01.unit_degree(1, 3)


def test_support_examples(z4_01):
    assert z4_01.support() == [0, 1, 3]
    assert Grading(CyclicGroup(2), 2, (0, 1)).support() == [0, 1]
    g1 = Grading(CyclicGroup(5), 1, (2,))
    assert g1.support() == [g1.group.identity()]


def test_support_matches_brute_force_enumeration():
    for grading in suite_gradings():
        expected = sorted(
            {
                grading.unit_degree(i, j)
                for i in range(1, grading.n + 1)
                for j in range(1, grading.n + 1)
            }
        )
        assert grading.support() == expected


def test_component_dimension_examples(z4_01):
    assert z4_01.component_dimension(0) == 2
    assert z4_01.component_dimension(1) == 1
    assert z4_01.component_dimension(2) == 0
    flat = Grading(CyclicGroup(2), 2, (0, 0))
    assert flat.component_dimension(0) == 4


def test_component_dimensions_partition_all_units():
    for grading in suite_gradings():
        total = sum(grading.component_dimension(g) for g in grading.support())
        assert total == grading.n * grading.n


def test_support_is_exactly_positive_dimensions():
    specs = suite_gradings() + [
        Grading(CyclicGroup(4), 3, (0, 0, 1)),
        Grading(z2z2_group(), 2, ((0, 0), (1, 1))),
    ]
    for grading in specs:
        support = set(grading.support())
        for g in elements(grading.group):
            assert (g in support) == (grading.component_dimension(g) > 0)


def test_lset_examples(z4_01):
    assert z4_01.lset((1,)) == {1: (1, 2)}

    assert z4_01.lset((1, 1)) == {}

    z2 = Grading(CyclicGroup(2), 2, (0, 1))
    paths = z2.lset((1, 1, 1))
    assert list(paths.items()) == [(1, (1, 2, 1, 2)), (2, (2, 1, 2, 1))]


def test_lset_rejects_empty_sequence(z4_01):
    with pytest.raises(ValueError):
        z4_01.lset(())


def test_lset_recurrence_holds_per_element():
    rng = random.Random(7)
    for grading in suite_gradings():
        support = grading.support()
        group = grading.group
        for _ in range(50):
            hseq = [rng.choice(support) for _ in range(rng.randint(1, 6))]
            for k, path in grading.lset(hseq).items():
                assert path[0] == k
                assert len(path) == len(hseq) + 1
                for i, h in enumerate(hseq):
                    assert grading.entry(path[i + 1]) == group.op(grading.entry(path[i]), h)


def test_lset_prefix_monotonicity():
    rng = random.Random(11)
    for grading in suite_gradings():
        support = grading.support()
        for _ in range(50):
            hseq = [rng.choice(support) for _ in range(rng.randint(2, 6))]
            cut = rng.randint(1, len(hseq) - 1)
            whole = grading.lset(hseq).keys()
            prefix = grading.lset(hseq[:cut]).keys()
            assert whole <= prefix


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_step_tables_match_naive_walk(data):
    grading = data.draw(st.sampled_from(ORACLE_GRADINGS))
    alphabet = _oracle_alphabet(grading)
    hseq = data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=8))
    paths = grading.lset(hseq)
    assert paths == naive_lset(grading, hseq)
    assert list(paths) == sorted(paths)
    state = data.draw(st.frozensets(st.integers(1, grading.n)))
    for h in hseq:
        assert transition(grading, state, h) == naive_transition(grading, state, h)


def test_lset_validates_degrees_after_caching(z4_01):
    # 1.0 and True hash and compare equal to the cached degree 1
    assert list(z4_01.lset((1,))) == [1]
    for bad in (True, 1.0, 4, -1, "1"):
        with pytest.raises(ValueError):
            z4_01.lset((bad,))
        with pytest.raises(ValueError):
            z4_01.lset((1, bad))
        with pytest.raises(ValueError):
            transition(z4_01, frozenset({1, 2}), bad)
        for hseq in ((bad,), (1, bad)):
            with pytest.raises(ValueError):
                is_monomial_identity(z4_01, hseq)
    v4 = Grading(z2z2_group(), 4, ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert list(v4.lset(((1, 0),))) == [1, 2, 3, 4]
    for bad in ((True, 0), (1.0, 0), (2, 0), [1, 0]):
        with pytest.raises(ValueError):
            v4.lset((bad,))


def test_neutral_report_examples():
    examples = [
        (Grading(CyclicGroup(2), 2, (0, 1)), True),
        (Grading(CyclicGroup(2), 2, (0, 0)), False),
        (Grading(CyclicGroup(3), 1, (1,)), True),
        (Grading(s3_group(), 3, (1, 4, 1)), False),
        (Grading(z2z2_group(), 3, ((0, 1), (1, 1), (0, 1))), False),
    ]
    for grading, distinct in examples:
        assert grading.is_distinct == distinct
        assert (grading.is_distinct,) * 3 == neutral_report_by_units(grading)


def test_neutral_report_booleans_agree_across_specs():
    rng = random.Random(13)
    groups = [CyclicGroup(2), CyclicGroup(3), CyclicGroup(5), z2z2_group(), s3_group()]
    checked = 0
    while checked < 20:
        group = rng.choice(groups)
        values = elements(group)
        n = rng.randint(1, min(4, len(values) + 1))
        grading = Grading(group, n, tuple(rng.choice(values) for _ in range(n)))
        report = neutral_report_by_units(grading)
        assert all(report) or not any(report)
        assert report == (grading.is_distinct,) * 3
        checked += 1


def test_neutral_report_matches_unit_scans_on_every_small_tuple():
    # every tuple of length n <= 3 over small groups, repeated entries
    # included, and every pair over D4
    groups = [CyclicGroup(m) for m in range(1, 5)] + [z2z2_group(), s3_group()]
    specs = [(group, n) for group in groups for n in (1, 2, 3)] + [(d4_group(), 2)]
    repeated = 0
    for group, n in specs:
        for entries in itertools.product(elements(group), repeat=n):
            grading = Grading(group, n, entries)
            assert (grading.is_distinct,) * 3 == neutral_report_by_units(grading)
            repeated += not grading.is_distinct
    assert repeated > 0


def test_neutral_blocks_examples():
    g = Grading(CyclicGroup(2), 3, (0, 0, 1))
    blocks = g.neutral_blocks()
    assert blocks.sizes == (2, 1)
    assert blocks.dimension == 5

    distinct = Grading(CyclicGroup(4), 3, (0, 1, 2))
    assert distinct.neutral_blocks() == ((1, 1, 1), 3)

    constant = Grading(CyclicGroup(2), 3, (1, 1, 1))
    assert constant.neutral_blocks() == ((3,), 9)


def test_neutral_blocks_dimension_is_neutral_component_dimension():
    rng = random.Random(17)
    for _ in range(20):
        group = rng.choice([CyclicGroup(2), CyclicGroup(4), z2z2_group()])
        n = rng.randint(1, 4)
        entries = tuple(rng.choice(elements(group)) for _ in range(n))
        grading = Grading(group, n, entries)
        assert grading.neutral_blocks().dimension == grading.component_dimension(
            group.identity()
        )


def test_grading_constructor_validation():
    with pytest.raises(ValueError):
        Grading(CyclicGroup(2), 2, (0,))
    with pytest.raises(ValueError):
        Grading(CyclicGroup(2), 0, ())
    with pytest.raises(ValueError):
        Grading(CyclicGroup(2), 2, (0, 2))
    # repeated entries are allowed at construction
    assert not Grading(CyclicGroup(2), 3, (0, 0, 1)).is_distinct


@pytest.mark.parametrize("n,entries", [(True, (1,)), (2.0, (0, 1)), ("2", (0, 1))])
def test_grading_refuses_a_non_integer_size(n, entries):
    # grading_from_config checks 'n' before the tuple with its own message
    with pytest.raises(ValueError, match="matrix size must be an integer"):
        Grading(CyclicGroup(4), n, entries)


def test_integer_group_grading():
    grading = Grading(IntegerGroup(), 3, (0, 1, 2))
    assert grading.support() == [-2, -1, 0, 1, 2]
    assert grading.lset((1, 1)) == {1: (1, 2, 3)}
    assert grading.lset((2, 1)) == {}
    assert grading.lset((2, -1)) == {1: (1, 3, 2)}


def test_grading_from_config():
    grading = grading_from_config(
        {"group": {"type": "cyclic", "order": 4}, "n": 2, "tuple": [0, "1"]}
    )
    assert grading.entries == (0, 1)
    grading = grading_from_config(
        {
            "group": {
                "type": "product",
                "factors": [{"type": "cyclic", "order": 2}, {"type": "cyclic", "order": 2}],
            },
            "n": 2,
            "tuple": ["(0,0)", [1, 0]],
        }
    )
    assert grading.entries == ((0, 0), (1, 0))
    with pytest.raises(ValueError):
        grading_from_config({"group": {"type": "cyclic", "order": 4}, "n": 2})
