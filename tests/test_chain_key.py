"""The certificate checkers' chain key against the closed-form oracle.

`generic.chain_key` reads, for every surviving chain of a word, the rows
the chain visits in sorted-letter order, from one walk of all rows.
`helpers.word_product_closed` builds the chain's monomial instead.  Between
words with the same letters the two must agree on which words evaluate
equally, and the key must rebuild each monomial exactly: on the suite
gradings, with repeated letters, dead rows and a partial-support tuple.
Checking a bundle builds no `YVar` and walks each distinct term word once.
"""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matident import CyclicGroup, GVar, Grading, RATIONALS, YVar
from matident import rewrite
from matident.freealg import multihomogeneous_components
from matident.generic import chain_key
from matident.rewrite import (
    EquivalenceCertificate,
    bundle_to_dict,
    certify_membership,
    check_equivalence_certificate,
    check_membership_bundle,
    read_certificate,
)

from helpers import (
    elements,
    random_rewrite_variant,
    random_swappable_word,
    random_word,
    suite_gradings,
    word_product_closed,
    z4_sweep_component,
)

GRADINGS = suite_gradings()


def _monomials(word, key) -> dict:
    """The monomial map a chain key stands for: letter j of the sorted
    letters sits on row j of each key's rows."""
    letters = sorted(word)
    out = {}
    for pos, rows in key.items():
        exps = Counter(YVar(v.degree, v.index, row) for v, row in zip(letters, rows))
        out[pos] = tuple(sorted(exps.items()))
    return out


def _pair(rng: random.Random, grading: Grading):
    """Two words with the same letters: a random word and a shuffle of it,
    or a swappable word and a swap variant, which evaluate equally."""
    if rng.random() < 0.5:
        m = random_word(rng, grading, 7, index_pool=2)
        n = tuple(rng.sample(m, len(m)))
    else:
        m = random_swappable_word(rng, grading, index_pool=2)
        n = random_rewrite_variant(rng, grading, m)
        if rng.random() < 0.5:
            n = tuple(rng.sample(n, len(n)))
    return m, n


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.integers(0, len(GRADINGS) - 1))
def test_keys_are_equal_exactly_when_evaluations_are(seed, which):
    grading = GRADINGS[which]
    m, n = _pair(random.Random(seed), grading)
    km, kn = chain_key(grading, m), chain_key(grading, n)
    em, en = word_product_closed(grading, m), word_product_closed(grading, n)
    assert _monomials(m, km) == em and _monomials(n, kn) == en
    assert (km == kn) == (em == en)


def test_the_pairs_cover_repeated_letters_dead_rows_and_partial_support():
    """The seeded pairs of the property above reach every case it names."""
    seen: Counter = Counter()
    for which, grading in enumerate(GRADINGS):
        rng = random.Random(which)
        partial = len(grading.support()) < len(elements(grading.group))
        for _ in range(150):
            m, n = _pair(rng, grading)
            km, kn = chain_key(grading, m), chain_key(grading, n)
            em = word_product_closed(grading, m)
            assert _monomials(m, km) == em
            assert (km == kn) == (em == word_product_closed(grading, n))
            seen["repeated"] += len(set(m)) < len(m) and bool(km)
            seen["dead rows"] += 0 < len(km) < grading.n
            seen["empty"] += not km
            seen["equal"] += bool(km) and km == kn
            seen["unequal"] += bool(km) and km != kn
            seen["partial support"] += partial and bool(km)
    assert min(seen.values()) >= 20 and len(seen) == 6, seen


def test_key_examples():
    z2 = Grading(CyclicGroup(2), 2, (0, 1))
    a, b, c = GVar(1, 1), GVar(1, 2), GVar(0, 1)
    # the row before each letter, in sorted-letter order: a, a, b
    assert chain_key(z2, (a, b, a)) == {(1, 2): (1, 1, 2), (2, 1): (2, 2, 1)}
    assert chain_key(z2, (a, a, b)) == {(1, 2): (1, 2, 1), (2, 1): (1, 2, 2)}
    # c's rows are (1, 2) and (2, 1) in word order from row 1: sorted, the
    # keys agree, as the two evaluations do
    key = {(1, 1): (1, 2, 1, 2), (2, 2): (1, 2, 1, 2)}
    assert chain_key(z2, (c, a, c, a)) == chain_key(z2, (a, c, a, c)) == key
    assert word_product_closed(z2, (c, a, c, a)) == word_product_closed(z2, (a, c, a, c))
    z4_partial = Grading(CyclicGroup(4), 2, (0, 1))
    assert chain_key(z4_partial, (GVar(1, 1), GVar(1, 1))) == {}
    with pytest.raises(ValueError):
        chain_key(z2, ())


@pytest.mark.parametrize("bad", [7, True, 1.0, -1, "1"])
def test_standalone_equivalence_validates_the_start_letters(bad):
    grading = Grading(CyclicGroup(4), 4, (0, 1, 2, 3))
    word = (GVar(1, 1), GVar(bad, 2))
    with pytest.raises(ValueError, match="is not an element of Z4"):
        check_equivalence_certificate(grading, EquivalenceCertificate(word, (), word))


def test_checking_a_bundle_walks_each_term_word_once_and_builds_no_yvar(monkeypatch):
    grading = Grading(CyclicGroup(4), 4, (0, 1, 2, 3))
    f = z4_sweep_component(120)
    outcomes = [(c, certify_membership(grading, c)) for c in multihomogeneous_components(f)]
    doc = json.loads(json.dumps(bundle_to_dict(f, outcomes, grading.group)))
    bundle = read_certificate(doc, grading.group, RATIONALS)
    keyed, walks, yvars = [], [], []
    original_key, original_walk, original_new = rewrite.chain_key, Grading.walk, YVar.__new__

    def counting_key(grading, word):
        keyed.append(word)
        return original_key(grading, word)

    def counting_walk(self, hseq):
        walks.append(1)
        return original_walk(self, hseq)

    def counting_new(cls, *args, **kwargs):
        yvars.append(1)
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(rewrite, "chain_key", counting_key)
    monkeypatch.setattr(Grading, "walk", counting_walk)
    monkeypatch.setattr(YVar, "__new__", staticmethod(counting_new))
    assert YVar(0, 1, 1) and yvars == [1]  # the counter sees a YVar built
    yvars.clear()
    assert check_membership_bundle(grading, bundle)
    assert yvars == []
    # every term is paired or left as an empty-chain residual: each is keyed once
    assert sorted(keyed) == sorted(f.terms)
    assert len(walks) == len(f.terms)
