"""The --json writer `cli._dumps` against `json.dumps(sort_keys=True, indent=2)`.

The writer must give the same text byte for byte on every payload shape the
handlers can build, `enumerate-monomials`' sequence lists (`cli._Rows`)
included, and refuse (TypeError) anything json would write in a form the
handlers never produce, such as floats and non-str keys.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matident import cli
from matident.cli import _dumps, _quote, _Rows
from matident.monomials import enumerate_monomial_identities, length_bounds

from helpers import run_cli
from test_monomials import FILTER_GRADINGS, _cap_for

# escapes json must get right: quote, backslash, control and DEL characters,
# non-ASCII in and beyond the BMP, and lone surrogates of both halves
SPECIAL = '"\\\x00\x08\x1f\x7f\u03c3\u20ac\U0001f600\ud800\udfff'
TEXTS = st.text(st.characters(exclude_categories=()) | st.sampled_from(SPECIAL), max_size=12)
SCALARS = st.none() | st.booleans() | st.integers() | TEXTS
DOCS = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(TEXTS, kids, max_size=5),
    max_leaves=40,
)


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


@settings(max_examples=150, deadline=None)
@given(DOCS)
def test_writer_matches_json_dumps(doc):
    assert _dumps(doc) == reference(doc)


def test_shared_values_are_written_at_their_own_depth():
    """One list object under two keys, and the same object again deeper:
    each occurrence takes the indent of where it stands."""
    shared = ["a", "σ", 7, None]
    strings = ["x", "y"]
    doc = {
        "first": shared,
        "second": shared,
        "names": strings,
        "again": strings,
        "nested": {"deeper": shared, "list": [shared, [shared], strings], "empty": []},
    }
    assert _dumps(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc", [10**4300, [1, -(10**4300)], {"cap": 10**5000}], ids=["int", "in_list", "in_dict"]
)
def test_ints_past_the_digit_limit_raise_as_json_does(doc):
    with pytest.raises(ValueError):
        reference(doc)
    with pytest.raises(ValueError):
        _dumps(doc)


@pytest.mark.parametrize(
    "doc", [1.5, [0.0], {"x": float("nan")}, {1: "a"}, {"a": {2: "b"}}, {None: 1}]
)
def test_floats_and_non_str_keys_are_refused(doc):
    reference(doc)  # json writes each of these, in a form no handler builds
    with pytest.raises(TypeError):
        _dumps(doc)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.text(st.sampled_from(SPECIAL), max_size=4), min_size=1, max_size=4, unique=True),
    st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple), max_size=5),
    st.integers(0, 2),
)
@example(["\u03c3"], [], 0)
@example(["\u03c3"], [], 2)
def test_rows_match_json_dumps_of_their_name_lists(names, seqs, depth):
    """At depth 0, 1 and 2, each level holding the same object under two
    keys; labels are drawn from the characters json must escape."""
    seqs = [tuple(i % len(names) for i in seq) for seq in seqs]
    doc = _Rows(seqs, {i: _quote(name) for i, name in enumerate(names)})
    plain = [[names[i] for i in seq] for seq in seqs]
    for _ in range(depth):
        doc, plain = {"a": doc, "b": doc}, {"a": plain, "b": plain}
    assert _dumps(doc) == reference(plain)


@pytest.mark.parametrize("minimal", [False, True], ids=["plain", "minimal"])
def test_enumerate_json_matches_json_dumps(monkeypatch, minimal):
    for grading in FILTER_GRADINGS:
        cap = _cap_for(grading)
        flagged = enumerate_monomial_identities(grading, cap)
        names = [([grading.group.format(h) for h in seq], flag) for seq, flag in flagged]
        found = [seq for seq, flag in names if flag or not minimal]
        bounds = length_bounds(grading)
        payload = {
            "max_len": cap,
            "minimal": minimal,
            "sequences": found,
            "count": len(found),
            "unfiltered_sequences": [seq for seq, _ in names],
            "unfiltered_count": len(names),
            "support_bound": bounds.support_bound,
            "size_bound": bounds.size_bound,
        }
        monkeypatch.setattr(cli, "_load_grading", lambda path: grading)
        argv = ["enumerate-monomials", "grading.json", "--max-len", str(cap), "--json"]
        assert run_cli(argv + ["--minimal"] * minimal) == (0, reference(payload) + "\n", ""), (
            grading
        )
