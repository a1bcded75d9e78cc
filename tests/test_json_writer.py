"""The --json writer `cli._dumps` against `json.dumps(sort_keys=True, indent=2)`.

The writer must give the same text byte for byte on every payload shape the
handlers can build, and refuse (TypeError) anything json would write in a
form the handlers never produce, such as floats and non-str keys.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matident.cli import _dumps

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
