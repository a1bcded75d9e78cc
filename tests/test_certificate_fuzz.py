"""Mutation fuzzing of the certificate checker behind `check-cert`.

Documents from `certify --json` are mutated: the bundles themselves, the
membership certificates inside them and the equivalence certificates inside
those.  Components, pairings and steps are dropped, duplicated, reordered or
copied over one another; split points, indexes, coefficients and words are
perturbed; values are replaced by other JSON types.  Whatever the document,
`check-cert` must answer with exit 0, 1 or 2 and raise nothing, and when it
accepts, the polynomial the document vouches for must be a graded identity:
the input of a bundle or membership certificate, start - end for an
equivalence certificate.  Every document that reads back gets the same
verdict, or the same exception, from the checkers when they compare each
pairing's two ends once and when they re-evaluate after every step, with
as many replays, one per pairing when the document is valid.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matident import FreePoly, grading_from_config, parse_field, parse_polynomial, parse_word
from matident import rewrite
from matident.generic import is_graded_identity

from helpers import free_poly, replay_stepwise, run_cli

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

# (grading document, polynomial file, field): identities, and mixed inputs
# whose bundles mark some components as non-identities
BASES = [
    ("z4.json", "z4_identity.txt", "rationals"),
    ("s3.json", "s3_identity.txt", "rationals"),
    ("z2z2.json", "z2z2_identity.txt", "rationals"),
    ("integers.json", "int_identity.txt", "rationals"),
    ("z4_partial.json", "z4p_residual.txt", "rationals"),
    ("z4.json", "z4_mixed.txt", "rationals"),
    ("z4.json", "z4_char2.txt", "fp:2"),
]

LISTS = ("components", "pairings", "steps", "residual")
TEXTS = ("input", "component", "coefficient", "start", "end", "word")
# structural and textual edits are drawn twice as often as the others
KINDS = ["list", "list", "text", "text", "int", "retype", "rewire"]
RETYPED = [None, True, False, 0, -1, 2.5, "", "x[1;1]", [], {}, [0, 1, 2], {"type": "membership"}]


def _documents(grading: str, poly: str, field: str) -> list:
    """A certified bundle and every certificate nested in it."""
    code, out, _ = run_cli(
        ["certify", str(INPUTS / grading), str(INPUTS / poly), "--json", "--field", field]
    )
    assert code == 0
    bundle = json.loads(out)
    docs = [bundle]
    for item in bundle["components"]:
        if item["identity"]:
            docs.append(item["certificate"])
            docs.extend(p["certificate"] for p in item["certificate"]["pairings"])
    return docs


def _locations(node, name=None, out=None):
    """(container, key, name) for every value in a JSON tree, where name is
    the nearest enclosing object key."""
    out = [] if out is None else out
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        label = key if isinstance(node, dict) else name
        out.append((node, key, label))
        if isinstance(value, (dict, list)):
            _locations(value, label, out)
    return out


def _edit_text(text: str, data) -> str:
    """Flip the sign before one term, double one term, negate, or truncate."""
    cuts = [i for i in range(len(text)) if text.startswith((" + ", " - "), i)]
    edit = data.draw(st.integers(0, 3), label="edit")
    if edit == 0 and cuts:
        i = data.draw(st.sampled_from(cuts), label="term")
        return text[:i] + (" - " if text[i + 1] == "+" else " + ") + text[i + 3 :]
    if edit == 1:
        i = data.draw(st.sampled_from([0] + [c + 3 for c in cuts]), label="term")
        return text[:i] + "2*" + text[i:]
    if edit == 3:
        return text[: len(text) // 2]
    return text[1:] if text.startswith("-") else "-" + text


def _mutate(doc: dict, data) -> None:
    locations = _locations(doc)
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    if kind == "list":
        lists = [v for c, k, n in locations if n in LISTS and isinstance(v := c[k], list) and v]
        if not lists:
            return
        items = data.draw(st.sampled_from(lists), label="list")
        a = data.draw(st.integers(0, len(items) - 1), label="index")
        b = data.draw(st.integers(0, len(items) - 1), label="other index")
        op = data.draw(st.sampled_from(["drop", "duplicate", "swap", "copy"]), label="op")
        if op == "drop":
            del items[a]
        elif op == "duplicate":
            items.insert(b, copy.deepcopy(items[a]))
        elif op == "swap":
            items[a], items[b] = items[b], items[a]
        else:
            items[b] = copy.deepcopy(items[a])
    elif kind == "int":
        ints = [(c, k) for c, k, _ in locations if type(c[k]) is int]
        if ints:
            c, k = data.draw(st.sampled_from(ints), label="int")
            c[k] += data.draw(st.sampled_from([-2, -1, 1, 2]), label="delta")
    elif kind == "text":
        texts = [c[k] for c, k, n in locations if n in TEXTS and isinstance(c[k], str)]
        if texts:
            old = data.draw(st.sampled_from(texts), label="text")
            new = _edit_text(old, data)
            for c, k, _ in locations:  # every copy of the text changes together
                if c[k] == old:
                    c[k] = new
    elif kind == "rewire":
        strings = [(c, k) for c, k, _ in locations if isinstance(c[k], str)]
        if strings:
            c, k = data.draw(st.sampled_from(strings), label="target")
            c[k] = data.draw(st.sampled_from([c2[k2] for c2, k2 in strings]), label="string")
    else:
        c, k, _ = data.draw(st.sampled_from(locations), label="location")
        c[k] = copy.deepcopy(data.draw(st.sampled_from(RETYPED), label="value"))


def _vouched_polynomial(doc: dict, grading, field) -> FreePoly:
    if doc["type"] == "equivalence":
        start, end = (parse_word(doc[k], grading.group) for k in ("start", "end"))
        return free_poly(field, (start, 1), (end, -1))
    return parse_polynomial(doc["input"], grading.group, field)


def _verdict(doc: dict, grading, field):
    """The checker's verdict on a document, read and checked through the
    entries `check-cert` calls: (ok, reason), or the type and text of what
    checking raised.  None when the document does not read back."""
    try:
        cert = rewrite.read_certificate(doc, grading.group, field)
    except (ValueError, RecursionError):
        return None
    try:
        result = rewrite.check_certificate(grading, cert)
    except ValueError as exc:
        return type(exc), str(exc)
    return result.ok, result.reason


def _pairings(doc: dict) -> int:
    """The replays a valid document takes: one for an equivalence
    document, and one per pairing of each membership certificate in it."""
    if doc["type"] == "equivalence":
        return 1
    certs = [doc] if doc["type"] == "membership" else [c["certificate"] for c in doc["components"]]
    return sum(len(cert.get("pairings", [])) for cert in certs)


def _assert_oracle_agrees(doc: dict, grading_file: str, field_name: str) -> None:
    """The checkers give the same answer, after as many replays, with the
    stepwise replay oracle patched in for `rewrite._replay`, and a document
    they accept is replayed once per pairing."""
    grading = grading_from_config(json.loads((INPUTS / grading_file).read_text()))
    field = parse_field(field_name)
    runs = []
    for replay in (rewrite._replay, replay_stepwise):
        calls = []

        def counting(*args, replay=replay):
            calls.append(args)
            return replay(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rewrite, "_replay", counting)
            runs.append((_verdict(doc, grading, field), len(calls)))
    (verdict, replays), oracle = runs
    assert oracle == (verdict, replays)
    if verdict == (True, None):
        assert replays == _pairings(doc)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def documents():
    """Per input of BASES, (grading file, field, document) triples."""
    return [
        [(grading, field, doc) for doc in _documents(grading, poly, field)]
        for grading, poly, field in BASES
    ]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_certificates_are_rejected_or_sound(workdir, documents, data):
    family = data.draw(st.sampled_from(documents), label="input")
    grading_file, field_name, base = data.draw(st.sampled_from(family), label="document")
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        _mutate(doc, data)
    path = workdir / "certificate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    code, out, err = run_cli(
        ["check-cert", str(INPUTS / grading_file), str(path), "--strict", "--field", field_name]
    )
    assert code in (0, 1, 2)
    _assert_oracle_agrees(doc, grading_file, field_name)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert err == ""
    if code == 0:
        assert out == "valid\n"
        grading = grading_from_config(json.loads((INPUTS / grading_file).read_text()))
        field = parse_field(field_name)
        assert is_graded_identity(grading, _vouched_polynomial(doc, grading, field))


def test_certified_documents_agree_with_stepwise_oracle(documents):
    for family in documents:
        for grading_file, field_name, doc in family:
            _assert_oracle_agrees(doc, grading_file, field_name)
