"""Mutation fuzzing of grading documents, the input boundary of every command.

Group arithmetic trusts its arguments, so a grading document is where
element values are validated.  The golden grading documents are mutated:
values are replaced by other JSON types (bools, floats, strings, lists,
nested lists, huge ints), ints are perturbed, lists (tuple entries, product
factors, Cayley names, table rows and cells) are dropped, duplicated or
reordered, strings are replaced, and groups are nested inside products.
Each document then goes through `info`, `lset --seq` and `is-identity`:
every call exits 0, 1 or 2, with exactly one `error:` line on exit 2, and a
document that `info` accepts builds a grading whose entries are elements
that read back from their own literals.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matident import grading_from_config

from helpers import run_cli

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

# (grading document, degree sequence for lset, polynomial file)
BASES = [
    ("z4.json", "1,3,2", "z4_identity.txt"),
    ("z4_partial.json", "1,1", "z4p_residual.txt"),
    ("z2z2.json", "(1,0),(0,1)", "z2z2_identity.txt"),
    ("s3.json", "a,b", "s3_identity.txt"),
    ("integers.json", "1,-1", "int_identity.txt"),
]

KINDS = ["retype", "int", "list", "string", "nest"]
RETYPED = [
    None, True, False, 0, -1, 1.0, 2.5, "", "1", "(0,1)", [], [0], [1, 0], [[0, 1]],
    [0, [1, 1]], {}, 10**30, -(10**30), {"type": "integers"},
]
STRINGS = ["", " ", "e", "a", "0", "-1", "1.0", "True", "a;b", "a b", "(", "(0,1)", "(1,(0,1))",
           "x[1;1]", "٣"]


def _locations(node, out=None):
    """(container, key) for every value in a JSON tree."""
    out = [] if out is None else out
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _locations(value, out)
    return out


def _mutate(doc: dict, data) -> None:
    locations = _locations(doc)
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    if kind == "retype":
        # half the time an object member: a key of a group or of the document
        if data.draw(st.booleans(), label="member"):
            locations = [(c, k) for c, k in locations if isinstance(k, str)]
        c, k = data.draw(st.sampled_from(locations), label="location")
        c[k] = copy.deepcopy(data.draw(st.sampled_from(RETYPED), label="value"))
    elif kind == "int":
        ints = [(c, k) for c, k in locations if type(c[k]) is int]
        if ints:
            c, k = data.draw(st.sampled_from(ints), label="int")
            c[k] = data.draw(
                st.sampled_from([c[k] - 2, c[k] - 1, c[k] + 1, c[k] + 2, 10**30]), label="new"
            )
    elif kind == "list":
        lists = [v for c, k in locations if isinstance(v := c[k], list) and v]
        if lists:
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
    elif kind == "string":
        strings = [(c, k) for c, k in locations if isinstance(c[k], str)]
        if strings:
            c, k = data.draw(st.sampled_from(strings), label="string")
            c[k] = data.draw(st.sampled_from(STRINGS), label="new")
    else:
        groups = [(c, k) for c, k in locations if isinstance(c[k], dict) and "type" in c[k]]
        if groups:
            c, k = data.draw(st.sampled_from(groups), label="group")
            c[k] = {"type": "product", "factors": [c[k]]}
            if data.draw(st.booleans(), label="wrap entries") and isinstance(doc["tuple"], list):
                doc["tuple"] = [[entry] for entry in doc["tuple"]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("grading_fuzz")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_grading_documents_exit_cleanly(workdir, data):
    name, seq, poly = data.draw(st.sampled_from(BASES), label="base")
    doc = json.loads((INPUTS / name).read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        _mutate(doc, data)
    path = workdir / "grading.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    for argv in (
        ["info", str(path)],
        ["lset", str(path), "--seq", seq],
        ["is-identity", str(path), str(INPUTS / poly), "--strict"],
    ):
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        else:
            assert err == "", (argv, err)
        if argv[0] == "info" and code == 0:
            grading = grading_from_config(doc)
            group = grading.group
            for entry in grading.entries:
                assert group.check(entry) == entry
                assert group.parse(group.format(entry)) == entry
