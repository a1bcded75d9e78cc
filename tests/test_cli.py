import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matident.cli import main
from matident.groups import Group

Z4_DOC = {"group": {"type": "cyclic", "order": 4}, "n": 2, "tuple": [0, 1]}
IDENTITY2 = "x[1;1]*x[3;3]*x[1;2] - x[1;2]*x[3;3]*x[1;1]\n"


@pytest.fixture
def z4_path(tmp_path):
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(Z4_DOC), encoding="utf-8")
    return str(path)


@pytest.fixture
def poly2_path(tmp_path):
    path = tmp_path / "poly2.txt"
    path.write_text(IDENTITY2, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info(capsys, z4_path):
    code, out, _ = run(capsys, ["info", z4_path])
    assert code == 0
    assert "support (3): 0, 1, 3" in out
    assert "neutral-is-diagonal=true" in out
    assert "dimension=2" in out


def test_info_json_schema(capsys, z4_path):
    code, out, _ = run(capsys, ["info", z4_path, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["support"] == ["0", "1", "3"]
    assert doc["component_dimensions"] == {"0": 2, "1": 1, "3": 1}
    assert doc["neutral_report"]["distinct_entries"] is True


def test_is_identity(capsys, z4_path, poly2_path):
    code, out, _ = run(capsys, ["is-identity", z4_path, poly2_path, "--field", "fp:3"])
    assert code == 0
    assert out.strip() == "identity"


def test_is_identity_strict_negative(capsys, z4_path, tmp_path):
    poly = tmp_path / "nonid.txt"
    poly.write_text("x[1;1]\n", encoding="utf-8")
    code, out, _ = run(capsys, ["is-identity", z4_path, str(poly), "--strict"])
    assert code == 1
    assert out.strip() == "not an identity"
    code, _, _ = run(capsys, ["is-identity", z4_path, str(poly)])
    assert code == 0


def test_enumerate(capsys, z4_path):
    code, out, _ = run(capsys, ["enumerate-monomials", z4_path, "--max-len", "4", "--minimal"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:2] == ["1,1", "3,3"]
    assert "count=2" in lines[-1]
    assert "support_bound=26244" in lines[-1]
    assert "size_bound=4194304" in lines[-1]


def test_shortest(capsys, z4_path):
    code, out, _ = run(capsys, ["shortest-identity", z4_path])
    assert code == 0
    assert out.strip() == "length 2: 1,1"


def test_bounds(capsys, z4_path):
    code, out, _ = run(capsys, ["bounds", z4_path, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"support_size": 3, "support_bound": 26244, "size_bound": 4194304}


@pytest.mark.parametrize("n", [28, 64])
def test_bounds_on_large_gradings_print_power_form(capsys, tmp_path, n):
    path = tmp_path / f"z{n}.json"
    doc = {"group": {"type": "cyclic", "order": n}, "n": n, "tuple": list(range(n))}
    path.write_text(json.dumps(doc), encoding="utf-8")
    size = f"4*{n}^{4 * (n * n + 1)}"
    code, out, err = run(capsys, ["bounds", str(path)])
    assert (code, err) == (0, "")
    assert f"size bound 4*n^(4(n^2+1)) = {size}" in out
    code, out, _ = run(capsys, ["bounds", str(path), "--json"])
    assert code == 0
    assert json.loads(out) == {
        "support_size": n,
        "support_bound": 4 * n ** (2 * n + 2),
        "size_bound": size,
    }
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, ["enumerate-monomials", str(path), "--max-len", "1"] + extra)
        assert (code, err) == (0, "")
        assert size in out


def test_lset(capsys, z4_path):
    code, out, _ = run(capsys, ["lset", z4_path, "--seq", "1,3,1"])
    assert code == 0
    assert "L = {1}" in out
    assert "s[1] = (1, 2, 1, 2)" in out
    code, out, _ = run(capsys, ["lset", z4_path, "--seq", "1,1"])
    assert code == 0
    assert "monomial identity" in out


def test_lset_product_group_literals(capsys, tmp_path):
    doc = {
        "group": {
            "type": "product",
            "factors": [{"type": "cyclic", "order": 2}, {"type": "cyclic", "order": 2}],
        },
        "n": 4,
        "tuple": ["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
    }
    path = tmp_path / "v4.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, ["lset", str(path), "--seq", "(1,0),(0,1),(1,1)"])
    assert code == 0
    assert "L = {1, 2, 3, 4}" in out
    assert "s[1] = (1, 3, 4, 1)" in out


def test_eval(capsys, z4_path, tmp_path, poly2_path):
    code, out, _ = run(capsys, ["eval", z4_path, poly2_path])
    assert code == 0
    assert out.strip() == "0"
    poly = tmp_path / "single.txt"
    poly.write_text("x[1;1]\n", encoding="utf-8")
    code, out, _ = run(capsys, ["eval", z4_path, str(poly)])
    assert code == 0
    assert out.strip() == "(1,2): y[1;1;1]"


def test_equiv_and_check(capsys, z4_path, tmp_path):
    target = tmp_path / "m.txt"
    source = tmp_path / "n.txt"
    target.write_text("x[1;1]*x[3;3]*x[1;2]\n", encoding="utf-8")
    source.write_text("x[1;2]*x[3;3]*x[1;1]\n", encoding="utf-8")
    code, out, _ = run(capsys, ["equiv", z4_path, str(target), str(source), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "equivalence"
    assert doc["start"] == "x[1;2]*x[3;3]*x[1;1]"
    assert doc["end"] == "x[1;1]*x[3;3]*x[1;2]"

    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, ["check-cert", z4_path, str(cert_path)])
    assert code == 0
    assert out.strip() == "valid"

    # tamper with the certificate: well-formed step, failing side condition
    doc["steps"][0] = {"rule": "neutral-swap", "split": [0, 1, 2]}
    cert_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, ["check-cert", z4_path, str(cert_path), "--strict"])
    assert code == 1
    assert out.startswith("invalid")


def test_equiv_without_matching_entry(capsys, z4_path, tmp_path):
    target = tmp_path / "m.txt"
    source = tmp_path / "n.txt"
    target.write_text("x[1;1]*x[0;1]\n", encoding="utf-8")
    source.write_text("x[0;1]*x[1;1]\n", encoding="utf-8")
    code, out, _ = run(capsys, ["equiv", z4_path, str(target), str(source), "--strict"])
    assert code == 1
    assert "no certificate" in out


def test_certify_bundle_roundtrip(capsys, z4_path, tmp_path):
    poly = tmp_path / "mixed.txt"
    poly.write_text(
        "x[1;1]*x[3;3]*x[1;2] - x[1;2]*x[3;3]*x[1;1] + 2*x[1;1]*x[1;1]\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["certify", z4_path, str(poly), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "membership-bundle"
    assert doc["identity"] is True
    assert len(doc["components"]) == 2

    cert_path = tmp_path / "bundle.json"
    cert_path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, ["check-cert", z4_path, str(cert_path)])
    assert code == 0
    assert out.strip() == "valid"


def test_certify_non_identity(capsys, z4_path, tmp_path):
    poly = tmp_path / "nonid.txt"
    poly.write_text("x[1;1]*x[3;2]\n", encoding="utf-8")
    code, out, _ = run(capsys, ["certify", z4_path, str(poly), "--strict"])
    assert code == 1
    assert "NOT an identity" in out


def test_deterministic_output(capsys, z4_path, poly2_path):
    _, first, _ = run(capsys, ["certify", z4_path, poly2_path, "--json"])
    _, second, _ = run(capsys, ["certify", z4_path, poly2_path, "--json"])
    assert first == second


def test_usage_errors(capsys, z4_path, tmp_path):
    assert main(["unknown-subcommand", z4_path]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["info", str(bad)])
    assert code == 2
    assert "error:" in err
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, ["info", str(missing)])
    assert code == 2
    bad_field = tmp_path / "poly.txt"
    bad_field.write_text("x[1;1]\n", encoding="utf-8")
    code, _, err = run(capsys, ["is-identity", z4_path, str(bad_field), "--field", "fp:4"])
    assert code == 2
    assert "not prime" in err
    repeated = tmp_path / "repeated.json"
    repeated.write_text(
        json.dumps({"group": {"type": "cyclic", "order": 2}, "n": 3, "tuple": [0, 0, 1]}),
        encoding="utf-8",
    )
    poly = tmp_path / "neutral.txt"
    poly.write_text("x[0;1]\n", encoding="utf-8")
    code, out, err = run(capsys, ["eval", str(repeated), str(poly)])
    assert code == 2
    assert out == "" and "repeated entries" in err
    # '²' passes str.isdigit, yet no integer holds it: a positioned parse error
    for text, position in (("²*x[1;1]", 0), ("x[1;1]*x[1;²]", 11)):
        poly.write_text(text + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["is-identity", z4_path, str(poly)])
        assert code == 2 and out == ""
        assert _one_error_line(err) and f"(at position {position})" in err


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


SWAP_START = "x[0;1]*x[0;3]*x[0;1]*x[0;2]"
SWAP_END = "x[0;1]*x[0;2]*x[0;1]*x[0;3]"


def _swap_files(tmp_path) -> dict:
    """Z2 gradings with tuples (0,1) and (0,0), and the ends of a neutral
    swap that is valid on the first.  On the second the difference of the
    ends is no identity: x1 = I, x2 = E12, x3 = E21 give E11 - E22."""
    paths = {}
    for name, entries in (("distinct", [0, 1]), ("repeated", [0, 0])):
        paths[name] = tmp_path / f"{name}.json"
        doc = {"group": {"type": "cyclic", "order": 2}, "n": 2, "tuple": entries}
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    texts = {"start": SWAP_START, "end": SWAP_END, "poly": f"{SWAP_END} - {SWAP_START}"}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text + "\n", encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def test_check_cert_refuses_repeated_tuples(capsys, tmp_path):
    paths = _swap_files(tmp_path)
    code, out, _ = run(capsys, ["certify", paths["distinct"], paths["poly"], "--json"])
    assert code == 0
    documents = {
        "equivalence": {
            "format": 1,
            "type": "equivalence",
            "start": SWAP_START,
            "end": SWAP_END,
            "steps": [{"rule": "neutral-swap", "split": [0, 2, 4]}],
        },
        "membership": json.loads(out)["components"][0]["certificate"],
        "bundle": json.loads(out),
    }
    for kind, doc in documents.items():
        cert = tmp_path / f"{kind}.json"
        cert.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["check-cert", paths["distinct"], str(cert), "--strict"]
        assert run(capsys, argv)[:2] == (0, "valid\n")
        argv[1] = paths["repeated"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert _one_error_line(err) and "repeated entries" in err


def test_equiv_refuses_repeated_tuples(capsys, tmp_path):
    paths = _swap_files(tmp_path)
    for extra in ([], ["--strict"]):
        argv = ["equiv", paths["repeated"], paths["end"], paths["start"]] + extra
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert _one_error_line(err) and "repeated entries" in err


def test_lset_rejects_empty_sequence_elements(capsys, z4_path):
    for seq in ("1,,2", "1,", ",1", ""):
        code, out, err = run(capsys, ["lset", z4_path, "--seq", seq])
        assert (code, out) == (2, "")
        assert _one_error_line(err)


def test_prime_fields_stop_where_primality_is_exact(capsys, z4_path, poly2_path):
    # 1287836182261 * 2575672364521 passes Miller-Rabin for every base up to 41
    argv = ["is-identity", z4_path, poly2_path, "--field"]
    code, out, err = run(capsys, argv + ["fp:3317044064679887385961981"])
    assert (code, out) == (2, "")
    assert _one_error_line(err) and "3317044064679887385961981" in err
    # 399165290221 * 798330580441 passes every base up to 37 but not 41
    code, out, err = run(capsys, argv + ["fp:318665857834031151167461"])
    assert (code, out) == (2, "")
    assert _one_error_line(err) and "not prime" in err
    code, out, _ = run(capsys, argv + [f"fp:{2**61 - 1}"])
    assert (code, out) == (0, "identity\n")


def _nested_group(depth: int) -> dict:
    group = {"type": "cyclic", "order": 2}
    for _ in range(depth):
        group = {"type": "product", "factors": [group]}
    return group


@pytest.mark.parametrize("kind", ["grading_array", "certificate_array", "product_group"])
def test_deep_nesting_is_a_usage_error(capsys, z4_path, tmp_path, kind):
    deep = tmp_path / "deep.json"
    if kind == "product_group":
        deep.write_text(json.dumps({"group": _nested_group(300), "n": 1, "tuple": [0]}))
    else:
        deep.write_text("[" * 200_000 + "]" * 200_000)
    argv = ["check-cert", z4_path] if kind == "certificate_array" else ["info"]
    code, out, err = run(capsys, argv + [str(deep)])
    assert (code, out) == (2, "")
    assert _one_error_line(err) and "nested too deeply" in err


FORGEABLE = "x[1;1]*x[3;3]*x[1;2] - x[1;2]*x[3;3]*x[1;1] + x[0;5]\n"


def _write_json(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_bundle_must_cover_each_component_once(capsys, z4_path, tmp_path):
    poly = tmp_path / "forgeable.txt"
    poly.write_text(FORGEABLE, encoding="utf-8")
    code, out, _ = run(capsys, ["is-identity", z4_path, str(poly)])
    assert out.strip() == "not an identity"
    code, out, _ = run(capsys, ["certify", z4_path, str(poly), "--json"])
    bundle = json.loads(out)
    assert [item["identity"] for item in bundle["components"]] == [False, True]
    # forgery: the certified component listed twice, x[0;5] left out
    bundle["components"][0] = bundle["components"][1]
    bundle["identity"] = True
    path = _write_json(tmp_path, "forged.json", bundle)
    code, out, _ = run(capsys, ["check-cert", z4_path, path, "--strict"])
    assert code == 1
    assert out.startswith("invalid: component 1 repeats")


def test_bundle_field_must_match_the_field_in_force(capsys, z4_path, tmp_path):
    poly = tmp_path / "commutator.txt"
    poly.write_text("x[0;1]*x[0;2] - x[0;2]*x[0;1]\n", encoding="utf-8")
    code, out, _ = run(capsys, ["certify", z4_path, str(poly), "--field", "fp:3", "--json"])
    assert code == 0
    bundle = json.loads(out)
    assert bundle["field"] == "fp:3"
    path = _write_json(tmp_path, "mod3.json", bundle)
    assert run(capsys, ["check-cert", z4_path, path, "--field", "fp:3"])[:2] == (0, "valid\n")
    code, out, err = run(capsys, ["check-cert", z4_path, path, "--strict"])
    assert (code, out) == (2, "")
    assert err == "error: bundle is over fp:3, but the field in force is rationals\n"
    # a bundle without the key is read over the field in force
    del bundle["field"]
    path = _write_json(tmp_path, "unlabelled.json", bundle)
    assert run(capsys, ["check-cert", z4_path, path, "--field", "fp:3"])[:2] == (0, "valid\n")
    bundle["field"] = 3
    path = _write_json(tmp_path, "numeric.json", bundle)
    code, _, err = run(capsys, ["check-cert", z4_path, path, "--field", "fp:3"])
    assert code == 2 and err.startswith("error: membership bundle: 'field' must be str")


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param(
            [{"type": "membership"}],
            "certificate document must be a JSON object, got list",
            id="array",
        ),
        # unhashable: a dispatch through a dict lookup would raise TypeError
        pytest.param(
            {"type": ["membership"]}, "unknown certificate type ['membership']", id="list-type"
        ),
        pytest.param({"format": 1}, "unknown certificate type None", id="no-type"),
    ],
)
def test_check_cert_type_dispatch_errors(capsys, z4_path, tmp_path, doc, message):
    path = _write_json(tmp_path, "doc.json", doc)
    assert run(capsys, ["check-cert", z4_path, path]) == (2, "", f"error: {message}\n")


def test_standalone_membership_certificate_is_read_over_the_field_option(capsys, tmp_path):
    # a membership document carries no field: over another field its replay
    # reads invalid, which is a verdict, not an error
    z4 = str(GOLDEN / "inputs" / "z4.json")
    poly = tmp_path / "mod3.txt"
    poly.write_text("x[0;1]*x[0;2] + 2*x[0;2]*x[0;1]\n", encoding="utf-8")
    code, out, _ = run(capsys, ["certify", z4, str(poly), "--field", "fp:3", "--json"])
    assert code == 0
    cert = json.loads(out)["components"][0]["certificate"]
    assert cert["type"] == "membership" and "field" not in cert
    path = _write_json(tmp_path, "membership.json", cert)
    assert run(capsys, ["check-cert", z4, path, "--field", "fp:3"]) == (0, "valid\n", "")
    assert run(capsys, ["check-cert", z4, path]) == (
        0,
        "invalid: replay does not reach the recorded residual\n",
        "",
    )


def _malformed(kind: str, edit):
    return pytest.param(kind, edit, id=edit.__name__)


def top_level_list(doc):
    return [doc]


def membership_without_input(doc):
    return {"type": "membership"}


def bundle_item_without_certificate(doc):
    del doc["components"][0]["certificate"]
    return doc


def string_split(doc):
    # as many characters as cut points, so only the element type is wrong
    doc["steps"][0]["split"] = "abcd"[: len(doc["steps"][0]["split"])]
    return doc


def bool_cut_point(doc):
    doc["steps"][0]["split"][0] = False
    return doc


def float_cut_point(doc):
    doc["steps"][0]["split"][1] = float(doc["steps"][0]["split"][1])
    return doc


def steps_not_a_list(doc):
    doc["steps"] = doc["steps"][0]
    return doc


def bool_pairing_index(doc):
    doc["pairings"][0]["target"] = False
    return doc


def float_pairing_index(doc):
    doc["pairings"][0]["source"] = float(doc["pairings"][0]["source"])
    return doc


def pairing_without_certificate(doc):
    del doc["pairings"][0]["certificate"]
    return doc


def numeric_word(doc):
    doc["start"] = 5
    return doc


def component_not_a_string(doc):
    doc["components"][0]["component"] = [doc["components"][0]["component"]]
    return doc


def identity_flag_not_bool(doc):
    doc["components"][0]["identity"] = "yes"
    return doc


@pytest.mark.parametrize(
    "kind, edit",
    [
        _malformed("equivalence", top_level_list),
        _malformed("membership", membership_without_input),
        _malformed("membership-bundle", bundle_item_without_certificate),
        _malformed("equivalence", string_split),
        _malformed("equivalence", bool_cut_point),
        _malformed("equivalence", float_cut_point),
        _malformed("equivalence", steps_not_a_list),
        _malformed("membership", bool_pairing_index),
        _malformed("membership", float_pairing_index),
        _malformed("membership", pairing_without_certificate),
        _malformed("equivalence", numeric_word),
        _malformed("membership-bundle", component_not_a_string),
        _malformed("membership-bundle", identity_flag_not_bool),
    ],
)
def test_malformed_certificate_is_a_usage_error(capsys, z4_path, poly2_path, tmp_path, kind, edit):
    target = tmp_path / "m.txt"
    source = tmp_path / "n.txt"
    target.write_text("x[1;1]*x[3;3]*x[1;2]\n", encoding="utf-8")
    source.write_text("x[1;2]*x[3;3]*x[1;1]\n", encoding="utf-8")
    _, out, _ = run(capsys, ["equiv", z4_path, str(target), str(source), "--json"])
    equivalence = json.loads(out)
    _, out, _ = run(capsys, ["certify", z4_path, poly2_path, "--json"])
    bundle = json.loads(out)
    genuine = {
        "equivalence": equivalence,
        "membership": bundle["components"][0]["certificate"],
        "membership-bundle": bundle,
    }
    assert genuine[kind]["type"] == kind
    path = _write_json(tmp_path, "doc.json", genuine[kind])
    assert run(capsys, ["check-cert", z4_path, path, "--strict"])[:2] == (0, "valid\n")

    path = _write_json(tmp_path, "doc.json", edit(genuine[kind]))
    code, out, err = run(capsys, ["check-cert", z4_path, path, "--strict"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


GOLDEN = Path(__file__).resolve().parent / "golden"
# text, --json, exit 1 under --strict, exit 2 with an error line, argparse usage
MODULE_CASES = (
    "eval-z4-nonidentity",
    "certify-z4-json",
    "is-identity-z4-negative-strict",
    "eval-bad-poly",
    "unknown-command",
)


def _module_env(**extra) -> dict:
    """The environment under which `python -m matident.cli` imports this source."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **extra)


def test_module_entry_matches_golden():
    """`python -m matident.cli` reads sys.argv through `main(None)` and exits
    with its return code, as the console script does."""
    cases = {c["name"]: c for c in json.loads((GOLDEN / "cases.json").read_text("utf-8"))}
    for name in MODULE_CASES:
        case = cases[name]
        proc = subprocess.run(
            [sys.executable, "-m", "matident.cli", *case["argv"]],
            cwd=GOLDEN / "inputs",
            env=_module_env(),
            capture_output=True,
            encoding="utf-8",
            timeout=60,
        )
        expected = (GOLDEN / "expected" / f"{name}.out").read_text(encoding="utf-8")
        assert (proc.returncode, proc.stdout) == (case["exit"], expected), name
        if case["exit"] == 2:
            assert _one_error_line(proc.stderr) or proc.stderr.startswith("usage:"), name
        else:
            assert proc.stderr == "", name



def test_closed_stdout_exits_2_without_a_message():
    """A reader that stops early (`| head -1`) must not get a traceback, nor
    exit 1, which means a negative answer; the output here is some 180 kB,
    far more than a pipe buffers, so the write meets the closed pipe."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "matident.cli", "enumerate-monomials", "z4_partial.json",
         "--max-len", "12"],
        cwd=GOLDEN / "inputs",
        env=_module_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"0,0,0,0,0,0,0,0,0,0,1,1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (2, b"")


def test_cap_deeper_than_the_recursion_limit_is_a_usage_error(capsys, z4_path):
    cap = 2 * sys.getrecursionlimit()
    code, out, err = run(capsys, ["enumerate-monomials", z4_path, "--max-len", str(cap)])
    assert (code, out) == (2, "")
    assert _one_error_line(err) and f"max_len {cap} is too deep" in err


def test_output_the_stdout_encoding_cannot_take_is_a_usage_error(tmp_path):
    """The text output is printed inside main's error handling, so an
    unencodable label gives one error line; --json escapes it."""
    doc = {"group": {"type": "cayley", "names": ["e", "\u03c3"], "table": [[0, 1], [1, 0]]},
           "n": 2, "tuple": ["e", "\u03c3"]}
    path = _write_json(tmp_path, "z2_sigma.json", doc)

    def info(*flags):
        return subprocess.run(
            [sys.executable, "-m", "matident.cli", "info", path, *flags],
            env=_module_env(PYTHONIOENCODING="ascii"),
            capture_output=True,
            encoding="ascii",
            errors="strict",
            timeout=60,
        )

    proc = info()
    assert (proc.returncode, proc.stdout) == (2, "")
    assert _one_error_line(proc.stderr) and "'ascii' codec" in proc.stderr
    proc = info("--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert '"\\u03c3"' in proc.stdout and json.loads(proc.stdout)["support"] == ["e", "\u03c3"]


def test_minimal_flag_validates_no_more_elements(capsys, tmp_path, monkeypatch):
    """--minimal reads flags the enumeration walk already computed, so it
    validates no element beyond those the plain listing does."""
    doc = {"group": {"type": "integers"}, "n": 5, "tuple": [0, 1, 3, 9, 20]}
    path = _write_json(tmp_path, "integers.json", doc)
    calls = 0
    check = Group.check

    def counted(self, a):
        nonlocal calls
        calls += 1
        return check(self, a)

    monkeypatch.setattr(Group, "check", counted)
    for cap in ("4", "5"):
        counts = []
        for extra in ([], ["--minimal"]):
            calls = 0
            argv = ["enumerate-monomials", path, "--max-len", cap, "--json", *extra]
            assert run(capsys, argv)[0] == 0
            counts.append(calls)
        assert counts[0] == counts[1], (cap, counts)
