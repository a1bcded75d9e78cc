"""Answer checks against the expectations built by gen.py.

`check` returns None for a correct answer and a one-line reason otherwise.
Tracebacks and unexpected exit codes are wrong answers too.
"""

from __future__ import annotations

import json

from gen import digest


def check(expect: dict, code, exc: str, out: str):
    if exc:
        return f"raised {exc}"
    if expect.get("reject"):
        if code == 2:
            return None
        if code == 1 and _load(out).get("valid") is False:
            return None
        return f"tampered bundle not rejected (exit {code}, {out.strip()[:60]!r})"
    if code != expect.get("exit", 0):
        return f"exit {code}, expected {expect.get('exit', 0)}"
    if code == 2:
        return None
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    return CHECKS[expect["cmd"]](expect, doc)


def _load(out: str) -> dict:
    try:
        doc = json.loads(out)
    except ValueError:
        return {}
    return doc if isinstance(doc, dict) else {}


def _fields(expect: dict, doc: dict, keys) -> str | None:
    for key in keys:
        if doc.get(key) != expect[key]:
            return f"{key} is {doc.get(key)!r}, expected {expect[key]!r}"
    return None


def _certify(expect: dict, doc: dict):
    if doc.get("type") != "membership-bundle":
        return "not a membership bundle"
    flags = sorted(bool(item.get("identity")) for item in doc.get("components", []))
    if flags != expect["components"]:
        return f"component verdicts {flags}, expected {expect['components']}"
    return _fields(expect, doc, ["identity"])


def _check_cert(expect: dict, doc: dict):
    return _fields(expect, doc, ["valid"])


def _is_identity(expect: dict, doc: dict):
    return _fields(expect, doc, ["identity", "field"])


def _eval(expect: dict, doc: dict):
    wrong = _fields(expect, doc, ["zero", "field"])
    if wrong is None and digest(doc.get("entries")) != expect["entries"]:
        wrong = "entries differ from the chain walk of the non-identity word"
    return wrong


def _payload(expect: dict, doc: dict):
    if doc != expect["payload"]:
        keys = sorted(k for k in set(doc) | set(expect["payload"])
                      if doc.get(k) != expect["payload"].get(k))
        return f"fields differ: {keys}"
    return None


def _shortest(expect: dict, doc: dict):
    length = expect["length"]
    if length is None:
        return None if doc == {"exists": False} else f"claims an identity: {doc}"
    if doc.get("length") != length:
        return f"length {doc.get('length')}, expected {length}"
    grading = expect["grading"]
    by_text = {grading.group.fmt(h): h for h in grading.support()}
    witness = doc.get("witness", [])
    if (len(witness) != length or any(w not in by_text for w in witness)
            or not grading.kills([by_text[w] for w in witness])):
        return f"witness {witness} is not an identity of length {length}"
    return None


def _enumerate(expect: dict, doc: dict):
    wrong = _fields(expect, doc, ["max_len", "minimal", "count", "unfiltered_count",
                                  "support_bound", "size_bound"])
    for key in ("sequences", "unfiltered_sequences"):
        if wrong is None and digest(doc.get(key)) != expect[key]:
            wrong = f"{key} differ"
    return wrong


CHECKS = {
    "certify": _certify,
    "check-cert": _check_cert,
    "is-identity": _is_identity,
    "eval": _eval,
    "info": _payload,
    "bounds": _payload,
    "shortest-identity": _shortest,
    "enumerate-monomials": _enumerate,
}
