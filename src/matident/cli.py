"""Command-line interface.

One subcommand per engine operation:

    info                 grading summary: support, dimensions, neutral shape
    lset --seq ...       chain starts and row paths for a degree sequence
    eval                 generic evaluation of a polynomial file
    is-identity          exact graded-identity decision
    enumerate-monomials  identity degree sequences up to a length cap
    shortest-identity    exact shortest monomial identity via the automaton
    bounds               closed-form length caps
    equiv                derive a rewrite certificate between two words
    certify              membership certificates per multihomogeneous part
    check-cert           replay and verify a certificate document

Each handler returns its --json payload, its text output and whether the
answer is negative; `main` alone loads the grading, prints and picks the
exit code.  Exit codes: 0 success, 1 negative mathematical answer under
--strict, 2 usage or input errors, and 2 with no message when the reader
closes stdout early (as `| head` does).  All output is deterministic;
--json mirrors the human-readable output with a stable schema.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import compress
from pathlib import Path
from typing import Optional, Sequence

from . import rewrite
from .commpoly import parse_field, render_poly
from .freealg import multihomogeneous_components, parse_polynomial, parse_word
from .generic import DistinctTupleError, evaluate, is_graded_identity
from .grading import Grading, grading_from_config
from .groups import split_top_level
from .monomials import length_bounds, monomial_identity_runs, shortest_monomial_identity

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

# what a handler returns: the --json payload, the text output, and whether
# the answer is negative (exit 1 under --strict)
Reply = tuple[dict, str, bool]


_quote = json.encoder.encode_basestring_ascii


class _Rows:
    """A payload list of sequences, given as runs that share all but their
    last letter (`monomials.Run`, flags unread: a nonempty prefix and at
    least one last letter), which `_dumps` writes as the list of their name
    lists; `quoted` maps each element to its name's JSON text, so every name
    is quoted once, not once per occurrence."""

    def __init__(self, runs: list, quoted: dict[object, str]):
        self.runs, self.quoted = runs, quoted


def _dumps(obj, nl: str = "\n") -> str:
    """The text of `json.dumps(obj, sort_keys=True, indent=2)`, byte for byte.

    json skips its C encoder whenever `indent` is set, so this writes the
    same text directly, for the types handler payloads hold: dicts with str
    keys, lists and tuples, str, int, bool and None.  Anything else raises
    TypeError.  A `_Rows` value is written as its list of name lists, with
    one C-level join per run of rows that share a prefix, whose names are
    joined once for the whole run.
    `nl` is the newline plus the indent of `obj`'s own level.  Within one
    dict, a value that is the same object as an earlier value (as
    `sequences` and `unfiltered_sequences` can be) is encoded once.  Str and
    int list items, and str dict values, are written without a call.
    """
    inner = nl + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):  # first: payloads are mostly lists
        if not obj:
            return "[]"
        body = sep.join([
            _quote(x) if type(x) is str else int.__repr__(x) if type(x) is int else _dumps(x, inner)
            for x in obj
        ])
        return f"[{inner}{body}{nl}]"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)  # raises ValueError past 4300 digits, as json does
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be str")
        seen: dict[int, str] = {}  # the payload keeps every value alive, so no id is reused
        parts = []
        for key, value in sorted(obj.items()):
            text = _quote(value) if type(value) is str else seen.get(id(value))
            if text is None:
                text = seen[id(value)] = _dumps(value, inner)
            parts.append(f"{_quote(key)}: {text}")
        return f"{{{inner}{sep.join(parts)}{nl}}}"
    if isinstance(obj, _Rows):
        if not obj.runs:
            return "[]"
        get = obj.quoted.__getitem__
        start, stop, comma = "[" + inner + "  ", inner + "]", "," + inner + "  "
        between = stop + sep + start  # from one row's last name to the next row's first
        # one join per run: its rows are the prefix's names, each followed by
        # `comma`, then one last name, so only the prefix text is built in Python
        parts = []
        for run in obj.runs:
            head = comma.join(map(get, run[0])) + comma
            parts.append(head + (between + head).join(map(get, run[1])))
        return f"[{inner}{start}{between.join(parts)}{stop}{nl}]"
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _load_grading(path: str) -> Grading:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read grading file {path!r}: {exc}") from None
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"grading file {path!r} is not valid JSON: {exc}") from None
    return grading_from_config(obj)


def _load_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read file {path!r}: {exc}") from None


def cmd_info(args: argparse.Namespace, grading: Grading) -> Reply:
    fmt = grading.group.format
    support = grading.support()
    dims = [(fmt(g), grading.component_dimension(g)) for g in support]
    # distinct entries make the neutral component the diagonal, which commutes,
    # and a repeated entry makes it neither (README), so one fact fills all three
    distinct = grading.is_distinct
    flag = str(distinct).lower()
    blocks = grading.neutral_blocks()
    payload = {
        "group": str(grading.group),
        "n": grading.n,
        "tuple": [fmt(g) for g in grading.entries],
        "support": [fmt(g) for g in support],
        "component_dimensions": {name: d for name, d in dims},
        "neutral_report": dict.fromkeys(
            ("distinct_entries", "neutral_is_diagonal", "neutral_commutes"), distinct
        ),
        "neutral_blocks": {"sizes": list(blocks.sizes), "dimension": blocks.dimension},
    }
    lines = [
        f"group: {grading.group}",
        f"n: {grading.n}",
        f"tuple: ({', '.join(fmt(g) for g in grading.entries)})",
        f"support ({len(support)}): {', '.join(fmt(g) for g in support)}",
        "component dimensions: " + ", ".join(f"{name}:{d}" for name, d in dims),
        f"neutral report: distinct-entries={flag} neutral-is-diagonal={flag} "
        f"neutral-commutes={flag}",
        f"neutral blocks: sizes={list(blocks.sizes)} dimension={blocks.dimension}",
    ]
    return payload, "\n".join(lines), False


def cmd_lset(args: argparse.Namespace, grading: Grading) -> Reply:
    fmt = grading.group.format
    parts = split_top_level(args.seq)
    if not all(p.strip() for p in parts):
        raise ValueError(f"--seq needs comma-separated nonempty degree literals, got {args.seq!r}")
    hseq = [grading.group.parse(p) for p in parts]
    paths = grading.lset(hseq)
    payload = {
        "sequence": [fmt(h) for h in hseq],
        "starts": list(paths),
        "paths": {str(k): list(path) for k, path in paths.items()},
    }
    if not paths:
        human = "L = {} (monomial identity)"
    else:
        lines = [f"L = {{{', '.join(map(str, paths))}}}"]
        for k, path in paths.items():
            lines.append(f"  s[{k}] = ({', '.join(map(str, path))})")
        human = "\n".join(lines)
    return payload, human, False


def cmd_eval(args: argparse.Namespace, grading: Grading) -> Reply:
    field = parse_field(args.field)
    poly = parse_polynomial(_load_text(args.polynomial), grading.group, field)
    matrix = evaluate(grading, poly)
    fmt = functools.cache(grading.group.format)  # each distinct degree is formatted once
    # each entry is rendered once, for the payload and the "(i,j): p" lines
    entries = {f"({i},{j})": render_poly(matrix[(i, j)], fmt) for (i, j) in sorted(matrix)}
    payload = {"field": str(field), "zero": not matrix, "entries": entries}
    human = "\n".join(f"{pos}: {text}" for pos, text in entries.items()) or "0"
    return payload, human, False


def cmd_is_identity(args: argparse.Namespace, grading: Grading) -> Reply:
    field = parse_field(args.field)
    poly = parse_polynomial(_load_text(args.polynomial), grading.group, field)
    answer = is_graded_identity(grading, poly)
    payload = {"field": str(field), "identity": answer}
    return payload, "identity" if answer else "not an identity", not answer


def cmd_enumerate(args: argparse.Namespace, grading: Grading) -> Reply:
    runs = monomial_identity_runs(grading, args.max_len)
    unfiltered_count = sum(len(run[1]) for run in runs)
    if args.minimal:
        # each run keeps its flagged letters; a run left with none is dropped
        found = [(run[0], kept) for run in runs if (kept := list(compress(run[1], run[2])))]
        count = sum(len(run[1]) for run in found)
    else:
        found, count = runs, unfiltered_count
    bounds = length_bounds(grading)
    names = {h: grading.group.format(h) for h in grading.support()}
    # each name is formatted, and quoted for --json, once: the lists can be long
    if args.json:
        quoted = {h: _quote(name) for h, name in names.items()}
        unfiltered = _Rows(runs, quoted)
        payload = {
            "max_len": args.max_len,
            "minimal": args.minimal,
            "sequences": _Rows(found, quoted) if args.minimal else unfiltered,
            "count": count,
            "unfiltered_sequences": unfiltered,
            "unfiltered_count": unfiltered_count,
            "support_bound": bounds.support_bound,
            "size_bound": bounds.size_bound,
        }
        return payload, "", not count
    get = names.__getitem__
    lines = []
    for prefix, lasts, *_ in found:  # one join per run, as `_dumps` writes `_Rows`
        head = ",".join(map(get, prefix)) + ","
        lines.append(head + ("\n" + head).join(map(get, lasts)))
    lines.append(
        f"count={count} unfiltered={unfiltered_count} max_len={args.max_len} "
        f"minimal={str(args.minimal).lower()} "
        f"support_bound={bounds.support_bound} size_bound={bounds.size_bound}"
    )
    return {}, "\n".join(lines), not count


def cmd_shortest(args: argparse.Namespace, grading: Grading) -> Reply:
    fmt = grading.group.format
    answer = shortest_monomial_identity(grading)
    if answer is None:
        payload = {"exists": False}
        human = "none (no monomial over the support is an identity, of any length)"
    else:
        length, witness = answer
        payload = {
            "exists": True,
            "length": length,
            "witness": [fmt(h) for h in witness],
        }
        human = f"length {length}: {','.join(fmt(h) for h in witness)}"
    return payload, human, answer is None


def cmd_bounds(args: argparse.Namespace, grading: Grading) -> Reply:
    bounds = length_bounds(grading)
    s = len(grading.support())
    payload = {
        "support_size": s,
        "support_bound": bounds.support_bound,
        "size_bound": bounds.size_bound,
    }
    human = (
        f"support size s = {s}\n"
        f"support bound 4*s^(2s+2) = {bounds.support_bound}\n"
        f"size bound 4*n^(4(n^2+1)) = {bounds.size_bound}"
    )
    return payload, human, False


def cmd_equiv(args: argparse.Namespace, grading: Grading) -> Reply:
    group = grading.group
    target = parse_word(_load_text(args.target), group)
    source = parse_word(_load_text(args.source), group)
    try:
        cert = rewrite.derive_equivalence(grading, target, source)
    except DistinctTupleError:
        raise
    except ValueError as exc:
        return {"derived": False, "reason": str(exc)}, f"no certificate: {exc}", True
    doc = rewrite.equivalence_to_dict(cert, group)
    lines = [
        f"start: {doc['start']}",
        f"end:   {doc['end']}",
        f"steps: {len(cert.steps)}",
    ]
    for idx, step in enumerate(cert.steps):
        lines.append(f"  {idx}: {step.rule} at {list(step.split)}")
    return doc, "\n".join(lines), False


def cmd_certify(args: argparse.Namespace, grading: Grading) -> Reply:
    group = grading.group
    poly = parse_polynomial(_load_text(args.polynomial), group, parse_field(args.field))
    outcomes = [
        (comp, rewrite.certify_membership(grading, comp))
        for comp in multihomogeneous_components(poly)
    ]
    payload = rewrite.bundle_to_dict(poly, outcomes, group)
    lines = [f"components: {len(payload['components'])}"]
    for item in payload["components"]:
        if item["identity"]:
            cert = item["certificate"]
            lines.append(
                f"  identity: {item['component']} "
                f"(pairings={len(cert['pairings'])}, residual={len(cert['residual'])})"
            )
        else:
            w = item["witness"]
            lines.append(
                f"  NOT an identity: {item['component']} "
                f"(entry at ({w['position'][0]},{w['position'][1]}): {w['entry']})"
            )
    lines.append("identity" if payload["identity"] else "not an identity")
    return payload, "\n".join(lines), not payload["identity"]


def cmd_check_cert(args: argparse.Namespace, grading: Grading) -> Reply:
    field = parse_field(args.field)
    try:
        doc = json.loads(_load_text(args.certificate))
    except json.JSONDecodeError as exc:
        raise ValueError(f"certificate file is not valid JSON: {exc}") from None
    cert = rewrite.read_certificate(doc, grading.group, field)
    result = rewrite.check_certificate(grading, cert)
    payload = {"valid": result.ok}
    if result.reason:
        payload["reason"] = result.reason
    return payload, "valid" if result.ok else f"invalid: {result.reason}", not result.ok


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matident",
        description="Exact engine for graded identities of matrix algebras "
        "with elementary gradings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("grading", help="grading document (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit 1 on a negative mathematical answer",
        )
        p.set_defaults(handler=handler)
        return p

    add("info", cmd_info, "grading summary")

    p = add("lset", cmd_lset, "chain starts and row paths for a degree sequence")
    p.add_argument("--seq", required=True, help="comma-separated degree literals")

    p = add("eval", cmd_eval, "evaluate a polynomial on generic matrices")
    p.add_argument("polynomial", help="polynomial file")
    p.add_argument("--field", default="rationals", help="rationals (default) or fp:<prime>")

    p = add("is-identity", cmd_is_identity, "decide whether a polynomial is a graded identity")
    p.add_argument("polynomial", help="polynomial file")
    p.add_argument("--field", default="rationals", help="rationals (default) or fp:<prime>")

    p = add("enumerate-monomials", cmd_enumerate, "enumerate identity degree sequences")
    p.add_argument("--max-len", type=int, required=True, help="length cap (explicit)")
    p.add_argument("--minimal", action="store_true", help="apply the minimality filter")

    add("shortest-identity", cmd_shortest, "shortest monomial identity via automaton search")
    add("bounds", cmd_bounds, "closed-form length caps")

    p = add("equiv", cmd_equiv, "derive a rewrite certificate from SOURCE to TARGET")
    p.add_argument("target", help="word file (derivation end)")
    p.add_argument("source", help="word file (derivation start)")

    p = add("certify", cmd_certify, "certify membership per multihomogeneous component")
    p.add_argument("polynomial", help="polynomial file")
    p.add_argument("--field", default="rationals", help="rationals (default) or fp:<prime>")

    p = add("check-cert", cmd_check_cert, "verify a certificate document")
    p.add_argument("certificate", help="certificate file (JSON)")
    p.add_argument("--field", default="rationals", help="rationals (default) or fp:<prime>")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        payload, human, negative = args.handler(args, _load_grading(args.grading))
        # inside the try: text the stdout encoding cannot take is a ValueError
        print(_dumps(payload) if args.json else human)
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the exit-time flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_NEGATIVE if negative and args.strict else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
