"""Replay the golden corpus (tests/golden) through the CLI entry point.

Every case pins the exact stdout and exit code of one command line over the
fixed documents in tests/golden/inputs.  The expected files are written by
tests/golden/record.py, never by this test.
"""

import json
from pathlib import Path

from helpers import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_golden_corpus(monkeypatch):
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    assert len(cases) == len({c["name"] for c in cases})
    monkeypatch.chdir(GOLDEN / "inputs")
    mismatches = []
    for case in cases:
        code, out, err = run_cli(case["argv"])
        expected = (GOLDEN / "expected" / f"{case['name']}.out").read_text(
            encoding="utf-8"
        )
        if (code, out) != (case["exit"], expected):
            mismatches.append(case["name"])
        elif code != 2 and err:
            mismatches.append(f"{case['name']} (unexpected stderr)")
    assert not mismatches, f"{len(mismatches)} of {len(cases)} cases differ: {mismatches}"
