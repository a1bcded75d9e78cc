"""Replay the golden corpus (tests/golden) through the CLI entry point.

Every case pins the exact stdout and exit code of one command line over the
fixed documents in tests/golden/inputs.  A case that exits 2 must also write
exactly one `error: ` line to stderr, unless argparse rejected the command
line (its stderr starts with `usage:`); other cases write no stderr.  The
expected files are written by tests/golden/record.py, never by this test.

The replay needs only the standard library, so it also runs without pytest
on any installed interpreter:

    python tests/test_golden.py

which prints the cases that differ and exits 1 when there are any.
"""

import json
import os
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"

if __name__ == "__main__":
    sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from helpers import run_cli  # noqa: E402


def replay() -> tuple[int, list[str]]:
    """Run every case; returns the case count and the names that differ."""
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    assert len(cases) == len({c["name"] for c in cases}), "case names repeat"
    mismatches = []
    cwd = os.getcwd()
    os.chdir(GOLDEN / "inputs")
    try:
        for case in cases:
            code, out, err = run_cli(case["argv"])
            expected = (GOLDEN / "expected" / f"{case['name']}.out").read_text(
                encoding="utf-8"
            )
            if (code, out) != (case["exit"], expected):
                mismatches.append(case["name"])
            elif code != 2 and err:
                mismatches.append(f"{case['name']} (unexpected stderr)")
            elif code == 2 and not (
                err.startswith("usage:")
                or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))
            ):
                mismatches.append(f"{case['name']} (stderr is not one error line)")
    finally:
        os.chdir(cwd)
    return len(cases), mismatches


def test_strict_changes_only_the_exit_code():
    """Every case that exits 1 under --strict exits 0 without it, with the
    same stdout and no stderr."""
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    negative = [c for c in cases if c["exit"] == 1 and "--strict" in c["argv"]]
    assert len(negative) == 17
    cwd = os.getcwd()
    os.chdir(GOLDEN / "inputs")
    try:
        for case in negative:
            expected = (GOLDEN / "expected" / f"{case['name']}.out").read_text(
                encoding="utf-8"
            )
            argv = [a for a in case["argv"] if a != "--strict"]
            assert run_cli(argv) == (0, expected, ""), case["name"]
    finally:
        os.chdir(cwd)


def test_golden_corpus():
    total, mismatches = replay()
    assert not mismatches, f"{len(mismatches)} of {total} cases differ: {mismatches}"


if __name__ == "__main__":
    total, mismatches = replay()
    for name in mismatches:
        print(f"differs: {name}")
    print(f"golden corpus ({sys.version.split()[0]}): "
          f"{total - len(mismatches)} of {total} cases match")
    sys.exit(1 if mismatches else 0)
