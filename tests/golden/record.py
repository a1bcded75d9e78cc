"""Record new golden cases: run every case in cases.json that has no
expected/<name>.out yet, store its exit code there and its exact stdout in
that file.

    python tests/golden/record.py

Cases that already have an expected file are left as they are, so adding a
case never re-records the others with whatever the code prints today.  To
re-record a case on purpose, delete its expected file first, and do so only
when a change of output is intended.  `tests/test_golden.py` replays the
same cases and never rewrites these files.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

from helpers import run_cli  # noqa: E402


def main() -> None:
    cases = json.loads((HERE / "cases.json").read_text(encoding="utf-8"))
    expected = HERE / "expected"
    expected.mkdir(exist_ok=True)
    os.chdir(HERE / "inputs")
    for case in cases:
        path = expected / f"{case['name']}.out"
        if path.exists():
            continue
        case["exit"], out, _ = run_cli(case["argv"])
        path.write_text(out, encoding="utf-8", newline="")
        print(f"recorded {case['name']} (exit {case['exit']})")
    with open(HERE / "cases.json", "w", encoding="utf-8") as f:
        json.dump(cases, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
