"""The measured process: replays the queries of a plan through matident's CLI.

Run by run.py, never by hand:

    python3 loop.py SRC WORKDIR measure SECONDS MIN_QUERIES
    python3 loop.py SRC WORKDIR trace ROUNDS LABEL WITH_UNTRACED

One client, one thread, closed loop: each query is one in-process call of
`matident.cli.main(argv)` and the next starts when it returns.  Only that
call is timed.  Bundles for `check-cert` queries are written (and, for the
tampered ones, altered) between calls.  Each executed query appends one
line to `results.jsonl` in WORKDIR; the full stdout of the first execution
of a query id goes to `out/<id>`, later executions record its digest only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def tamper(bundle: dict, kind: str) -> dict:
    """Alter a genuine bundle so that the correct verdict is rejection."""
    items = bundle["components"]
    certified = [it for it in items if it.get("identity")]
    if kind == "drop_pairing":
        cert = next(it["certificate"] for it in certified if it["certificate"]["pairings"])
        cert["pairings"].pop()
    elif kind == "perturb_split":
        cert = next(it["certificate"] for it in certified if it["certificate"]["pairings"])
        pairing = next(p for p in cert["pairings"] if p["certificate"]["steps"])
        start = pairing["certificate"]["start"]
        # one cut past the end of the word: the factorization cannot exist
        pairing["certificate"]["steps"][0]["split"][-1] = start.count("x[") + 1
    elif kind == "perturb_coefficient":
        # one more copy of a term: the input is no longer the certified one
        first = certified[0]["component"].lstrip("-").split(" ")[0]
        word = first.split("*", 1)[1] if first[0].isdigit() else first
        bundle["input"] = f"{bundle['input']} + {word}"
    elif kind == "missing_key":
        del certified[0]["certificate"]
    elif kind == "duplicate_component":
        # the certified component listed twice; the uncertified one left out
        other = next(k for k, it in enumerate(items) if not it.get("identity"))
        items[other] = json.loads(json.dumps(certified[0]))
        bundle["identity"] = True
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    return bundle


class Runner:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.cli = sys.modules["matident.cli"]
        self.bundles: dict = {}
        self.saved: set = set()
        self.results = open(os.path.join(workdir, "results.jsonl"), "a", encoding="utf-8")
        self.tracer = None

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        exc = ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                code = self.cli.main(argv)
            except Exception as e:  # a traceback is a failed query, not a crash of the loop
                code, exc = None, type(e).__name__
            t1 = time.perf_counter_ns()
        return code, exc, t1 - t0, out.getvalue(), err.getvalue()

    def prepare(self, q: dict) -> bool:
        """Write the bundle a check-cert query reads; False when there is none."""
        src = q.get("bundle_of")
        if src is None:
            return True
        text = self.bundles.get(src)
        if text is None:
            return False
        try:
            bundle = json.loads(text)
            if q.get("tamper"):
                bundle = tamper(bundle, q["tamper"])
        except (ValueError, KeyError, IndexError, StopIteration, TypeError, AttributeError):
            return False
        with open(os.path.join(self.workdir, q["argv"][2]), "w", encoding="utf-8") as f:
            json.dump(bundle, f)
        return True

    def replay(self, rnd: list, phase: str, index: int) -> tuple:
        """Run one round; returns the next query index and the time in calls."""
        self.bundles.clear()
        busy = 0
        for q in rnd:
            busy += self.run(q, phase, index)
            index += 1
        return index, busy

    def run(self, q: dict, phase: str, index: int) -> int:
        if not self.prepare(q):
            rec = {"id": q["id"], "phase": phase, "code": None, "exc": "NoBundle", "ns": 0,
                   "bytes": 0, "digest": ""}
            self.results.write(json.dumps(rec) + "\n")
            return 0
        if self.tracer is not None:
            self.tracer.query = index
        code, exc, ns, out, err = self.call(q["argv"])
        if q["argv"][0] == "certify":
            self.bundles[q["id"]] = out
        data = out.encode()
        rec = {"id": q["id"], "phase": phase, "code": code, "exc": exc, "ns": ns,
               "bytes": len(data), "digest": hashlib.sha256(data).hexdigest()}
        if q["id"] not in self.saved:
            self.saved.add(q["id"])
            with open(os.path.join(self.workdir, "out", q["id"]), "wb") as f:
                f.write(data)
            rec["stderr"] = err[-2000:]
        self.results.write(json.dumps(rec) + "\n")
        return ns


def main(argv) -> int:
    src, workdir, mode = argv[1], argv[2], argv[3]
    sys.path.insert(0, src)
    import matident.cli  # noqa: F401  (the engine under test)

    os.chdir(workdir)
    os.makedirs("out", exist_ok=True)
    with open("queries.json", encoding="utf-8") as f:
        plan = json.load(f)
    rounds = plan["rounds"]
    runner = Runner(workdir)
    for args in plan["warmup"]:
        runner.call(args)
    summary: dict = {}
    if mode == "measure":
        seconds, min_queries = float(argv[4]), int(argv[5])
        done = r = busy = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or done < min_queries:
            done, ns = runner.replay(rounds[r % len(rounds)], "measure", done)
            busy += ns
            r += 1
        summary = {"rounds": r, "queries": done, "busy_ns": busy,
                   "wall_s": time.perf_counter() - start}
        label = "measure"
    else:
        count, label, with_untraced = int(argv[4]), argv[5], argv[6] == "1"
        if with_untraced:
            t0 = time.perf_counter_ns()
            for rnd in rounds[:count]:
                runner.replay(rnd, "untraced", 0)
            summary["untraced_wall_ns"] = time.perf_counter_ns() - t0
        import tracer  # the benchmark's own, next to this file

        runner.tracer = tracer.Tracer()
        runner.tracer.install()
        done = 0
        t0 = time.perf_counter_ns()
        for rnd in rounds[:count]:
            done, _ = runner.replay(rnd, label, done)
        summary["traced_wall_ns"] = time.perf_counter_ns() - t0
        runner.tracer.write(f"spans.{label}")
    runner.results.close()
    summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(f"summary.{label}.json", "w") as f:
        json.dump(summary, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
