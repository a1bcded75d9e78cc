"""matident benchmark: seeded workloads replayed through the CLI entry point.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload

Run from anywhere inside a checkout that holds `src/matident`.  Inputs are
generated from the seed in `.bench_work/` under the checkout (removed at
the end), then a separate process replays them.  With `--trace 0` the last
line of stdout is the end-to-end result, with `--trace 1` the per-layer
result of a traced run; the line before it holds the run's metadata.  See
README.md next to this file for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("certify", "decide", "monomials")
ROUNDS = 8             # rounds generated; the replay wraps around if it needs more
TRACE_ROUNDS = 1       # rounds replayed by a traced run (a fixed set: counts repeat)
MIN_QUERIES = 100      # so that at least 10 samples lie beyond p90
SETUP_SPAWNS = 7
CHILD_TIMEOUT = 170

SETUP_CODE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import matident\n"
    "for path in sys.argv[2:]:\n"
    "    with open(path, encoding='utf-8') as f:\n"
    "        matident.grading_from_config(json.load(f))\n"
)


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong answer)."""


def write_inputs(plan: gen.Plan, work: str) -> None:
    for name, text in plan.files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as f:
            f.write(text)
    with open(os.path.join(work, "queries.json"), "w", encoding="utf-8") as f:
        json.dump({"rounds": plan.rounds, "warmup": plan.warmup}, f)


def spawn_child(work: str, args: list, env: dict | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "loop.py"), SRC, work] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
                              env=env)
    except subprocess.TimeoutExpired:
        raise BenchError(f"measured process timed out after {CHILD_TIMEOUT}s") from None
    if proc.returncode != 0:
        raise BenchError(f"measured process failed:\n{proc.stderr[-3000:]}")
    label = "measure" if args[0] == "measure" else args[2]
    with open(os.path.join(work, f"summary.{label}.json"), encoding="utf-8") as f:
        return json.load(f)


def setup_seconds(plan: gen.Plan, work: str) -> float:
    """Median wall time of a fresh interpreter importing matident and
    loading the workload's grading documents."""
    files = [os.path.join(work, name) for name in plan.gradings]
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC] + files,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr[-2000:]}")
    return statistics.median(times)


def judge(plan: gen.Plan, work: str) -> list:
    """Check every executed query; returns its records, each with a verdict."""
    records = []
    verdicts: dict = {}
    with open(os.path.join(work, "results.jsonl"), encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            expect = plan.expect[rec["id"]]
            key = (rec["code"], rec["exc"], rec["digest"])
            if rec["exc"] == "NoBundle":
                reason = "no bundle from the certify query"
            elif "stderr" in rec:
                with open(os.path.join(work, "out", rec["id"]), encoding="utf-8") as out:
                    reason = check.check(expect, rec["code"], rec["exc"], out.read())
                verdicts[rec["id"]] = (key, reason)
            elif verdicts[rec["id"]][0] == key:
                reason = verdicts[rec["id"]][1]
            else:
                reason = "output differs from the first execution of the query"
            rec["reason"] = reason
            rec["cmd"] = expect["cmd"]
            rec["probe"] = expect["probe"]
            records.append(rec)
    return records


def failure_summary(records: list) -> tuple:
    """Failures by kind, one example per kind, and whether every failure
    is a known-defect probe."""
    kinds: dict = {}
    examples: dict = {}
    expected_only = True
    for rec in records:
        if rec["reason"] is None:
            continue
        kind = rec["probe"] or f"unexpected:{rec['cmd']}"
        expected_only &= rec["probe"] is not None
        kinds[kind] = kinds.get(kind, 0) + 1
        examples.setdefault(kind, f"{rec['id']}: {rec['reason']}")
    return kinds, examples, expected_only


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(plan: gen.Plan, work: str, seconds: int) -> tuple:
    setup = setup_seconds(plan, work)
    summary = spawn_child(work, ["measure", seconds, MIN_QUERIES])
    records = judge(plan, work)
    lat = [rec["ns"] / 1e6 for rec in records if rec["exc"] != "NoBundle"]
    kinds, examples, expected_only = failure_summary(records)
    failed = sum(kinds.values())
    metrics = {
        "setup_s": metric(setup, "s"),
        "latency_p50_ms": metric(statistics.median(lat), "ms"),
        "latency_p90_ms": metric(statistics.quantiles(lat, n=10, method="inclusive")[8], "ms"),
        "queries_per_s": metric(len(lat) / (summary["busy_ns"] / 1e9), "1/s"),
        "peak_rss_mb": metric(summary["peak_rss_kb"] / 1024, "MB"),
        "correct_frac": metric((len(records) - failed) / len(records), "ratio"),
    }
    commands: dict = {}
    for rec in records:
        commands[rec["cmd"]] = commands.get(rec["cmd"], 0) + 1
    meta = {"rounds": summary["rounds"], "queries": len(records), "latency_samples": len(lat),
            "queries_by_command": commands, "failed_frac": failed / len(records),
            "failures_by_kind": kinds, "failure_examples": examples,
            "measured_wall_s": summary["wall_s"]}
    return expected_only, len(records), failed, metrics, meta


def self_times(spans: dict) -> tuple:
    """Calls and self ns per span name, the time in root spans, and the
    number of spans whose self time came out negative."""
    names = spans["names"]
    name, parent, start, end = spans["name"], spans["parent"], spans["start"], spans["end"]
    n = len(start)
    child = [0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    calls = dict.fromkeys(names, 0)
    own = dict.fromkeys(names, 0)
    negative = 0
    for i in range(n):
        s = end[i] - start[i] - child[i]
        negative += s < 0
        calls[names[name[i]]] += 1
        own[names[name[i]]] += s
    root = sum(end[i] - start[i] for i in range(n) if parent[i] < 0)
    return calls, own, root, negative


def inclusive_by_query(spans: dict, span_name: str) -> dict:
    nid = spans["names"].index(span_name)
    out: dict = {}
    for i in range(len(spans["start"])):
        if spans["name"][i] == nid:
            q = spans["query"][i]
            out[q] = out.get(q, 0) + spans["end"][i] - spans["start"][i]
    return out


def slope(points: list) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def traced(plan: gen.Plan, work: str) -> tuple:
    """Untraced then traced replay of the same rounds, and a second traced
    replay in another process (other hash seed) whose counts must agree."""
    summary = spawn_child(work, ["trace", TRACE_ROUNDS, "a", 1])
    env = dict(os.environ, PYTHONHASHSEED="12345")
    spawn_child(work, ["trace", TRACE_ROUNDS, "b", 0], env=env)
    records = judge(plan, work)
    kinds, examples, expected_only = failure_summary(records)
    runs = [tracer.load(os.path.join(work, f"spans.{label}")) for label in ("a", "b")]
    timed = [self_times(spans) for spans in runs]
    counts = []
    for spans, (calls, _, _, _) in zip(runs, timed):
        c = {f"{k}.calls": v for k, v in calls.items()}
        c.update(spans["counts"])
        counts.append(c)
    mismatched = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
    a_calls, a_own, a_root, a_negative = timed[0]
    b_own = timed[1][1]
    c = counts[0]

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    metrics = {}
    for span in tracer.SPANS:
        metrics[f"{span}.calls"] = metric(a_calls[span], "count")
        metrics[f"{span}.self_ms"] = metric((a_own[span] + b_own[span]) / 2e6, "ms")
    for counter in tracer.COUNTS:
        metrics[f"{counter}.calls"] = metric(c[counter], "count")
    metrics["generic.matching_entry.hit_ratio"] = metric(
        ratio("generic.matching_entry.found", "generic.matching_entry.calls"), "ratio")
    metrics["monomials.minimal_yield"] = metric(
        ratio("monomials.is_minimal_identity.kept", "monomials.is_minimal_identity.calls"), "ratio")
    metrics["monomials.sequences_emitted"] = metric(c["monomials.sequences_emitted"], "count")
    metrics["rewrite.pairings"] = metric(c["rewrite.pairings"], "count")
    traced_a = [r for r in records if r["phase"] == "a"]
    untraced = [r for r in records if r["phase"] == "untraced"]
    metrics["cli.stdout_bytes"] = metric(sum(r["bytes"] for r in traced_a), "bytes")
    base = sum(r["ns"] for r in untraced)
    metrics["trace.overhead_frac"] = metric(
        (sum(r["ns"] for r in traced_a) - base) / base if base else 0.0, "ratio")
    # certify latency against the term count T, on the Z4 ladder
    sized = {q["id"]: q["size"] for rnd in plan.rounds for q in rnd
             if q.get("grading") == "z4" and q["argv"][0] == "certify"}
    points = [(sized[r["id"]], r["ns"]) for r in untraced if r["id"] in sized]
    metrics["rewrite.certify_membership.scale_exp"] = metric(
        slope(points) if len(points) > 1 else 0.0, "ratio")
    # filter time at cap L over cap L-1, per family and round (geometric mean)
    filt = inclusive_by_query(runs[0], "monomials.is_minimal_identity")
    order = [q["id"] for rnd in plan.rounds[:TRACE_ROUNDS] for q in rnd]
    at = {qid: filt.get(i, 0) for i, qid in enumerate(order)}
    growth = []
    for qid, ns in at.items():
        if qid.endswith("m") and ns:
            stem, cap = qid[:-1].rsplit(".L", 1)
            lower = at.get(f"{stem}.L{int(cap) - 1}m")
            if lower:
                growth.append(ns / lower)
    metrics["monomials.minimal_growth"] = metric(
        math.exp(statistics.fmean(math.log(g) for g in growth)) if growth else 0.0, "ratio")
    wall = summary["traced_wall_ns"]
    own_total = sum(a_own.values())
    meta = {
        "traced_rounds": TRACE_ROUNDS,
        "spans": len(runs[0]["start"]),
        "absent": runs[0]["absent"],
        "unexercised": sorted(k for k, v in metrics.items()
                              if k.endswith(".calls") and not v["value"]),
        "calls_mismatched_between_runs": mismatched,
        "traced_wall_ms": wall / 1e6,
        "span_self_ms_total": own_total / 1e6,
        "outside_spans_ms": (wall - own_total) / 1e6,
        "negative_self_spans": a_negative,
        "self_equals_root_time": own_total == a_root,
        "failures_by_kind": kinds,
        "failure_examples": examples,
    }
    sound = expected_only and not mismatched and own_total == a_root and not a_negative
    failed = sum(kinds.values())
    return sound, len(records), failed, metrics, meta


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def source_info() -> dict:
    pkg = os.path.join(SRC, "matident")
    digest = hashlib.sha256()
    lines = 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as f:
                data = f.read()
            digest.update(fname.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    work = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        t0 = time.perf_counter()
        plan = gen.PLANS[name](seed, ROUNDS)
        write_inputs(plan, work)
        generate_s = time.perf_counter() - t0
        if trace:
            correct, attempted, failed, metrics, meta = traced(plan, work)
        else:
            correct, attempted, failed, metrics, meta = measure(plan, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    meta.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                generate_s=generate_s, python=platform.python_version(),
                nproc=os.cpu_count(), commit=commit(), **source_info())
    print(json.dumps({"meta": meta}, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "matident", "__init__.py")):
        print(f"error: no matident sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(json.dumps({"workload": name, **res}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v
                    for name, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
