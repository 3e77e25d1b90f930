"""Collect result sets of the benchmark and compare a parent with a change.

    # one set: ten runs per workload, seeds S..S+9, appended to OUT
    python3 perfbench/compare.py collect --checkout DIR --out OUT.jsonl [--seed 1]

    # ten alternating pairs of parent and change runs per workload, then the report
    python3 perfbench/compare.py pairs --parent DIR --change DIR --out DIR [--seed 1]

    # verdicts from two saved sets
    python3 perfbench/compare.py report PARENT.jsonl CHANGE.jsonl

Each set is a JSON-lines file of {"workload", "seed", "result"} records in the
order the runs were made.  Every run uses this copy of the benchmark, started
in the given checkout, with the run length and every workload of this
benchmark's BENCHMARK.json and tracing off.  For every workload and
end-to-end metric, `report` prints each side's median and quartiles and one
verdict:

- better: at least ten pairs, the change wins at least 9/10 of them (ties
  count for neither side), and the medians differ by more than the parent's
  interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- no-worse: within the bound, and the parent's own spread is within it too;
- unresolved: fewer than ten pairs, or the parent's spread is wider than the
  bound and not every change run beats every parent run.

A gain does not count when the change failed more operations than the parent.
`report` takes the i-th run of a workload on each side as pair i.  Only
`pairs` writes alternated pairs; two sets from `collect`, made one after the
other, differ by drift as well, so their `better` supports no claimed gain.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MIN_PAIRS = 10


def load_spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def run_once(spec, checkout, workload, seed):
    # the same benchmark code on both sides: this run.py, started in the checkout
    cmd = [spec["command"][0], os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} in {checkout} exited {done.returncode}")
    record = {"workload": workload, "seed": seed,
              "result": json.loads(done.stdout.strip().splitlines()[-1])}
    print(json.dumps(record), flush=True)
    return record


def append(path, record):
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")


def load_set(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(records, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and metric in r["result"]["metrics"]]


def verdict(parent, change, better, bound):
    """Verdict for one metric from paired runs (pair i = parent[i], change[i])."""
    pairs = min(len(parent), len(change))
    if pairs < MIN_PAIRS:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    if wins >= 0.9 * pairs and sign * (p_med - c_med) > p_q3 - p_q1:
        return "better"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    if (p_q3 - p_q1) > bound * abs(p_med):
        clear = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
        return "no-worse" if clear else "unresolved"
    return "no-worse"


def report(spec, parent, change):
    print(f"{'workload':<18} {'metric':<12} {'parent q1/median/q3':<34} "
          f"{'change q1/median/q3':<34} verdict")
    for w in spec["workloads"]:
        name = w["name"]
        failed_share = {}
        for side, records in (("parent", parent), ("change", change)):
            rs = [r["result"] for r in records if r["workload"] == name]
            if rs:
                attempted, failed = sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs)
                failed_share[side] = failed / attempted
                print(f"{name:<18} {side} runs {len(rs)}, attempted {attempted}, failed {failed}, "
                      f"all correct {all(r['correct'] for r in rs)}")
        more_failures = failed_share.get("change", 0) > failed_share.get("parent", 0)
        for m in spec["end_to_end"]:
            p = series(parent, name, m["name"])
            c = series(change, name, m["name"])
            if not p or not c:
                continue
            cells = ["/".join(f"{v:.4g}" for v in quartiles(x)) + f" {m['unit']}" for x in (p, c)]
            v = verdict(p, c, m["better"], m["bound"])
            if v == "better" and more_failures:
                v = "no-worse (gain not counted: more failed operations)"
            print(f"{name:<18} {m['name']:<12} {cells[0]:<34} {cells[1]:<34} {v}")


def summary(spec, records):
    """Median, quartiles and interquartile range as a share of the median, per metric."""
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            values = series(records, w["name"], m["name"])
            if values:
                q1, med, q3 = quartiles(values)
                print(f"{w['name']:<18} {m['name']:<12} n={len(values):<3} median {med:.5g} "
                      f"q1 {q1:.5g} q3 {q3:.5g} spread {(q3 - q1) / med:.3f} (bound {m['bound']})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--checkout", default=".")
    c.add_argument("--out", required=True)
    c.add_argument("--seed", type=int, default=1, help="first seed")
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--out", required=True, help="directory for parent.jsonl and change.jsonl")
    p.add_argument("--seed", type=int, default=1, help="first seed")
    r = sub.add_parser("report")
    r.add_argument("parent")
    r.add_argument("change")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.command == "report":
        report(spec, load_set(args.parent), load_set(args.change))
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.command == "collect":
        for name in names:
            for seed in range(args.seed, args.seed + MIN_PAIRS):
                append(args.out, run_once(spec, os.path.abspath(args.checkout), name, seed))
        summary(spec, load_set(args.out))
        return 0
    os.makedirs(args.out, exist_ok=True)
    paths = {side: os.path.join(args.out, f"{side}.jsonl") for side in ("parent", "change")}
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for name in names:
        for i in range(MIN_PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                append(paths[side], run_once(spec, sides[side], name, args.seed + i))
    report(spec, load_set(paths["parent"]), load_set(paths["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
