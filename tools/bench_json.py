#!/usr/bin/env python3
"""Write a BENCH file from the two result sets of `perfbench/compare.py pairs`.

    python3 perfbench/compare.py pairs --parent P --change C --out PAIRS --seed S
    python3 tools/bench_json.py PAIRS BENCH_<n>.json

PAIRS holds the parent.jsonl and change.jsonl that `pairs` wrote.  The JSON
file records the host, the seeds, and for every workload the operations
attempted and failed on each side and, per end-to-end metric of
BENCHMARK.json, each side's q1/median/q3, the pairs the change won and the
verdict.  Quartiles and verdicts come from compare.py's own functions, so
they are those `pairs` printed; a gain on a workload where the change failed
a larger share of operations is not counted, as there.
"""

import json
import os
import platform
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import compare  # noqa: E402  (perfbench/compare.py)


def host():
    return {
        "system": platform.system(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def operations(records, workload):
    results = [r["result"] for r in records if r["workload"] == workload]
    return {"runs": len(results), "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}


def bench(spec, parent, change):
    seeds = sorted({r["seed"] for r in parent + change})
    workloads = []
    for w in spec["workloads"]:
        name = w["name"]
        ops = {"parent": operations(parent, name), "change": operations(change, name)}
        share = {side: o["failed"] / o["attempted"] if o["attempted"] else 0.0
                 for side, o in ops.items()}
        metrics = []
        for m in spec["end_to_end"]:
            p = compare.series(parent, name, m["name"])
            c = compare.series(change, name, m["name"])
            if not p or not c:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            v = compare.verdict(p, c, m["better"], m["bound"])
            if v == "better" and share["change"] > share["parent"]:
                v = "no-worse (gain not counted: more failed operations)"
            metrics.append({
                "metric": m["name"], "unit": m["unit"], "better": m["better"],
                "bound": m["bound"],
                "parent": dict(zip(("q1", "median", "q3"), compare.quartiles(p))),
                "change": dict(zip(("q1", "median", "q3"), compare.quartiles(c))),
                "pairs": min(len(p), len(c)),
                "change_wins": sum(1 for a, b in zip(p, c) if sign * (a - b) > 0),
                "verdict": v,
            })
        workloads.append({"workload": name, "operations": ops, "metrics": metrics})
    return {"host": host(), "seeds": seeds, "workloads": workloads}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write("usage: bench_json.py PAIRS_DIR OUT.json\n")
        return 2
    pairs, out = argv
    parent = compare.load_set(os.path.join(pairs, "parent.jsonl"))
    change = compare.load_set(os.path.join(pairs, "change.jsonl"))
    with open(out, "w") as fh:
        json.dump(bench(compare.load_spec(), parent, change), fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
