"""Run one skewflow benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (the directory holding `src/`).
The program is imported from `src/` with nothing built or installed.  The
process pins itself, and so its children, to one CPU.  A run first times
`setup_s`, then repeats whole rounds of the workload, each in a fresh process
(`workloads.py`), until the next round would end after S seconds; it always
does at least one round.  CLI outputs go to a temporary directory under
`.perfbench_tmp/` in the checkout, removed when the run ends.

`--trace 0` reports the end-to-end metrics: `wall_s`, the median over rounds
of the time spent in the round's CLI calls; `setup_s`, the median of
SETUP_SAMPLES fresh interpreters timed from start until `import skewflow.cli`
returns; and `peak_rss_mb`, the largest peak resident set of a round's
process.  Both times are scaled to the reference host speed by
`gauge.SpeedGauge`.  `--trace 1` reports the per-layer metrics of
`spans.LAYER_METRICS`, averaged over rounds, in raw wall time.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
SETUP_CHILD = (
    "import sys, time\n"
    "import skewflow.cli\n"
    "sys.stdout.write(repr(time.perf_counter()))\n"
)
TIMEOUT_S = 900


def last_line(cmd, env):
    done = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S)
    return done.stdout.strip().splitlines()[-1]


def measure_setup(env, duration):
    """Median time, scaled and raw, from spawning a fresh interpreter until
    `import skewflow.cli` returns.

    On Linux `time.perf_counter` reads the system-wide CLOCK_MONOTONIC, so the
    child's reading and the parent's are on one clock.
    """
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        end = float(last_line([sys.executable, "-c", SETUP_CHILD], env))
        scaled.append(duration(start, end))
        raw.append(end - start)
    return statistics.median(scaled), statistics.median(raw)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "skewflow", "cli.py")):
        sys.stderr.write(f"no skewflow sources under {src}; run from a source checkout\n")
        return 2
    from gauge import SpeedGauge
    from spans import LAYER_METRICS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    # one CPU for the rounds, the setup children and the speed gauge
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=src)
    gauge = None if args.trace else SpeedGauge()

    tmp_root = os.path.join(root, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    rounds, durations = [], []
    try:
        with gauge or contextlib.nullcontext():
            duration = gauge.scaled if gauge else (lambda start, end: end - start)
            setup_s, setup_raw = (None, None) if args.trace else measure_setup(env, duration)
            started = time.perf_counter()
            while True:
                rounddir = os.path.join(workdir, f"round{len(rounds)}")
                os.mkdir(rounddir)
                round_start = time.perf_counter()
                record = json.loads(last_line([
                    sys.executable, os.path.join(HERE, "workloads.py"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--workdir", rounddir, "--trace", str(args.trace),
                ], env))
                durations.append(time.perf_counter() - round_start)
                shutil.rmtree(rounddir)
                record["cli_s"] = sum(duration(*i) for i in record["intervals"])
                rounds.append(record)
                sys.stderr.write(
                    f"round {len(rounds)}: CLI calls {sum(e - s for s, e in record['intervals']):.3f} s "
                    f"wall, {record['cli_s']:.3f} s reported; "
                    f"{record['failed']}/{record['attempted']} failed\n")
                elapsed = time.perf_counter() - started
                if elapsed + statistics.median(durations) > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(tmp_root)

    if args.trace:
        metrics = {
            name: {"value": statistics.fmean(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit in LAYER_METRICS
        }
    else:
        wall_raw = statistics.median(sum(e - s for s, e in r["intervals"]) for r in rounds)
        sys.stderr.write(f"unscaled medians: wall_s {wall_raw:.4f} s, setup_s {setup_raw:.4f} s\n")
        metrics = {
            "wall_s": {"value": statistics.median(r["cli_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    print(json.dumps({
        "correct": all(r["incorrect"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
