"""The four workloads: CLI calls through `skewflow.cli.main`, then output checks.

A round is one pass over a workload's CLI calls and checks; every call and
every check is one operation.  Each round runs in a fresh process, so every
round pays the same first-call costs a user's CLI invocation pays:

    PYTHONPATH=src python3 perfbench/workloads.py --workload NAME --seed N --workdir DIR --trace 0|1

prints one JSON line with the wall-clock interval of each CLI call, the
operation counts, the process's peak RSS and, traced, the per-layer metrics.

The seed picks the perturbation of the analytic input shapes from tables
whose entries all keep the grid sizes, step counts and stability margins of
the seed-0 configuration, so every seed does the same amount of work.
"""

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import checks
import spans

# seed % len(table) picks (eps, k1, k2); entry 0 is the reference configuration
MEMBRANE_SHAPES = (
    (0.05, 2, 3), (0.04, 2, 3), (0.06, 2, 3), (0.05, 3, 2), (0.04, 3, 2),
    (0.06, 3, 2), (0.05, 2, 2), (0.04, 3, 3), (0.05, 1, 3),
)
# seed % len(table) picks (eps, k) of the perturbed circle
FILAMENT_SHAPES = (
    (0.05, 3), (0.04, 3), (0.06, 3), (0.05, 2), (0.04, 2),
    (0.06, 2), (0.03, 4), (0.04, 4), (0.02, 5),
)

RESTART_STEPS = 10          # straight run length of membrane-restart, in steps
RESTART_DT = 5e-4
TORUS_A, TORUS_B = 1.0, 2.0


class Round:
    """Operation accounting for one pass over a workload.

    `failed` counts CLI calls that exited non-zero or raised and checks that
    failed, raised or could not run; `incorrect` counts only checks that ran on
    the outputs of successful calls and failed.
    """

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir
        self.intervals = []        # (start, end) perf_counter readings of each CLI call
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self._failed_calls = set()
        self.stdout = {}

    def out(self, name):
        return os.path.join(self.workdir, name)

    def call(self, name, argv):
        """One CLI call, timed, with its output directory `name`."""
        self.attempted += 1
        printed = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                code = self.cli.main(list(argv) + ["--out", self.out(name)])
        except Exception:
            traceback.print_exc()
            code = None
        self.intervals.append((start, time.perf_counter()))
        self.stdout[name] = printed.getvalue()
        sys.stderr.write(self.stdout[name])
        if code != 0:
            self.failed += 1
            self._failed_calls.add(name)
            sys.stderr.write(f"operation {name} failed (exit {code})\n")

    def check(self, name, needs, fn, *args):
        """One check on the outputs of the calls in `needs`; args may be callables."""
        self.attempted += 1
        if self._failed_calls.intersection(needs):
            self.failed += 1
            sys.stderr.write(f"check {name} skipped: an input call failed\n")
            return
        try:
            passed, detail = fn(*(a() if callable(a) else a for a in args))
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        sys.stderr.write(f"check {name} {'pass' if passed else 'FAILED'}: {detail}\n")
        if not passed:
            self.failed += 1
            self.incorrect += 1


def membrane_evolve(r, seed):
    eps, k1, k2 = MEMBRANE_SHAPES[seed % len(MEMBRANE_SHAPES)]
    r.call("evolve", [
        "membrane-run", "surface=perturbed_torus", f"a={TORUS_A}", f"b={TORUS_B}",
        f"eps={eps}", f"k1={k1}", f"k2={k2}", "n1=64", "n2=64", "order=4",
        "dt=1e-3", "T=0.1", "stride=10",
    ])
    outdir = r.out("evolve")

    @functools.cache
    def geometry():
        names = sorted(f for f in os.listdir(outdir) if f.startswith("snapshot_"))
        return [checks.surface_area_willmore(*checks.read_snapshot(os.path.join(outdir, f)))
                for f in names]

    def reported():
        return checks.read_csv(os.path.join(outdir, "diagnostics.csv"))["willmore"]

    need = ("evolve",)
    r.check("volume-drift", need, checks.check_volume_drift, lambda: [g[0] for g in geometry()])
    r.check("willmore-agreement", need, checks.check_willmore_agreement,
            reported, lambda: [g[1] for g in geometry()])
    r.check("willmore-change", need, checks.check_willmore_change, lambda: [g[1] for g in geometry()])


def membrane_restart(r, seed):
    half = RESTART_STEPS // 2
    common = ["membrane-run", "surface=torus_product", f"a={TORUS_A}", f"b={TORUS_B}",
              "n1=128", "n2=128", "order=4", f"dt={RESTART_DT}", "stride=1"]
    r.call("straight", common + [f"T={RESTART_STEPS * RESTART_DT!r}"])
    mid = os.path.join(r.out("straight"), f"snapshot_{half:04d}.txt")
    r.call("restart", common + [f"T={(RESTART_STEPS - half) * RESTART_DT!r}", f"surface_file={mid}"])

    def final(name, index):
        with open(os.path.join(r.out(name), f"snapshot_{index:04d}.txt"), "rb") as fh:
            return fh.read()

    def straight_snapshots():
        return [
            (i * RESTART_DT,
             checks.read_snapshot(os.path.join(r.out("straight"), f"snapshot_{i:04d}.txt"))[0])
            for i in range(RESTART_STEPS + 1)
        ]

    def reported():
        table = checks.read_csv(os.path.join(r.out("straight"), "diagnostics.csv"))
        return [i * RESTART_DT for i in range(RESTART_STEPS + 1)], table["willmore"]

    r.check("restart-identical", ("straight", "restart"), checks.check_identical,
            lambda: final("straight", RESTART_STEPS), lambda: final("restart", RESTART_STEPS - half))
    r.check("torus-radii", ("straight",), checks.check_torus_radii,
            straight_snapshots, TORUS_A, TORUS_B)
    r.check("torus-willmore", ("straight",),
            lambda tw, a, b: checks.check_torus_willmore(*tw, a, b), reported, TORUS_A, TORUS_B)


def filament_square(r, seed):
    eps, k = FILAMENT_SHAPES[seed % len(FILAMENT_SHAPES)]
    curve = ["shape=perturbed_circle", "R=1", f"eps={eps}", f"k={k}", "N=256", "dt=1e-4", "T=0.2"]
    r.call("filament", ["filament-run", *curve])
    r.call("darios", ["darios-run", *curve])
    r.call("nls", ["nls-run", "source=curve", *curve])
    r.call("fluid", ["fluid-run", *curve])

    def table(name, csv_name, columns):
        return checks.frames(checks.read_csv(os.path.join(r.out(name), csv_name)), columns)

    @functools.cache
    def curves():
        return [(t, checks.curve_geometry(p))
                for t, p in table("filament", "trajectory.csv", ["x", "y", "z"])]

    def profiles():
        return {
            "filament": curves()[-1][1][1],
            "darios": table("darios", "fields.csv", ["kappa"])[-1][1][:, 0],
            "nls": table("nls", "psi.csv", ["abs"])[-1][1][:, 0],
            "fluid": np.sqrt(table("fluid", "fluid.csv", ["rho"])[-1][1][:, 0]),
        }

    def mass(name, csv_name, column, power):
        return [float((f[:, 0] ** power).sum()) for _, f in table(name, csv_name, [column])]

    r.check("profiles", ("filament", "darios", "nls", "fluid"), checks.check_profiles, profiles)
    r.check("length", ("filament",), checks.check_conserved, "filament length",
            lambda: [g[0] for _, g in curves()], 1e-6)
    r.check("bending", ("filament",), checks.check_conserved, "integral of kappa^2",
            lambda: [g[2] for _, g in curves()], 1e-5)
    r.check("fluid-mass", ("fluid",), checks.check_conserved, "fluid mass",
            lambda: mass("fluid", "fluid.csv", "rho", 1), 1e-10)
    r.check("wave-mass", ("nls",), checks.check_conserved, "wave mass",
            lambda: mass("nls", "psi.csv", "abs", 2), 1e-10)


def validate(r, seed):
    # The verdicts are read from the printed "PASS|FAIL  <check id>  details"
    # lines: validate.csv does not quote its fields, and check names hold commas.
    r.call("validate", ["validate"])

    def status(cid):
        for line in r.stdout["validate"].splitlines():
            words = line.split()
            if len(words) >= 2 and words[1] == cid:
                return words[0] == "PASS", line
        return False, "check missing from the validate report"

    for cid in spans.CHECK_IDS:
        r.check(cid, (), status, cid)


WORKLOADS = {
    "membrane-evolve": membrane_evolve,
    "membrane-restart": membrane_restart,
    "filament-square": filament_square,
    "validate": validate,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one round of a workload in this process.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import skewflow
    import skewflow.cli  # noqa: F401  (loads every module the tracer wraps)

    r = Round(skewflow.cli, args.workdir)
    layers = None
    if args.trace:
        tracer = spans.Tracer(skewflow)
        tracer.install()
        try:
            WORKLOADS[args.workload](r, args.seed)
        finally:
            tracer.uninstall()
        cli_s = sum(end - start for start, end in r.intervals)
        layers = spans.layer_metrics(skewflow, tracer.spans, cli_s)
    else:
        WORKLOADS[args.workload](r, args.seed)
    print(json.dumps({
        "intervals": r.intervals,
        "attempted": r.attempted,
        "failed": r.failed,
        "incorrect": r.incorrect,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
