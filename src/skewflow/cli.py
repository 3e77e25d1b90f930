"""Command-line front end.

Subcommands take flat key=value parameters (plus an optional config file with
one section per subcommand) and write CSV artifacts plus a manifest into the
output directory.  Parsing is strict: unknown keys fail with exit code 2.
Numerical aborts exit 3 after flushing whatever diagnostics exist; I/O errors
exit 4.  Data files carry no wall-clock information, so identical configs
produce byte-identical CSVs.
"""

import argparse
import configparser
import csv
import functools
import hashlib
import io
import os
import sys
import time

import numpy as np

from . import __version__
from . import diffgeo as dg
from . import filament as fl
from . import membrane as mb
from . import sphereprod as sp
from . import validate as val
from .errors import EvolutionAbort
from .stepping import step_count

# any ValueError, geometric ones included, is a configuration error (exit 2)
NUMERICAL_ERRORS = (EvolutionAbort, FloatingPointError)


class ConfigError(ValueError):
    """Bad or unknown configuration keys/values (exit code 2)."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _as_int(s):
    v = float(s)
    if not np.isfinite(v) or v != int(v):
        raise ConfigError(f"expected an integer, got {s!r}")
    return int(v)


def _as_bool(s):
    if str(s).lower() in ("1", "true", "yes", "on"):
        return True
    if str(s).lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


# key -> (parser, default); REQUIRED marks keys without defaults
REQUIRED = object()

# the perturbed circle of the curve runs and of crosscheck's filament square,
# which hands one curve to all four corners, so the defaults agree
_CIRCLE = {"R": (float, 1.0), "eps": (float, 0.05), "k": (_as_int, 3)}


def _curve_schema(N=256, dt=1e-4, T=0.2, shape=REQUIRED):
    """Keys of a curve run: the curve, the grid and the steps."""
    return {
        "shape": (str, shape), **_CIRCLE, "N": (_as_int, N), "dt": (float, dt),
        "T": (float, T), "stride": (_as_int, 0), "curve_file": (str, None),
    }


SCHEMAS = {
    "sphere-run": {
        "m": (_as_int, REQUIRED), "l": (_as_int, REQUIRED),
        "a": (float, REQUIRED), "b": (float, REQUIRED),
        "dt": (float, 1e-4), "T": (float, None), "mode": (str, "fixed"),
        "a_stop": (float, sp.A_STOP_DEFAULT), "stride": (_as_int, 1),
    },
    "filament-run": _curve_schema(N=128, dt=1e-3, T=1.0),
    "darios-run": _curve_schema(),
    "nls-run": {
        "source": (str, "plane"), "A": (float, 1.0), "M": (_as_int, 256),
        "L": (float, 2.0 * np.pi),
        **_curve_schema(dt=1e-3, T=1.0, shape="perturbed_circle"),
    },
    "fluid-run": _curve_schema(),
    "membrane-run": {
        "surface": (str, REQUIRED), "a": (float, REQUIRED), "b": (float, REQUIRED),
        "eps": (float, 0.0), "k1": (_as_int, 2), "k2": (_as_int, 3),
        "n1": (_as_int, 64), "n2": (_as_int, 64), "dt": (float, 1e-3),
        "T": (float, 0.2), "stride": (_as_int, 10), "order": (_as_int, 2),
        "snapshots": (_as_bool, True), "surface_file": (str, None),
    },
    "crosscheck": {
        "mode": (str, REQUIRED), **_CIRCLE, "N": (_as_int, 256), "a": (float, 1.0),
        "b": (float, 2.0), "n1": (_as_int, 64), "n2": (_as_int, 64),
        "dt": (float, 1e-4), "T": (float, 0.2), "order": (_as_int, 4),
        "tol": (float, 5e-3), "tol_radii": (float, 1e-2),
    },
    "validate": {
        "suite": (str, "all"),
    },
}

def parse_params(subcommand, pairs, config_path=None, flag_overrides=None):
    """Merge config-file section, key=value pairs, and common flags; strict."""
    schema = SCHEMAS[subcommand]
    raw = {}
    if config_path:
        parser = configparser.ConfigParser(delimiters=(":", "="))
        parser.optionxform = str
        with open(config_path) as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as exc:
                raise ConfigError(f"malformed config file {config_path}: {exc}") from exc
        if parser.has_section(subcommand):
            raw.update(dict(parser.items(subcommand)))
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"parameters must look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        raw[key.strip()] = value.strip()
    for key, value in (flag_overrides or {}).items():
        if value is not None:
            raw[key] = value
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown keys for {subcommand}: {', '.join(unknown)}")
    params = {}
    for key, (parse, default) in schema.items():
        if key in raw:
            try:
                params[key] = parse(raw[key])
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {raw[key]!r} ({exc})")
        elif default is REQUIRED:
            raise ConfigError(f"missing required key {key!r} for {subcommand}")
        else:
            params[key] = default
    return params


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.17g}"


def _exact_as_g(x):
    """Whether "%.17g" % x is the cell _fmt(x) writes: a float (NaN and inf
    included) or an int of magnitude up to 2^53, which "%g" reads as a float
    exactly."""
    return isinstance(x, float) or isinstance(x, (int, np.integer)) and -2 ** 53 <= x <= 2 ** 53


def write_csv(path, header, rows):
    """Write a header line and the rows.

    A table whose rows are as long as the header and whose cells are all
    _exact_as_g is formatted by one "%.17g" row template joined across the
    rows, which gives the cells of _fmt, the text diffgeo._format_g17 gives
    a snapshot's values.  Tables keep the template: routing them through
    that formatter saved no wall time and raised the peak memory of the
    curve runs.  Any other table (a string cell, a large int, a row of
    another length) goes through csv.writer over _fmt, which quotes where
    needed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    rows, width = list(rows), len(header)
    cells = [x for row in rows for x in row]
    if rows and all(len(row) == width for row in rows) and all(map(_exact_as_g, cells)):
        template = ",".join(["%.17g"] * width)
        buf.write("\n".join([template] * len(rows)) % tuple(cells) + "\n")
    else:
        writer.writerows([_fmt(x) for x in row] for row in rows)
    dg.atomic_write(path, buf.getvalue())


def write_manifest(outdir, subcommand, params, wall_time, notes):
    """The config echo, its SHA-256 and the wall time, then one `key value`
    line per note a runner measured on its input."""
    items = " ".join(f"{k}={params[k]}" for k in sorted(params))
    digest = hashlib.sha256(f"{subcommand} {items}".encode()).hexdigest()
    text = (
        f"tool skewflow {__version__}\n"
        f"subcommand {subcommand}\n"
        f"config {items}\n"
        f"config_sha256 {digest}\n"
        f"wall_time_s {wall_time:.3f}\n"
    ) + "".join(f"{k} {_fmt(v)}\n" for k, v in notes.items())
    dg.atomic_write(os.path.join(outdir, "manifest.txt"), text)


def _curve_from_params(p):
    if p.get("curve_file"):
        return dg.load_immersion(p["curve_file"])
    return fl.build_curve(p["shape"], p["N"], R=p["R"], eps=p["eps"], k=p["k"])


# ---------------------------------------------------------------------------
# subcommand runners: write their files and return (exit code, manifest notes)
# ---------------------------------------------------------------------------

def run_sphere(p, outdir):
    if p["stride"] < 1:
        raise ConfigError(f"stride must be >= 1, got {p['stride']}")
    state, notes = sp.SphereProductState(p["m"], p["l"], p["a"], p["b"]), {}
    if p["mode"] == "to-collapse":
        run = functools.partial(sp.run_to_collapse, state, p["dt"], p["a_stop"], p["stride"])
    elif p["mode"] == "fixed":
        if p["T"] is None:
            raise ConfigError("fixed mode needs T")
        notes["collapse_time"] = sp.collapse_time(state)
        if sp.reaches_step_halving(state, p["dt"], p["T"]):
            sys.stderr.write(
                f"warning: T={p['T']:.6g} reaches the step halving before the collapse at "
                f"t={notes['collapse_time']:.6g}; rows there carry few significant digits\n")
        run = functools.partial(sp.evolve_numeric, state, p["dt"], p["T"], p["stride"])
    else:
        raise ConfigError(f"unknown mode {p['mode']!r}")
    traj, code = _evolve("sphere-product", run)
    table = sp.trajectory_table(traj)
    write_csv(os.path.join(outdir, "sphere.csv"), list(table), zip(*table.values()))
    return code, notes


def _evolve(label, run):
    """Call a solver once: (trajectory, 0), or (what it recorded, 3) on an abort."""
    try:
        return run(), 0
    except EvolutionAbort as exc:
        if exc.trajectory is None:
            raise
        sys.stderr.write(f"{label} run aborted: {exc}\n")
        return exc.trajectory, 3


def _default_stride(nsteps):
    """The smallest divisor of nsteps that is at least max(1, nsteps // 10):
    nsteps // 10 where it divides, else a stride giving at most ten
    intervals (a prime count records t = 0 and the end alone)."""
    stride = max(1, nsteps // 10)
    while nsteps % stride:
        stride += 1
    return stride


def _run_1d(p, outdir, label, solve, table, columns, rows_of, diag_columns, diag_of,
            notes_of=lambda state: {}):
    """Run a 1D solver once, with the snapshots of _default_stride unless
    `stride` is set, and write what it recorded: one `table` row per sample
    from rows_of(state), one diagnostics.csv row per snapshot from
    diag_of(state).  Returns the exit code and the manifest notes of the
    first state, notes_of(state)."""
    stride = p["stride"] or _default_stride(step_count(p["dt"], p["T"]))
    traj, code = _evolve(label, lambda: solve(stride))
    rows, diag = [], []
    for t, state in zip(traj.times, traj.states):
        rows.extend((t, idx, *values) for idx, values in enumerate(rows_of(state)))
        diag.append((t, *diag_of(state)))
    write_csv(os.path.join(outdir, table), ["t", "index", *columns], rows)
    write_csv(os.path.join(outdir, "diagnostics.csv"), ["t", *diag_columns], diag)
    return code, notes_of(traj.states[0])


def _resolution_notes(start):
    """The speed deviation of a filament run's resampled input, with a warning
    on stderr where it shows a grid too coarse for the order-4 stencils."""
    deviation = fl.speed_deviation(start)
    if deviation > fl.SPEED_DEVIATION_WARN:
        sys.stderr.write(
            f"warning: speed deviation {deviation:.3g} of the resampled curve is above "
            f"{fl.SPEED_DEVIATION_WARN:g}; the grid is too coarse for its order-4 stencils\n"
        )
    return {"speed_deviation": deviation}


def run_filament(p, outdir):
    curve = _curve_from_params(p)
    return _run_1d(
        p, outdir, "filament",
        lambda stride: fl.evolve_filament(curve, p["dt"], p["T"], stride=stride),
        "trajectory.csv", ["x", "y", "z"], lambda c: c.points,
        ["length", "willmore"], lambda c: (fl.curve_length(c), fl.willmore_1d(c)),
        _resolution_notes,
    )


def run_darios(p, outdir):
    fr = fl.frenet_data(fl.arclength_resample(_curve_from_params(p)))
    return _run_1d(
        p, outdir, "curvature/torsion",
        lambda stride: fl.darios_evolve(fr.kappa, fr.tau, fr.length, p["dt"], p["T"], stride),
        "fields.csv", ["s", "kappa", "tau"], lambda y: zip(fr.s, y[0], y[1]),
        ["willmore"], lambda y: (float(np.sum(y[0] ** 2) * fr.ds),),
    )


def run_nls(p, outdir):
    if p["source"] == "plane":
        if not np.isfinite(p["A"]):
            raise ConfigError(f"A must be finite, got {p['A']}")
        psi, length = np.full(p["M"], p["A"], dtype=complex), p["L"]
    elif p["source"] == "curve":
        fr = fl.frenet_data(fl.arclength_resample(_curve_from_params(p)))
        (psi, holonomy), length = fl.hasimoto(fr), fr.length
        if fl.holonomy_defect(holonomy) > fl.HOLONOMY_TOL:
            sys.stderr.write(
                f"warning: holonomy angle {holonomy:.6g} is not a multiple of 2*pi; "
                "wave samples are the quasi-periodic representative\n"
            )
    else:
        raise ConfigError(f"unknown source {p['source']!r}")
    return _run_1d(
        p, outdir, "wave",
        lambda stride: fl.nls_evolve(psi, length, p["dt"], p["T"], stride),
        "psi.csv", ["re", "im", "abs"], lambda w: ((z.real, z.imag, abs(z)) for z in w),
        ["mass"], lambda w: (fl.mass(np.abs(w) ** 2, length),),
    )


def run_fluid(p, outdir):
    fr = fl.frenet_data(fl.arclength_resample(_curve_from_params(p)))
    rho, v = fl.to_fluid(fr)
    return _run_1d(
        p, outdir, "fluid",
        lambda stride: fl.fluid_evolve(rho, v, fr.length, p["dt"], p["T"], stride),
        "fluid.csv", ["rho", "v"], lambda y: zip(y[0], y[1]),
        ["mass"], lambda y: (fl.mass(y[0], fr.length),),
    )


def run_membrane(p, outdir):
    if p.get("surface_file"):
        imm = dg.load_immersion(p["surface_file"])
    else:
        imm = dg.build_immersion(p["surface"], (p["n1"], p["n2"]), a=p["a"], b=p["b"],
                                 eps=p["eps"], k1=p["k1"], k2=p["k2"])
    traj, code = _evolve("membrane", lambda: mb.evolve_membrane(
        imm, p["dt"], p["T"], stride=p["stride"], order=p["order"]))
    if p["snapshots"]:
        for i, snap in enumerate(traj.states):
            dg.save_immersion(snap, os.path.join(outdir, f"snapshot_{i:04d}.txt"))
    cols = mb.diagnostics(traj, p["order"])
    names = list(cols)
    write_csv(os.path.join(outdir, "diagnostics.csv"), names, zip(*(cols[k] for k in names)))
    return code, {}


def run_crosscheck(p, outdir, tol_scale):
    for key in ("tol", "tol_radii"):
        if not (np.isfinite(p[key]) and p[key] >= 0):
            raise ConfigError(f"{key} must be finite and >= 0, got {p[key]}")
    rows = []
    failed = False
    p = dict(p, tol=p["tol"] * tol_scale, tol_radii=p["tol_radii"] * tol_scale)
    if p["mode"] == "filament-square":
        raw = fl.build_curve("perturbed_circle", p["N"], R=p["R"], eps=p["eps"], k=p["k"])
        run = fl.evolve_filament(raw, p["dt"], p["T"])
        profiles, status = fl.square_profiles(run.states[0], run.final, p["dt"], p["T"],
                                              fl.HOLONOMY_TOL)
        for (u, v), gap in fl.square_gaps(profiles).items():
            if gap is None:
                rows.append((f"{u}/{v}", "nan", _fmt(p["tol"]),
                             f"skipped: {status[u]}; {status[v]}"))
            else:
                ok = gap <= p["tol"]
                failed = failed or not ok
                rows.append((f"{u}/{v}", _fmt(gap), _fmt(p["tol"]), "pass" if ok else "fail"))
    elif p["mode"] == "sphere-membrane":
        imm = dg.torus_immersion(p["a"], p["b"], (p["n1"], p["n2"]))
        traj = mb.evolve_membrane(imm, p["dt"], p["T"], stride=None, order=p["order"])
        a_num, b_num = mb.extract_radii(traj.final)
        ex = sp.closed_form(sp.SphereProductState(1, 1, p["a"], p["b"]), p["T"])
        for name, got, want in [("a", a_num, ex.a), ("b", b_num, ex.b)]:
            gap = abs(got / want - 1.0)
            ok = gap <= p["tol_radii"]
            failed = failed or not ok
            rows.append((f"radius_{name}", _fmt(gap), _fmt(p["tol_radii"]), "pass" if ok else "fail"))
    else:
        raise ConfigError(f"unknown crosscheck mode {p['mode']!r}")
    write_csv(os.path.join(outdir, "crosscheck.csv"), ["pair", "linf_gap", "tol", "status"], rows)
    for row in rows:
        print("  ".join(str(x) for x in row))
    return (1 if failed else 0), {}


def run_validate(p, outdir, tol_scale):
    only = None if p["suite"] == "all" else [s.strip() for s in p["suite"].split(",")]
    results = val.run_all(tol_scale=tol_scale, only=only)
    for r in results:
        print(f"{r.line()}   [{r.seconds:.1f}s]")
    rows = [(r.check_id, r.name, "pass" if r.passed else "fail", r.details) for r in results]
    write_csv(os.path.join(outdir, "validate.csv"), ["check", "name", "status", "details"], rows)
    return (0 if results and all(r.passed for r in results) else 1), {}


RUNNERS = {
    "sphere-run": run_sphere,
    "filament-run": run_filament,
    "darios-run": run_darios,
    "nls-run": run_nls,
    "fluid-run": run_fluid,
    "membrane-run": run_membrane,
}

# the subcommands that compare results with tolerances, which
# --tol-profile strict halves
CHECKERS = {
    "crosscheck": run_crosscheck,
    "validate": run_validate,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewflow",
        description="binormal / skew-mean-curvature flow toolkit",
    )
    parser.add_argument("--version", action="version", version=f"skewflow {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SCHEMAS:
        s = sub.add_parser(name, help=f"{name} (keys: {', '.join(SCHEMAS[name])})")
        s.add_argument("params", nargs="*", help="key=value parameters")
        s.add_argument("--out", default=None, help="output directory (default runs/<subcommand>)")
        s.add_argument("--config", default=None, help="config file with [subcommand] sections")
        s.add_argument("--dt", default=None)
        s.add_argument("--T", default=None)
        s.add_argument("--stride", default=None)
        if name in CHECKERS:
            s.add_argument("--tol-profile", choices=("strict", "default"), default="default")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # 2 for a bad command line, 0 after --help or --version
        return exc.code
    name = args.subcommand
    flag_overrides = {key: getattr(args, key) for key in ("dt", "T", "stride")}
    try:
        params = parse_params(name, args.params, args.config, flag_overrides)
    except (ConfigError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2

    outdir = args.out or os.path.join("runs", name)
    started = time.perf_counter()
    try:
        os.makedirs(outdir, exist_ok=True)
        if name in CHECKERS:
            code, notes = CHECKERS[name](params, outdir,
                                         0.5 if args.tol_profile == "strict" else 1.0)
        else:
            code, notes = RUNNERS[name](params, outdir)
        write_manifest(outdir, name, params, time.perf_counter() - started, notes)
    except ValueError as exc:
        # ConfigError, and domain errors from builders, preconditions and input files
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"numerical abort: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
