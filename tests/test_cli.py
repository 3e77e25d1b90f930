"""End-to-end tests of the command-line front end."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skewflow import cli
from skewflow import diffgeo as dg
from skewflow import filament as fl


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(path, name, cast=float):
    header, rows = read_csv(path)
    i = header.index(name)
    return [cast(r[i]) for r in rows]


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_unknown_key_exits_2(tmp_path, capsys):
    code = cli.main(["sphere-run", "m=1", "l=2", "a=1", "b=1", "bogus=3",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "unknown keys" in capsys.readouterr().err


def test_missing_required_key_exits_2(tmp_path, capsys):
    code = cli.main(["sphere-run", "m=1", "l=2", "a=1", "--out", str(tmp_path)])
    assert code == 2
    assert "missing required" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["m=1.5", "m=inf", "m=-inf", "m=1e999", "m=nan"])
def test_bad_value_exits_2(tmp_path, capsys, m):
    code = cli.main(["sphere-run", m, "l=2", "a=1", "b=1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err


def test_domain_error_exits_2(tmp_path, capsys):
    code = cli.main(["membrane-run", "surface=torus_product", "a=-1", "b=2",
                     "--out", str(tmp_path)])
    assert code == 2


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sphere-run]\nm: 1\nl: 2\na: 1\nb: 1\nmode: fixed\nT: 0.5\n")
    out = tmp_path / "out"
    code = cli.main(["sphere-run", "--config", str(cfg), "--out", str(out),
                     "--dt", "1e-3", "--T", "0.25"])
    assert code == 0
    ts = column(out / "sphere.csv", "t")
    assert abs(ts[-1] - 0.25) < 1e-12


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sphere-run]\nm: 1\nl: 2\na: 1\nb: 1\nT: 0.5\nwhatever: 3\n")
    code = cli.main(["sphere-run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_config_file_without_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m: 1\n")
    code = cli.main(["sphere-run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "no section headers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_sphere_run_to_collapse(tmp_path):
    out = tmp_path / "sphere"
    code = cli.main(["sphere-run", "m=1", "l=2", "a=1", "b=1", "dt=1e-3",
                     "mode=to-collapse", "a_stop=1e-6", "stride=10",
                     "--out", str(out)])
    assert code == 0
    ts = column(out / "sphere.csv", "t")
    a = column(out / "sphere.csv", "a")
    assert abs(ts[-1] - (1.0 - 1e-3)) < 5e-3  # a(t) = (1-t)^2 stops at 1 - sqrt(a_stop)
    assert a[-1] <= 1e-6
    manifest = (out / "manifest.txt").read_text()
    assert "subcommand sphere-run" in manifest
    assert "config_sha256" in manifest


@pytest.mark.parametrize("stride", ["0", "-3"])
def test_sphere_run_stride_below_one_exits_2(tmp_path, capsys, stride):
    code = cli.main(["sphere-run", "m=1", "l=1", "a=1", "b=2", "T=0.01", "dt=1e-3",
                     f"stride={stride}", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "stride" in capsys.readouterr().err


@pytest.mark.parametrize("radii", [("a=nan", "b=1"), ("a=inf", "b=1"), ("a=1", "b=nan")],
                         ids=["a-nan", "a-inf", "b-nan"])
def test_sphere_run_non_finite_radius_exits_2(tmp_path, capsys, radii):
    # NaN fails no `<= 0` test, so the radii are checked for finiteness too
    out = tmp_path / "o"
    code = cli.main(["sphere-run", "m=1", "l=2", *radii, "T=0.01", "dt=1e-3", "--out", str(out)])
    assert code == 2
    assert "radii must be finite and positive" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_filament_run_willmore_column_constant(tmp_path):
    out = tmp_path / "fil"
    code = cli.main(["filament-run", "shape=circle", "R=1", "T=1", "dt=1e-3",
                     "N=128", "--out", str(out)])
    assert code == 0
    w = column(out / "diagnostics.csv", "willmore")
    assert max(abs(x / w[0] - 1.0) for x in w) <= 1e-4


@pytest.mark.parametrize("shape,warns", [
    (["eps=0.3", "k=5", "N=64"], True),      # the wobbly curve: deviation 0.142
    (["eps=0.05", "k=3", "N=256"], False),   # the acceptance curve: 1.9e-7
])
def test_filament_run_reports_its_speed_deviation(tmp_path, capsys, shape, warns):
    out = tmp_path / "fil"
    code = cli.main(["filament-run", "shape=perturbed_circle", "R=1", *shape,
                     "dt=1e-4", "T=1e-3", "--out", str(out)])
    assert code == 0
    notes = dict(line.split(" ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    deviation = float(notes["speed_deviation"])
    assert (deviation > fl.SPEED_DEVIATION_WARN) == warns
    err = capsys.readouterr().err
    assert err.startswith("warning: speed deviation 0.142 ") if warns else err == ""


def test_byte_identical_reruns(tmp_path):
    args = ["sphere-run", "m=1", "l=1", "a=1", "b=2", "dt=1e-3", "T=0.2"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert (out1 / "sphere.csv").read_bytes() == (out2 / "sphere.csv").read_bytes()


def test_nls_run_plane_wave(tmp_path):
    out = tmp_path / "nls"
    code = cli.main(["nls-run", "source=plane", "A=1", "M=64", "T=0.5", "dt=1e-2",
                     "--out", str(out)])
    assert code == 0
    mass = column(out / "diagnostics.csv", "mass")
    assert abs(mass[-1] / mass[0] - 1.0) < 1e-12


def test_fluid_and_darios_runs(tmp_path):
    out = tmp_path / "fluid"
    code = cli.main(["fluid-run", "shape=perturbed_circle", "N=128", "dt=2e-4",
                     "T=0.01", "--out", str(out)])
    assert code == 0
    mass = column(out / "diagnostics.csv", "mass")
    assert abs(mass[-1] / mass[0] - 1.0) < 1e-10

    out2 = tmp_path / "darios"
    code = cli.main(["darios-run", "shape=perturbed_circle", "N=128", "dt=2e-4",
                     "T=0.01", "--out", str(out2)])
    assert code == 0
    header, rows = read_csv(out2 / "fields.csv")
    assert header == ["t", "index", "s", "kappa", "tau"]


def test_membrane_run_snapshots_reload(tmp_path):
    out = tmp_path / "mem"
    code = cli.main(["membrane-run", "surface=torus_product", "a=1", "b=2",
                     "n1=16", "n2=16", "dt=2e-3", "T=0.02", "stride=5",
                     "--out", str(out)])
    assert code == 0
    imm = dg.load_immersion(out / "snapshot_0000.txt")
    assert imm.shape == (16, 16)
    a = np.hypot(imm.points[..., 0], imm.points[..., 1])
    assert np.abs(a - 1.0).max() < 1e-14
    header, _ = read_csv(out / "diagnostics.csv")
    assert header == ["t", "willmore", "volume", "a_extracted", "b_extracted",
                      "max_continuity_residual", "max_momentum_residual", "energy_gap"]


def test_curve_file_input(tmp_path):
    from skewflow import filament as fl

    curve = fl.arclength_resample(fl.perturbed_circle(1.0, 0.05, 3, 128))
    snap = tmp_path / "curve.txt"
    dg.save_immersion(curve, snap)
    out = tmp_path / "fil"
    code = cli.main(["filament-run", "shape=circle", f"curve_file={snap}",
                     "dt=2e-4", "T=0.01", "--out", str(out)])
    assert code == 0
    w = column(out / "diagnostics.csv", "willmore")
    assert abs(w[0] - fl.willmore_1d(curve)) < 1e-5


def test_curve_below_sample_floor_exits_2(tmp_path, capsys):
    code = cli.main(["filament-run", "shape=circle", "N=16", "dt=1e-3", "T=0.01",
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "need at least 32 samples, got 16" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["filament-run", "darios-run"])
def test_membrane_snapshot_as_curve_file_exits_2(tmp_path, capsys, sub):
    snap = tmp_path / "torus.txt"
    dg.save_immersion(dg.torus_immersion(1.0, 2.0, (16, 16)), snap)
    code = cli.main([sub, "shape=circle", f"curve_file={snap}", "dt=1e-3", "T=0.01",
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "need a dim-1 immersion in R^3, got dim=2" in capsys.readouterr().err


def test_curve_snapshot_as_surface_file_exits_2(tmp_path, capsys):
    snap = tmp_path / "circle.txt"
    dg.save_immersion(fl.circle_curve(1.0, 64), snap)
    out = tmp_path / "o"
    code = cli.main(["membrane-run", "surface=torus_product", "a=1", "b=2",
                     f"surface_file={snap}", "dt=1e-3", "T=0.01", "--out", str(out)])
    assert code == 2
    assert "need a dim-2 immersion in R^4, got dim=1" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_membrane_run_circle_surface_exits_2(tmp_path):
    code = cli.main(["membrane-run", "surface=circle", "a=1", "b=2", "dt=1e-3", "T=0.01",
                     "--out", str(tmp_path / "o")])
    assert code == 2


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------

def test_crosscheck_filament_square(tmp_path):
    out = tmp_path / "cc"
    code = cli.main(["crosscheck", "mode=filament-square", "N=128", "dt=2e-4",
                     "T=0.02", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "crosscheck.csv")
    assert header == ["pair", "linf_gap", "tol", "status"]
    assert all(r[3] == "pass" for r in rows)
    assert len(rows) == 6


def test_crosscheck_filament_square_resamples_once(tmp_path, monkeypatch):
    # the filament run's first state is the curve the other corners start
    # from: the run resamples its input and nothing after it
    from skewflow import filament as fl

    calls = [0]
    resample = fl.arclength_resample

    def counted(curve):
        calls[0] += 1
        return resample(curve)

    monkeypatch.setattr(fl, "arclength_resample", counted)
    code = cli.main(["crosscheck", "mode=filament-square", "N=128", "dt=2e-4",
                     "T=0.02", "--out", str(tmp_path / "cc")])
    assert code == 0
    assert calls[0] == 1


def test_crosscheck_degenerate_marks_singular_exit_zero(tmp_path):
    # eps (1 + k^2) = 1: curvature touches zero, the curvature/torsion and
    # fluid corners abort, the wave corner survives, exit stays 0
    out = tmp_path / "ccd"
    code = cli.main(["crosscheck", "mode=filament-square", "eps=0.1", "k=3",
                     "N=256", "dt=1e-4", "T=0.05", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "crosscheck.csv")
    status = {r[0]: r[3] for r in rows}
    assert "singular" in status["filament/darios"]
    assert status["filament/nls"] == "pass"


def test_crosscheck_sphere_membrane(tmp_path):
    out = tmp_path / "ccm"
    code = cli.main(["crosscheck", "mode=sphere-membrane", "a=1", "b=2",
                     "n1=16", "n2=16", "dt=1e-3", "T=0.02", "order=2",
                     "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "crosscheck.csv")
    assert {r[0] for r in rows} == {"radius_a", "radius_b"}
    assert all(r[3] == "pass" for r in rows)


def test_crosscheck_strict_profile_halves_the_tolerances(tmp_path):
    args = ["crosscheck", "mode=sphere-membrane", "a=1", "b=2", "n1=16", "n2=16",
            "dt=1e-3", "T=0.02", "order=2"]
    tols = []
    for name, flags in [("default", []), ("strict", ["--tol-profile", "strict"])]:
        assert cli.main(args + flags + ["--out", str(tmp_path / name)]) == 0
        tols.append(column(tmp_path / name / "crosscheck.csv", "tol"))
    assert tols[0] == [1e-2, 1e-2]
    assert tols[1] == [0.5 * t for t in tols[0]]


# ---------------------------------------------------------------------------
# validate subcommand (cheap subset; the full suite runs in test_acceptance)
# ---------------------------------------------------------------------------

def test_validate_subset(tmp_path, capsys):
    out = tmp_path / "val"
    code = cli.main(["validate", "suite=1,2,12", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert captured.count("PASS") == 3
    header, rows = read_csv(out / "validate.csv")
    assert [r[2] for r in rows] == ["pass"] * 3


def test_validate_strict_profile_halves_the_tolerance(tmp_path, capsys):
    code = cli.main(["validate", "suite=12", "--tol-profile", "strict",
                     "--out", str(tmp_path / "val")])
    assert code == 0
    assert "tol 5e-11" in capsys.readouterr().out


def test_tol_profile_only_on_the_checking_subcommands(tmp_path, capsys):
    code = cli.main(["filament-run", "shape=circle", "N=64", "dt=1e-3", "T=0.01",
                     "--tol-profile", "strict", "--out", str(tmp_path / "fil")])
    assert code == 2
    assert "--tol-profile" in capsys.readouterr().err
    assert not (tmp_path / "fil").exists()


@pytest.mark.parametrize("flag", [["--dt", "5"], ["--T", "1"], ["--stride", "3"]])
def test_validate_rejects_step_flags(tmp_path, capsys, flag):
    code = cli.main(["validate", "suite=12", *flag, "--out", str(tmp_path / "val")])
    assert code == 2
    assert f"unknown keys for validate: {flag[0][2:]}" in capsys.readouterr().err
    assert not (tmp_path / "val").exists()


def test_missing_subcommand_returns_2(capsys):
    assert cli.main([]) == 2
    assert "required: subcommand" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_return_0(flag, capsys):
    assert cli.main([flag]) == 0
    assert "skewflow" in capsys.readouterr().out


def _child_env():
    """The environment of a child python that imports this checkout's package:
    its src directory, then the inherited PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_entry_point_version():
    res = subprocess.run(
        [sys.executable, "-m", "skewflow.cli", "--version"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert res.returncode == 0
    assert "skewflow" in res.stdout


def test_cli_import_loads_no_scipy():
    # every CLI call pays this import before it does any work
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, skewflow.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# exit codes and what an abort leaves behind
# ---------------------------------------------------------------------------

def test_an_overflowing_nls_run_aborts_on_one_line_and_writes_inf(tmp_path):
    # |psi|^2 of a 1e160 sample overflows: the run aborts after its first step
    # and its t = 0 mass is inf, with no numpy warning on stderr (a child
    # process, so that stderr is the program's own)
    out = tmp_path / "nls"
    res = subprocess.run(
        [sys.executable, "-m", "skewflow.cli", "nls-run", "source=plane", "A=1e160", "M=64",
         "dt=1e-3", "T=0.01", "--out", str(out)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert res.returncode == 3
    assert res.stderr == "wave run aborted: state became non-finite (aborted at t=0.001)\n"
    assert column(out / "diagnostics.csv", "t") == [0.0]
    assert column(out / "diagnostics.csv", "mass") == [np.inf]


@pytest.mark.parametrize("args,message", [
    (["filament-run", "shape=circle", "N=64", "dt=-1e-3", "T=0.01"], "dt must be finite and > 0"),
    (["filament-run", "shape=circle", "N=64", "dt=1e-3", "T=-0.01"], "T must be finite and >= 0"),
    (["filament-run", "shape=circle", "N=64", "dt=nan", "T=0.01"], "dt must be finite and > 0"),
    (["membrane-run", "surface=torus_product", "a=1", "b=2", "n1=16", "n2=16", "dt=-1e-3",
      "T=0.01"], "dt must be finite and > 0"),
    (["darios-run", "shape=perturbed_circle", "N=64", "dt=-1e-4"], "dt must be finite and > 0"),
    (["fluid-run", "shape=perturbed_circle", "N=64", "T=-0.001"], "T must be finite and >= 0"),
    (["nls-run", "source=plane", "M=64", "dt=-1e-3"], "dt must be finite and > 0"),
    (["sphere-run", "m=1", "l=1", "a=1", "b=2", "T=-0.01"], "T must be finite and >= 0"),
    (["sphere-run", "m=1", "l=1", "a=1", "b=2", "T=0.01", "dt=nan"], "dt must be finite and > 0"),
], ids=["filament-dt", "filament-T", "filament-nan", "membrane-dt", "darios-dt", "fluid-T",
        "nls-dt", "sphere-T", "sphere-nan"])
def test_bad_step_or_horizon_exits_2(tmp_path, capsys, args, message):
    out = tmp_path / "o"
    code = cli.main(args + ["--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def _abort_time(err):
    return float(re.search(r"aborted at t=([-0-9.e+]+)", err).group(1))


@pytest.mark.parametrize("sub,table", [("darios-run", "fields.csv"), ("fluid-run", "fluid.csv")])
def test_abort_time_is_absolute(tmp_path, capsys, sub, table):
    # dt=1e-3 is far above what N=256 tolerates: the run breaks down within
    # a few steps, each recorded (stride=1) until the first failing state
    out = tmp_path / "run"
    code = cli.main([sub, "shape=perturbed_circle", "N=256", "dt=1e-3", "T=1",
                     "stride=1", "--out", str(out)])
    assert code == 3
    times = sorted(set(column(out / table, "t")))
    assert column(out / "diagnostics.csv", "t") == times
    assert times[0] == 0.0 and len(times) >= 2
    assert abs(_abort_time(capsys.readouterr().err) - (times[-1] + 1e-3)) < 1e-9


@pytest.mark.parametrize("args", [
    ["darios-run", "shape=perturbed_circle", "N=64"],
    ["fluid-run", "shape=perturbed_circle", "N=64"],
    ["nls-run", "source=plane", "M=64"],
    ["filament-run", "shape=perturbed_circle", "N=64"],
])
def test_horizon_not_a_multiple_of_stride_exits_2(tmp_path, capsys, args):
    # 203 steps and a stride set to 20, which does not divide them
    code = cli.main(args + ["dt=1e-4", "T=0.0203", "stride=20", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "stride" in capsys.readouterr().err


@pytest.mark.parametrize("nsteps,stride", [(0, 1), (1, 1), (9, 1), (19, 1), (20, 2), (23, 23),
                                           (25, 5), (203, 29), (1000, 100), (1009, 1009)])
def test_default_stride_is_the_smallest_divisor_from_a_tenth(nsteps, stride):
    assert cli._default_stride(nsteps) == stride


def test_default_stride_divides_and_leaves_at_most_ten_intervals_where_a_tenth_does_not():
    for n in range(1000):
        stride = cli._default_stride(n)
        tenth = max(1, n // 10)
        assert n % stride == 0 and stride >= tenth
        assert all(n % d for d in range(tenth, stride))
        if n % tenth:
            assert n // stride <= 10


@pytest.mark.parametrize("args,table,times", [
    # 25 steps: stride 5, where the old default 25 // 10 = 2 did not divide
    (["filament-run", "shape=circle", "R=1", "N=128", "dt=1e-3", "T=0.025"], "trajectory.csv",
     [0.0, 0.005, 0.01, 0.015, 0.02, 0.025]),
    (["darios-run", "shape=perturbed_circle", "N=128", "dt=1e-4", "T=0.0025"], "fields.csv",
     [0.0, 5e-4, 1e-3, 1.5e-3, 2e-3, 2.5e-3]),
    (["fluid-run", "shape=perturbed_circle", "N=128", "dt=1e-4", "T=0.0025"], "fluid.csv",
     [0.0, 5e-4, 1e-3, 1.5e-3, 2e-3, 2.5e-3]),
    # 23 steps, a prime count: the input and the end alone
    (["nls-run", "source=plane", "M=64", "dt=1e-3", "T=0.023"], "psi.csv", [0.0, 0.023]),
    # no step: the input alone
    (["darios-run", "shape=perturbed_circle", "N=64", "dt=1e-4", "T=0"], "fields.csv", [0.0]),
], ids=["filament-25", "darios-25", "fluid-25", "nls-23", "darios-0"])
def test_default_stride_divides_the_step_count(tmp_path, args, table, times):
    out = tmp_path / "o"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert column(out / "diagnostics.csv", "t") == pytest.approx(times, abs=1e-15)
    assert sorted(set(column(out / table, "t"))) == column(out / "diagnostics.csv", "t")


def test_membrane_frame_breakdown_exits_3_with_earlier_snapshots(tmp_path, monkeypatch):
    from skewflow import membrane as mb
    from skewflow.errors import DegenerateImmersionError

    original, calls = mb.smc_rhs, [0]

    def failing(*args, **kwargs):
        calls[0] += 1
        if calls[0] > 4 * 25:  # four stages per step: step 26 fails
            raise DegenerateImmersionError((0, 0), 0.0)
        return original(*args, **kwargs)

    monkeypatch.setattr(mb, "smc_rhs", failing)
    out = tmp_path / "mem"
    code = cli.main(["membrane-run", "surface=torus_product", "a=1", "b=2", "n1=16", "n2=16",
                     "dt=1e-3", "T=0.05", "stride=10", "--out", str(out)])
    assert code == 3
    assert sorted(p.name for p in out.glob("snapshot_*")) == [
        "snapshot_0000.txt", "snapshot_0001.txt", "snapshot_0002.txt"]
    assert column(out / "diagnostics.csv", "t") == pytest.approx([0.0, 0.01, 0.02])
    first = dg.load_immersion(out / "snapshot_0000.txt")
    assert np.array_equal(first.points, dg.torus_immersion(1.0, 2.0, (16, 16)).points)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_membrane_non_finite_stage_exits_3_with_earlier_snapshots(tmp_path, capsys, monkeypatch):
    from skewflow import membrane as mb

    original, calls = mb.smc_rhs, [0]

    def poisoned(*args, **kwargs):
        calls[0] += 1
        v = original(*args, **kwargs)
        if calls[0] == 4 * 3 + 2:  # second stage of step 4
            v = v.copy()
            v[0, 2, 2] = np.inf  # an interior point of the padded planes
        return v

    monkeypatch.setattr(mb, "smc_rhs", poisoned)
    out = tmp_path / "mem"
    code = cli.main(["membrane-run", "surface=torus_product", "a=1", "b=2", "n1=16", "n2=16",
                     "dt=1e-3", "T=0.01", "stride=2", "--out", str(out)])
    assert code == 3
    assert sorted(p.name for p in out.glob("snapshot_*")) == [
        "snapshot_0000.txt", "snapshot_0001.txt"]
    assert column(out / "diagnostics.csv", "t") == pytest.approx([0.0, 0.002])
    assert abs(_abort_time(capsys.readouterr().err) - 0.004) < 1e-12


@pytest.mark.parametrize("args", [
    ["filament-run", "shape=circle", "N=64"],
    ["membrane-run", "surface=torus_product", "a=1", "b=2", "n1=16", "n2=16"],
])
def test_negative_stride_exits_2(tmp_path, capsys, args):
    out = tmp_path / "o"
    code = cli.main(args + ["dt=1e-3", "T=0.01", "stride=-5", "--out", str(out)])
    assert code == 2
    assert "stride must be >= 0" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("grid,message", [
    (["M=0"], "grid size must be a power of two, got 0"),
    (["M=8", "L=0"], "domain length L must be finite and > 0, got 0.0"),
    (["M=8", "L=-1"], "domain length L must be finite and > 0, got -1.0"),
    (["M=8", "L=inf"], "domain length L must be finite and > 0, got inf"),
    (["M=8", "L=nan"], "domain length L must be finite and > 0, got nan"),
], ids=["M-0", "L-0", "L-negative", "L-inf", "L-nan"])
def test_nls_run_bad_grid_exits_2(tmp_path, capsys, grid, message):
    # M=0 passes the bit test of a power of two (0 & -1 == 0), and an L of
    # 0 divides by zero in the wave numbers: both are checked on entry
    out = tmp_path / "o"
    code = cli.main(["nls-run", *grid, "T=0.01", "dt=1e-3", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("args,message", [
    (["filament-run", "shape=circle", "N=64", "reparam_every=10", "dt=1e-3", "T=0.01"],
     "unknown keys for filament-run: reparam_every"),
    (["sphere-run", "m=1", "l=2", "a=1", "b=1", "mode=to-collapse", "a_stop=-1", "dt=1e-2"],
     "a_stop must be finite and > 0, got -1.0"),
    (["sphere-run", "m=1", "l=2", "a=1", "b=1", "mode=to-collapse", "a_stop=nan", "dt=1e-2"],
     "a_stop must be finite and > 0, got nan"),
], ids=["reparam-unknown", "a_stop-negative", "a_stop-nan"])
def test_key_that_can_only_misbehave_exits_2(tmp_path, capsys, args, message):
    # the filament runs resample only their input, so a resampling cadence
    # is no key, and a run to collapse never reaches an a_stop <= 0 or NaN
    out = tmp_path / "o"
    code = cli.main(args + ["--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("args,message", [
    (["membrane-run", "surface=torus_product", "a=1", "b=2", "n1=0", "n2=16", "stride=1"],
     "grid sizes must be >= 8, got (0, 16)"),
    (["membrane-run", "surface=torus_product", "a=1", "b=2", "n1=-8", "n2=16", "stride=1"],
     "grid sizes must be >= 8, got (-8, 16)"),
    (["filament-run", "shape=circle", "R=1", "N=-8"], "grid sizes must be >= 8, got (-8,)"),
], ids=["membrane-n1-0", "membrane-n1-negative", "filament-N-negative"])
def test_bad_grid_size_exits_2_naming_it(tmp_path, capsys, args, message):
    # n1=0 divided by zero in the surface builder's parameter grid, and a
    # negative size was reported as the shape of the empty grid it built
    out = tmp_path / "o"
    code = cli.main(args + ["dt=1e-3", "T=0.002", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(out.glob("*"))


@pytest.mark.parametrize("order", [3, 6])
@pytest.mark.parametrize("args", [
    ["membrane-run", "surface=torus_product", "a=1", "b=2", "stride=1"],
    ["crosscheck", "mode=sphere-membrane"],
], ids=["membrane-run", "crosscheck"])
def test_bad_finite_difference_order_exits_2(tmp_path, capsys, args, order):
    out = tmp_path / "o"
    code = cli.main(args + ["n1=16", "n2=16", "dt=1e-3", "T=0.002", f"order={order}",
                            "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: finite-difference order must be 2 or 4, got {order}\n")
    assert not list(out.glob("*.csv"))


def test_filament_run_has_no_scheme_key(tmp_path, capsys):
    code = cli.main(["filament-run", "shape=circle", "N=64", "dt=1e-3", "T=0.01",
                     "scheme=spectral", "--out", str(tmp_path / "fil")])
    assert code == 2
    assert "unknown keys for filament-run: scheme" in capsys.readouterr().err
    assert not (tmp_path / "fil").exists()


def test_filament_abort_writes_recorded_trajectory(tmp_path, capsys, monkeypatch):
    from skewflow import filament as fl

    calls = [0]

    def distance(points):
        calls[0] += 1
        return 0.0 if calls[0] == 4 else 1.0  # checks at t=0, 0.01, 0.02 pass

    monkeypatch.setattr(fl, "min_nonneighbor_distance", distance)
    out = tmp_path / "fil"
    code = cli.main(["filament-run", "shape=perturbed_circle", "N=64", "dt=1e-3", "T=0.05",
                     "stride=10", "--out", str(out)])
    assert code == 3
    assert sorted(set(column(out / "trajectory.csv", "t"))) == pytest.approx([0.0, 0.01, 0.02])
    assert column(out / "diagnostics.csv", "t") == pytest.approx([0.0, 0.01, 0.02])
    assert abs(_abort_time(capsys.readouterr().err) - 0.03) < 1e-12


def _close_strands(tmp_path):
    # a crushed ellipse: after resampling, strands across it lie 0.0042 apart,
    # under d_min = 0.0083
    u = 2.0 * np.pi * np.arange(96) / 96
    pts = np.stack([np.cos(u), 0.005 * np.sin(u), 0.002 * np.sin(3.0 * u)], axis=-1)
    dg.save_immersion(dg.GridImmersion(pts, (2.0 * np.pi,)), tmp_path / "close.txt")
    return ["filament-run", "shape=circle", f"curve_file={tmp_path / 'close.txt'}",
            "dt=2e-4", "T=0.02"]


@pytest.mark.parametrize("args,table,samples,message", [
    (lambda tmp: ["fluid-run", "shape=perturbed_circle", "R=1", "eps=0.1", "k=3", "N=256",
                  "dt=1e-4", "T=0.05"], "fluid.csv", 256, "density touched rho_min"),
    (_close_strands, "trajectory.csv", 96, "non-neighbor samples closer than d_min"),
], ids=["fluid-vacuum", "filament-close-strands"])
def test_an_abort_on_the_input_writes_the_input(tmp_path, capsys, args, table, samples, message):
    # the input guard trips before the first step; the run still writes its t = 0 state
    out = tmp_path / "run"
    code = cli.main(args(tmp_path) + ["--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert message in err and _abort_time(err) == 0.0
    assert column(out / table, "t") == [0.0] * samples
    assert column(out / "diagnostics.csv", "t") == [0.0]
    assert (out / "manifest.txt").exists()


@pytest.mark.parametrize("args,message", [
    (lambda tmp: ["fluid-run", "shape=perturbed_circle", "R=1", "eps=0.1", "k=3", "N=256",
                  "dt=1e-4", "T=5e-4", "stride=3"], "multiple of the output stride"),
    (lambda tmp: _close_strands(tmp)[:-2] + ["dt=1e-2", "T=0.02"], "stability bound"),
], ids=["fluid-stride", "filament-stability"])
def test_a_bad_configuration_exits_2_before_the_input_guard_runs(tmp_path, capsys, args,
                                                                  message):
    # the inputs of the test above trip their guards, but the configuration
    # error comes first
    code = cli.main(args(tmp_path) + ["--out", str(tmp_path / "run")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_sphere_run_collapse_abort_writes_recorded_rows(tmp_path, capsys):
    # a(t) = (1 - t)^2 collapses at t* = 1 < T: the step halving underflows there
    out = tmp_path / "sphere"
    code = cli.main(["sphere-run", "m=1", "l=2", "a=1", "b=1", "mode=fixed", "T=2",
                     "dt=1e-2", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("warning: T=2 reaches the step halving before the collapse at t=1;")
    t_abort = _abort_time(err)
    assert abs(t_abort - 1.0) < 1e-3
    ts = column(out / "sphere.csv", "t")
    assert ts[0] == 0.0 and len(ts) > 100
    assert all(t1 < t2 for t1, t2 in zip(ts, ts[1:]))
    assert abs(ts[-1] - t_abort) < 1e-6
    assert min(column(out / "sphere.csv", "a")) > 0.0


@pytest.mark.parametrize("config", [
    ["m=1", "l=1", "a=1", "b=2", "T=1.0", "dt=1e-3", "stride=100"],
    ["m=1", "l=2", "a=1", "b=1", "dt=1e-4", "mode=to-collapse", "a_stop=1e-10"],
    ["m=1", "l=2", "a=1", "b=1", "dt=1e-4", "mode=to-collapse", "a_stop=1e-10", "stride=7"],
], ids=["fixed", "to-collapse", "to-collapse-stride-7"])
def test_sphere_runs_short_of_the_step_halving_do_not_warn(tmp_path, capsys, config):
    out = tmp_path / "sphere"
    assert cli.main(["sphere-run", *config, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    notes = dict(line.split(" ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    assert ("collapse_time" in notes) == ("T=1.0" in config)


def test_degenerate_surface_file_exits_2(tmp_path, capsys):
    imm = dg.torus_immersion(1.0, 1.0, (16, 16))
    snap = tmp_path / "flat.txt"
    dg.save_immersion(dg.GridImmersion(imm.points * [1, 1, 1e-6, 1e-6], imm.param_periods), snap)
    code = cli.main(["membrane-run", "surface=torus_product", "a=1", "b=1",
                     f"surface_file={snap}", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "degenerate immersion" in capsys.readouterr().err


def test_headerless_surface_file_exits_2(tmp_path, capsys):
    snap = tmp_path / "bare.txt"
    snap.write_text("1 0 2 0\n0 1 0 2\n")
    code = cli.main(["membrane-run", "surface=torus_product", "a=1", "b=2",
                     f"surface_file={snap}", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "'dim'" in capsys.readouterr().err


def test_surface_file_with_ragged_rows_exits_2(tmp_path, capsys):
    snap = tmp_path / "ragged.txt"
    dg.save_immersion(dg.torus_immersion(1.0, 2.0, (16, 16)), snap)
    lines = snap.read_text().splitlines()
    first, second = lines[4].split(), lines[5].split()
    lines[4], lines[5] = " ".join(first[:3]), " ".join([first[3]] + second)
    snap.write_text("\n".join(lines) + "\n")
    code = cli.main(["membrane-run", "surface=torus_product", "a=1", "b=2",
                     f"surface_file={snap}", "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: snapshot {snap}" in capsys.readouterr().err


@pytest.mark.parametrize("periods", ["-6.2831853071795862 6.2831853071795862",
                                     "0 6.2831853071795862"])
def test_bad_param_periods_in_surface_file_exit_2(tmp_path, capsys, periods):
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (32, 32))
    snap = tmp_path / "bad.txt"
    dg.save_immersion(imm, snap)
    lines = snap.read_text().splitlines()
    assert lines[2].startswith("param_periods ")
    lines[2] = f"param_periods {periods}"
    snap.write_text("\n".join(lines) + "\n")
    code = cli.main(["membrane-run", "surface=torus_product", "a=1", "b=2",
                     f"surface_file={snap}", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "param_periods" in capsys.readouterr().err


def test_validate_csv_reads_back(tmp_path, capsys):
    out = tmp_path / "val"
    assert cli.main(["validate", "suite=1,12", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    with open(out / "validate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["check"] for r in rows] == ["1-collapse-time", "12-nls-invariants"]
    for r in rows:
        assert None not in r and r["status"] == "pass"
        assert f"{r['check']:<22s} {r['details']}   [" in printed


def test_write_csv_numeric_template_matches_csv_writer(tmp_path):
    # the "%.17g" row template of a numeric table gives the bytes of csv.writer
    # over cli._fmt's cells: ints up to 2^53 (a larger int goes through a float),
    # NaN, both infinities, -0.0, subnormals and 17-digit floats
    rows = [
        (0, 7, 0.1, -0.0),
        (np.int64(12), 2 ** 53 - 1, np.nan, np.inf),
        (np.float64(1 / 3), -np.inf, 1e-310, -2.5e300),
        (2, np.float64(-0.0), 5e-324, 123456789.123456789),
    ]
    path = tmp_path / "t.csv"
    cli.write_csv(path, ["a", "b", "c", "d"], iter(rows))
    expected = "a,b,c,d\n" + "".join(",".join(cli._fmt(x) for x in row) + "\n" for row in rows)
    assert path.read_text() == expected
    assert expected.splitlines()[2] == "12,9007199254740991,nan,inf"
    assert expected.splitlines()[1].endswith(",-0")
    cli.write_csv(path, ["a", "b"], [])
    assert path.read_text() == "a,b\n"


@pytest.mark.parametrize("rows", [
    [(0, 2 ** 53 + 1), (np.int64(-(2 ** 62) - 1), 0.5)],   # ints a float would round
    [(1.0, 2.0, 3.0), (4.0,)],                             # rows of other lengths
    [(1.0,), (2.0, 3.0, 4.0)],
])
def test_write_csv_writes_rows_the_template_cannot_as_given(tmp_path, rows):
    path = tmp_path / "t.csv"
    cli.write_csv(path, ["a", "b"], rows)
    expected = "a,b\n" + "".join(",".join(cli._fmt(x) for x in row) + "\n" for row in rows)
    assert path.read_text() == expected


def test_write_csv_quotes_only_when_needed(tmp_path):
    path = tmp_path / "t.csv"
    cli.write_csv(path, ["a", "b"], [(0.5, 'x, "y"'), (2, "z")])
    assert path.read_text() == 'a,b\n0.5,"x, ""y"""\n2,z\n'


@pytest.mark.parametrize("args,message", [
    (["nls-run", "source=plane", "A=nan"], "A must be finite, got nan"),
    (["nls-run", "source=plane", "A=inf"], "A must be finite, got inf"),
    (["crosscheck", "mode=sphere-membrane", "tol_radii=nan"],
     "tol_radii must be finite and >= 0, got nan"),
    (["crosscheck", "mode=sphere-membrane", "tol_radii=inf"],
     "tol_radii must be finite and >= 0, got inf"),
    (["crosscheck", "mode=filament-square", "tol=-1e-3"],
     "tol must be finite and >= 0, got -0.001"),
    (["validate", "suite=99"],
     "no check has the id '99'; the ids are 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12"),
    (["validate", "suite=12,foo"],
     "no check has the id 'foo'; the ids are 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12"),
], ids=["nls-A-nan", "nls-A-inf", "tol_radii-nan", "tol_radii-inf", "tol-negative",
        "suite-99", "suite-12-foo"])
def test_a_bad_value_exits_2_before_anything_runs(tmp_path, capsys, args, message):
    # an NLS plane wave of amplitude nan used to abort as non-finite at t = 0
    # (exit 3); a nan tolerance marked every crosscheck row failed (exit 1);
    # an unknown suite id gave an empty report (exit 1) or was dropped (exit 0)
    out = tmp_path / "o"
    code = cli.main(args + ["--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""
    assert not list(out.glob("*"))
