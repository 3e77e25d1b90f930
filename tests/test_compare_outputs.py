"""Tests of tools/compare_outputs.py on small hand-made output trees."""

import importlib.util
import io
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

SNAPSHOT_HEADER = "dim 1\nshape 2\nparam_periods 6.2831853071795862\nambient 3\n"


def _tree(root, willmore="104.5", snapshot_x="1.0", status="pass", verdict="PASS"):
    files = {
        "membrane/diagnostics.csv": f"t,willmore,energy_gap\n0,{willmore},nan\n0.01,105.25,1e-3\n",
        "membrane/snapshot_0000.txt": SNAPSHOT_HEADER + f"{snapshot_x} 0 0\n-1 0 0\n",
        "membrane/manifest.txt": "wall_s 1.234\n",
        "validate/validate.csv": f'check,status,details\n1-a,{status},"gap 1e-3, tol 1e-2"\n',
        "validate/stdout.txt": f"{verdict}  1-a   gap 1e-3 (tol 1e-2)\n",
    }
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _run(a, b):
    out = io.StringIO()
    mismatches = compare_outputs.compare(str(a), str(b), out)
    return mismatches, out.getvalue()


def test_roundoff_differences_are_reported_per_column_and_snapshot(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", willmore="104.50000000000001", snapshot_x="1.0000000000000002")
    (b / "membrane" / "manifest.txt").write_text("wall_s 9.9\n")
    mismatches, text = _run(a, b)
    assert mismatches == []
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in text.splitlines()[1:]}
    abs_gap, rel_gap = map(float, rows[("membrane/diagnostics.csv", "willmore")])
    assert abs_gap == pytest.approx(1.42e-14, rel=0.01)
    assert rel_gap == pytest.approx(abs_gap / 104.5, rel=0.01)
    assert list(map(float, rows[("membrane/diagnostics.csv", "energy_gap")])) == [0.0, 0.0]
    abs_gap, _ = map(float, rows[("membrane/snapshot_0000.txt", "(coordinates)")])
    assert abs_gap == pytest.approx(2.2e-16, rel=0.01)
    assert not any("manifest" in line for line in text.splitlines())
    assert compare_outputs.main([str(a), str(b)]) == 0


@pytest.mark.parametrize("break_tree,what", [
    (lambda b: (b / "membrane" / "snapshot_0000.txt").unlink(), "only in"),
    (lambda b: (b / "membrane" / "diagnostics.csv").write_text("t,W,energy_gap\n0,1,nan\n0.01,1,1\n"),
     "header differs"),
    (lambda b: (b / "membrane" / "diagnostics.csv").write_text("t,willmore,energy_gap\n0,104.5,nan\n"),
     "row count"),
    (lambda b: (b / "membrane" / "diagnostics.csv").write_text(
        "t,willmore,energy_gap\n0,104.5,nan\n0.01,105.25,nan\n"), "NaN in different places"),
    (lambda b: _tree(b, status="fail"), "status flips"),
    (lambda b: _tree(b, verdict="FAIL"), "flipped: 1-a"),
    (lambda b: (b / "membrane" / "snapshot_0000.txt").write_text(
        SNAPSHOT_HEADER.replace("6.28", "3.14") + "1 0 0\n-1 0 0\n"), "snapshot header"),
])
def test_structural_mismatches_exit_1(tmp_path, capsys, break_tree, what):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b")
    break_tree(b)
    mismatches, _ = _run(a, b)
    assert len(mismatches) == 1 and what in mismatches[0]
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def _report(root, gap, status="pass"):
    # the report crosscheck prints, kept beside its CSV as collect_outputs.sh does
    root.mkdir(parents=True, exist_ok=True)
    (root / "crosscheck_square.stdout").write_text(
        f"filament/darios  {gap}  0.0050000000000000001  {status}\n"
        "darios/fluid  nan  0.0050000000000000001  skipped: singular (VacuumAbort); ok\n")
    return root


def test_crosscheck_reports_are_compared_column_by_column(tmp_path):
    a = _report(tmp_path / "a", "4.5576875606911926e-12")
    b = _report(tmp_path / "b", "4.5574655160862676e-12")
    mismatches, text = _run(a, b)
    assert mismatches == []
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in text.splitlines()[1:]}
    abs_gap, _ = map(float, rows[("crosscheck_square.stdout", "linf_gap")])
    assert abs_gap == pytest.approx(2.22e-16, rel=0.01)
    assert rows[("crosscheck_square.stdout", "status")] == ["same"]
    assert compare_outputs.main([str(a), str(b)]) == 0
    flipped = _report(tmp_path / "c", "4.5574655160862676e-12", status="fail")
    mismatches, _ = _run(a, flipped)
    assert len(mismatches) == 1 and "1 status flips" in mismatches[0]
