"""Tests of tools/bench_json.py on hand-made result sets of compare.py pairs."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"
_spec = importlib.util.spec_from_file_location("bench_json", TOOL)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)


def _records(workload, walls, failed=0):
    return [{"workload": workload, "seed": 100 + i,
             "result": {"correct": True, "attempted": 10, "failed": failed,
                        "metrics": {"wall_s": {"value": w, "unit": "s"},
                                    "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}}
            for i, w in enumerate(walls)]


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_bench_file_holds_quartiles_wins_and_verdicts(tmp_path):
    parent = [1.0 + 0.01 * i for i in range(10)]
    faster = [0.8 + 0.01 * i for i in range(10)]
    _write(tmp_path / "parent.jsonl", _records("filament-square", parent)
           + _records("validate", parent))
    # the same gain on validate, with more failed operations: not counted
    _write(tmp_path / "change.jsonl", _records("filament-square", faster)
           + _records("validate", faster, failed=1))
    out = tmp_path / "BENCH.json"
    assert bench_json.main([str(tmp_path), str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["seeds"] == list(range(100, 110))
    assert bench["host"]["cpus"] >= 1
    rows = {(w["workload"], m["metric"]): (w, m) for w in bench["workloads"]
            for m in w["metrics"]}
    workload, wall = rows[("filament-square", "wall_s")]
    assert wall["verdict"] == "better" and wall["change_wins"] == wall["pairs"] == 10
    assert wall["parent"]["median"] == bench_json.compare.quartiles(parent)[1]
    assert workload["operations"]["change"] == {"runs": 10, "attempted": 100, "failed": 0}
    assert rows[("filament-square", "peak_rss_mb")][1]["verdict"] == "no-worse"
    assert rows[("validate", "wall_s")][1]["verdict"].startswith("no-worse (gain not counted")
    assert ("membrane-evolve", "wall_s") not in rows   # no runs of it in either set
