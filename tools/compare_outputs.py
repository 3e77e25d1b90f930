#!/usr/bin/env python3
"""Compare two output trees written by tools/collect_outputs.sh.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

For a change that moves results by roundoff rather than leaving them byte
identical.  Prints, for each numeric CSV column and each snapshot file, the
largest absolute difference and the largest relative difference
|a - b| / max(|a|, |b|) between the two trees.  Text columns and the
validate lines are compared by their pass/fail status only.

Exits 1 on a structural mismatch: a file present on one side only, a
different CSV header, row count or snapshot header, NaN in different
places, a validate PASS/FAIL flip, or an unrecognised file whose bytes
differ.  manifest.txt files hold timings and are skipped.  A crosscheck
report kept as `*.stdout` is the two-space-separated twin of its
crosscheck.csv and is compared column by column the same way.  Exits 0
otherwise, whatever the size of the differences.
"""

import csv
import math
import os
import sys

SKIPPED = {"manifest.txt"}
STATUS_COLUMNS = {"status"}
CROSSCHECK_COLUMNS = ["pair", "linf_gap", "tol", "status"]


def _files(root):
    found = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name not in SKIPPED:
                found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


def _diffs(a, b):
    """(max abs, max rel) over paired floats, or None when NaN sits in different places."""
    max_abs = max_rel = 0.0
    for x, y in zip(a, b):
        if math.isnan(x) or math.isnan(y):
            if not (math.isnan(x) and math.isnan(y)):
                return None
            continue
        if x == y:
            continue
        gap = abs(x - y)
        max_abs = max(max_abs, gap)
        max_rel = max(max_rel, gap / max(abs(x), abs(y)))
    return max_abs, max_rel


def _floats(values):
    try:
        return [float(v) for v in values]
    except ValueError:
        return None


def _compare_csv(path_a, path_b):
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        yield from _compare_rows(list(csv.reader(fa)), list(csv.reader(fb)))


def _report_rows(path):
    with open(path) as fh:
        return [CROSSCHECK_COLUMNS] + [line.split("  ") for line in fh.read().splitlines()]


def _compare_crosscheck_stdout(path_a, path_b):
    yield from _compare_rows(_report_rows(path_a), _report_rows(path_b))


def _compare_rows(rows_a, rows_b):
    """Yield (column, result) for two tables, header row first: result is
    (max abs, max rel) or a note, and a note that starts with '!' is a
    structural mismatch."""
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        yield "(header)", "!header differs"
        return
    if len(rows_a) != len(rows_b):
        yield "(rows)", f"!row count {len(rows_a) - 1} != {len(rows_b) - 1}"
        return
    for k, name in enumerate(rows_a[0]):
        col_a = [r[k] for r in rows_a[1:]]
        col_b = [r[k] for r in rows_b[1:]]
        num_a, num_b = _floats(col_a), _floats(col_b)
        if num_a is not None and num_b is not None:
            gaps = _diffs(num_a, num_b)
            yield name, gaps if gaps is not None else "!NaN in different places"
        elif name in STATUS_COLUMNS:
            flips = sum(x != y for x, y in zip(col_a, col_b))
            yield name, f"!{flips} status flips" if flips else "same"
        else:
            changed = sum(x != y for x, y in zip(col_a, col_b))
            yield name, f"{changed} of {len(col_a)} text values differ"


def _read_snapshot(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[:4], [float(x) for line in lines[4:] for x in line.split()]


def _compare_snapshot(path_a, path_b):
    head_a, vals_a = _read_snapshot(path_a)
    head_b, vals_b = _read_snapshot(path_b)
    if head_a != head_b or len(vals_a) != len(vals_b):
        yield "(header)", "!snapshot header differs"
        return
    gaps = _diffs(vals_a, vals_b)
    yield "(coordinates)", gaps if gaps is not None else "!NaN in different places"


def _status_lines(path):
    with open(path) as fh:
        return [line.split()[:2] for line in fh if line.strip()]


def _compare_validate_stdout(path_a, path_b):
    status_a, status_b = _status_lines(path_a), _status_lines(path_b)
    if len(status_a) != len(status_b):
        yield "(lines)", f"!line count {len(status_a)} != {len(status_b)}"
        return
    flips = [b[1] if len(b) > 1 else "?" for a, b in zip(status_a, status_b) if a != b]
    yield "(PASS/FAIL)", f"!flipped: {', '.join(flips)}" if flips else "same"


def _compare_bytes(path_a, path_b):
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        same = fa.read() == fb.read()
    yield "(bytes)", "same" if same else "!bytes differ"


def _comparer(rel, path):
    if rel.endswith(".csv"):
        return _compare_csv
    if os.path.basename(rel) == "stdout.txt":
        return _compare_validate_stdout
    if rel.endswith(".stdout"):
        return _compare_crosscheck_stdout
    with open(path) as fh:
        if fh.readline().startswith("dim "):
            return _compare_snapshot
    return _compare_bytes


def compare(dir_a, dir_b, out=None):
    """Print the difference table to out (default stdout); return the list of
    structural mismatches."""
    out = out or sys.stdout
    files_a, files_b = _files(dir_a), _files(dir_b)
    mismatches = [f"{rel}: only in {dir_a}" for rel in sorted(files_a - files_b)]
    mismatches += [f"{rel}: only in {dir_b}" for rel in sorted(files_b - files_a)]
    out.write(f"{'file':<36} {'column':<28} {'max_abs':>10} {'max_rel':>10}\n")
    for rel in sorted(files_a & files_b):
        path_a, path_b = os.path.join(dir_a, rel), os.path.join(dir_b, rel)
        for column, result in _comparer(rel, path_a)(path_a, path_b):
            if isinstance(result, tuple):
                out.write(f"{rel:<36} {column:<28} {result[0]:>10.3g} {result[1]:>10.3g}\n")
                continue
            out.write(f"{rel:<36} {column:<28} {result.lstrip('!')}\n")
            if result.startswith("!"):
                mismatches.append(f"{rel} {column}: {result[1:]}")
    for line in mismatches:
        out.write(f"MISMATCH {line}\n")
    return mismatches


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(a) for a in args):
        sys.stderr.write("usage: compare_outputs.py PARENT_DIR CHANGE_DIR\n")
        return 2
    return 1 if compare(*args) else 0


if __name__ == "__main__":
    sys.exit(main())
