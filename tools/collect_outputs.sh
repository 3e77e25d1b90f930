#!/bin/sh
# Write the outputs of the reference CLI runs of one checkout into OUTDIR, so
# that two checkouts can be compared byte for byte:
#
#   tools/collect_outputs.sh PARENT_CHECKOUT /tmp/outputs-parent
#   tools/collect_outputs.sh .               /tmp/outputs-change
#   diff -r -x manifest.txt /tmp/outputs-parent /tmp/outputs-change
#
# The runs are the four curve solvers on the filament-square configuration,
# the membrane-evolve configuration (both the benchmark's seed-0 entries),
# three filament runs that reach the curve builders and the snapshot reader
# (a round circle at N = 100, which is not a power of two, a twisted circle,
# and a curve read with curve_file= from a snapshot this script writes with
# plain python3) and `skewflow validate`.  Manifests hold wall times, and the validate lines
# printed to standard output lose their timing suffix; for a byte-identical
# change every other file must
# match exactly.  For a change that moves results by roundoff rather than
# leaving them byte identical, compare the two trees with
#
#   python3 tools/compare_outputs.py /tmp/outputs-parent /tmp/outputs-change
#
# which prints the largest absolute and relative difference per CSV column
# and per snapshot, and exits 1 on a structural mismatch (a missing file, a
# different header or row count, a validate PASS/FAIL flip).  Takes about a
# minute on a 2-core host.
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 CHECKOUT OUTDIR" >&2
    exit 2
fi
src=$(cd "$1" && pwd)/src
out=$2
mkdir -p "$out/validate"

skewflow() {
    PYTHONPATH="$src" python3 -m skewflow.cli "$@"
}

curve="shape=perturbed_circle R=1 eps=0.05 k=3 N=256 dt=1e-4 T=0.2"
skewflow filament-run $curve --out "$out/filament" >/dev/null
skewflow darios-run $curve --out "$out/darios" >/dev/null
skewflow nls-run source=curve $curve --out "$out/nls" >/dev/null
skewflow fluid-run $curve --out "$out/fluid" >/dev/null
skewflow membrane-run surface=perturbed_torus a=1 b=2 eps=0.05 k1=2 k2=3 \
    n1=64 n2=64 order=4 dt=1e-3 T=0.1 stride=10 --out "$out/membrane" >/dev/null
skewflow filament-run shape=circle R=1 N=100 dt=1e-3 T=0.1 --out "$out/circle" >/dev/null
skewflow filament-run shape=twisted_circle R=1 eps=0.3 k=2 N=128 dt=5e-4 T=0.05 \
    --out "$out/twisted" >/dev/null
mkdir -p "$out/curve_file"
python3 - "$out/curve_file/input.txt" <<'PY'
import math
import sys

n = 96
rows = []
for i in range(n):
    u = 2.0 * math.pi * i / n
    r = 1.0 + 0.04 * math.cos(3.0 * u)
    rows.append("%.17g %.17g %.17g" % (r * math.cos(u), r * math.sin(u), 0.1 * math.sin(2.0 * u)))
with open(sys.argv[1], "w") as fh:
    fh.write("dim 1\nshape %d\nparam_periods %.17g\nambient 3\n" % (n, 2.0 * math.pi))
    fh.write("\n".join(rows) + "\n")
PY
skewflow filament-run shape=circle curve_file="$out/curve_file/input.txt" dt=2e-4 T=0.02 \
    --out "$out/curve_file/run" >/dev/null
skewflow validate --out "$out/validate" | sed 's/ *\[[0-9.]*s\]$//' >"$out/validate/stdout.txt"
