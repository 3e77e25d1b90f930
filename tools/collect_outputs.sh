#!/bin/sh
# Write the outputs of the reference CLI runs of one checkout into OUTDIR, so
# that two checkouts can be compared byte for byte:
#
#   tools/collect_outputs.sh PARENT_CHECKOUT /tmp/outputs-parent
#   tools/collect_outputs.sh .               /tmp/outputs-change
#   diff -r -x manifest.txt /tmp/outputs-parent /tmp/outputs-change
#
# The runs are the four curve solvers on the filament-square configuration,
# the membrane-evolve configuration (both the benchmark's seed-0 entries) and
# `skewflow validate`.  Manifests hold wall times, and the validate lines
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
skewflow validate --out "$out/validate" | sed 's/ *\[[0-9.]*s\]$//' >"$out/validate/stdout.txt"
