#!/bin/sh
# Write the outputs of the reference CLI runs of one checkout into OUTDIR, so
# that two checkouts can be compared byte for byte:
#
#   tools/collect_outputs.sh PARENT_CHECKOUT /tmp/outputs-parent
#   tools/collect_outputs.sh .               /tmp/outputs-change
#   diff -r -x manifest.txt /tmp/outputs-parent /tmp/outputs-change
#
# The runs are the four curve solvers on the filament-square configuration,
# the membrane-evolve configuration (both the benchmark's seed-0 entries), an
# order-2 membrane run on a non-square 24 x 40 grid (so the padded stencils
# of the two grid axes and their spacings are told apart), a surface_file=
# restart of it from its middle snapshot, the same run with snapshots=0
# (diagnostics only), a stride-1 order-4 membrane run on a
# 32 x 40 perturbed torus (a snapshot every step, so every triple of the
# streamed diagnostics pass reaches its CSV), a stride-1 order-4 membrane run
# on the smallest legal non-square grid, 8 x 9 (its padded rows are 13 long,
# so the halo is a third of each one), a stride-1 membrane run on a
# strongly perturbed 16 x 16 torus (eps 0.4, k1 3, k2 5) whose stability
# estimate drops below dt = 0.03, so it aborts at t = 0.21 (exit 3; its
# standard error and exit status are kept, so the snapshots and the
# diagnostics of an aborted run are compared too), a stride-1 membrane run on
# a 32 x 32 torus at dt = 0.05, above its up-front stability estimate
# 1.522e-2 (it exits 2 and writes nothing; its standard error, which prints
# the estimate, and its exit status are kept), a stride-5 membrane run on
# a 16 x 16 torus of radii 0.004 and 3000 at dt = 1e-6 (its snapshots hold
# coordinates of decimal exponent -25, -19, -18, -13, -3 and 3, and zeros, so
# the snapshot writer's exponential layout, its fixed layouts and its scaling
# by powers of ten that are no double reach a file compared byte for byte),
# the benchmark's membrane-restart configuration (a 128 x 128 order-4 torus
# with a snapshot and a diagnostics row at every one of its 10 steps, then
# the same run restarted from its snapshot 5 for the last 5 steps),
# three filament runs that reach the curve builders and the snapshot reader
# (a round circle at N = 100, which is not a power of two, a twisted circle,
# and a curve read with curve_file= from a snapshot this script writes with
# plain python3), the same curve snapshot passed to membrane-run as
# surface_file= (it must exit 2 before the first step and write nothing; its
# standard error and exit status are kept), an NLS run on the twisted circle
# (nonzero torsion, so the Hasimoto phase integral sees more than zeros), a
# filament run on a strongly perturbed circle (eps 0.3, k 5, N 64: arclength
# knots far from uniform; the grid is too coarse for its order-4 stencils, so
# the run warns on its speed deviation, and its standard error and exit status
# are kept), `crosscheck mode=filament-square`
# on a passing curve and on a singular one (eps (1 + k^2) = 1: curvature
# touches zero, so the curvature/torsion and fluid corners abort), the
# curvature/torsion and fluid solvers alone on that singular curve (both exit
# 3, the curvature/torsion run at t = 1e-4 with its rows recorded so far, the
# fluid run at t = 0; their standard error and exit status are kept), the
# fluid solver on the filament-square curve at dt = 1e-3, a step too large
# for it (its state turns non-finite, so the run exits 3 at t = 0.008 with
# its t = 0 rows; its standard error and exit status are kept, so a
# non-finite abort reaches a compared file), the curvature/torsion solver on
# 25 steps with no stride set (25 // 10 = 2 does not divide 25, so the
# default stride is 5, the smallest divisor of 25 from 2 up; its standard
# error and exit status are kept),
# `crosscheck mode=sphere-membrane` on a 16 x 16 torus, once with the default
# tolerances and once with --tol-profile strict, both `sphere-run`
# examples of the README (to collapse and over a fixed horizon), the run to
# collapse again with stride=7 (so the stop is recorded off the stride), a
# fixed-horizon sphere run past the collapse time (it warns that its horizon
# reaches the step halving, its step underflows, and the run exits 3 with the
# rows recorded so far; its standard error and exit status are kept), a
# filament run on a pinched curve that this script writes with python3 (a
# crushed ellipse, N = 96, read with curve_file=) whose
# strands close in until the self-intersection guard aborts the run at
# t = 0.01 (exit 3; its standard error and exit status are kept, so the
# abort time, the rows recorded before it and its speed deviation warning
# are compared too),
# an NLS run on a plane wave of amplitude nan and `validate suite=99`, a
# check id that names no check (both exit 2 before anything runs; their
# standard error and exit status are kept),
# `skewflow validate`, `validate suite=6` and `suite=3,4,9`, and
# `validate suite=1,12 --tol-profile strict`.  The full
# suite shares one filament run between checks 5 and 6 and one pass over the
# membrane snapshots among checks 3, 4 and 9; the two subsets take the other
# paths: check 6 runs its own filament, and the membrane pass is made for
# those three checks alone.  The reports crosscheck prints to standard
# output are kept beside its CSVs.  Manifests hold wall times, and the
# validate lines printed to standard output lose their timing suffix; for a
# byte-identical change every other file must match exactly.  For a change
# that moves results by roundoff rather than leaving them byte identical,
# compare the two trees with
#
#   python3 tools/compare_outputs.py /tmp/outputs-parent /tmp/outputs-change
#
# which prints the largest absolute and relative difference per CSV column
# and per snapshot, and exits 1 on a structural mismatch (a missing file, a
# different header or row count, a validate PASS/FAIL flip).  Takes about
# 28 s on a 2-core host.
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 CHECKOUT OUTDIR" >&2
    exit 2
fi
src=$(cd "$1" && pwd)/src
out=$2
mkdir -p "$out/validate" "$out/validate_6" "$out/validate_3_4_9" "$out/validate_1_12_strict" \
    "$out/membrane_abort" "$out/membrane_dt_above" "$out/sphere_underflow" "$out/pinched" "$out/curve_as_surface" \
    "$out/darios_singular" "$out/fluid_singular" "$out/fluid_nonfinite" "$out/wobbly" \
    "$out/darios_default_stride" \
    "$out/nls_nan" "$out/validate_99"

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
skewflow membrane-run surface=perturbed_torus a=1 b=2 eps=0.05 k1=2 k2=3 \
    n1=24 n2=40 order=2 dt=2e-3 T=0.04 stride=5 --out "$out/membrane_o2" >/dev/null
skewflow membrane-run surface=perturbed_torus a=1 b=2 eps=0.05 k1=2 k2=3 \
    n1=24 n2=40 order=2 dt=2e-3 T=0.02 stride=5 \
    surface_file="$out/membrane_o2/snapshot_0002.txt" --out "$out/membrane_o2_restart" >/dev/null
skewflow membrane-run surface=perturbed_torus a=1 b=2 eps=0.05 k1=2 k2=3 \
    n1=24 n2=40 order=2 dt=2e-3 T=0.04 stride=5 snapshots=0 \
    --out "$out/membrane_o2_nosnap" >/dev/null
skewflow membrane-run surface=perturbed_torus a=1 b=2 eps=0.05 k1=2 k2=3 \
    n1=32 n2=40 order=4 dt=1e-3 T=0.01 stride=1 --out "$out/membrane_stride1" >/dev/null
skewflow membrane-run surface=perturbed_torus a=1 b=2 eps=0.05 k1=2 k2=3 \
    n1=8 n2=9 order=4 dt=1e-3 T=0.01 stride=1 --out "$out/membrane_8x9" >/dev/null
status=0
skewflow membrane-run surface=perturbed_torus a=1 b=2 eps=0.4 k1=3 k2=5 n1=16 n2=16 \
    order=2 dt=0.03 T=3 stride=1 --out "$out/membrane_abort" \
    >/dev/null 2>"$out/membrane_abort/stderr.txt" || status=$?
echo "exit $status" >>"$out/membrane_abort/stderr.txt"
status=0
skewflow membrane-run surface=torus_product a=1 b=2 n1=32 n2=32 dt=0.05 T=0.1 stride=1 \
    --out "$out/membrane_dt_above" >/dev/null 2>"$out/membrane_dt_above/stderr.txt" || status=$?
echo "exit $status" >>"$out/membrane_dt_above/stderr.txt"
skewflow membrane-run surface=torus_product a=0.004 b=3000 n1=16 n2=16 dt=1e-6 T=1e-5 stride=5 \
    --out "$out/membrane_exponents" >/dev/null
restart="surface=torus_product a=1.0 b=2.0 n1=128 n2=128 order=4 dt=5e-4 stride=1"
skewflow membrane-run $restart T=0.005 --out "$out/membrane_restart" >/dev/null
skewflow membrane-run $restart T=0.0025 surface_file="$out/membrane_restart/snapshot_0005.txt" \
    --out "$out/membrane_restart_from_5" >/dev/null
skewflow filament-run shape=circle R=1 N=100 dt=1e-3 T=0.1 --out "$out/circle" >/dev/null
skewflow filament-run shape=twisted_circle R=1 eps=0.3 k=2 N=128 dt=5e-4 T=0.05 \
    --out "$out/twisted" >/dev/null
skewflow nls-run source=curve shape=twisted_circle R=1 eps=0.3 k=2 N=128 dt=5e-4 T=0.05 \
    --out "$out/nls_twisted" >/dev/null
status=0
skewflow filament-run shape=perturbed_circle R=1 eps=0.3 k=5 N=64 dt=1e-4 T=0.01 \
    --out "$out/wobbly" >/dev/null 2>"$out/wobbly/stderr.txt" || status=$?
echo "exit $status" >>"$out/wobbly/stderr.txt"
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
status=0
skewflow membrane-run surface=torus_product a=1 b=2 dt=1e-3 T=0.01 stride=1 \
    surface_file="$out/curve_file/input.txt" --out "$out/curve_as_surface" \
    >/dev/null 2>"$out/curve_as_surface/stderr.txt" || status=$?
echo "exit $status" >>"$out/curve_as_surface/stderr.txt"
skewflow crosscheck mode=filament-square N=128 dt=2e-4 T=0.02 \
    --out "$out/crosscheck_square" >"$out/crosscheck_square.stdout"
skewflow crosscheck mode=filament-square eps=0.1 k=3 N=256 dt=1e-4 T=0.05 \
    --out "$out/crosscheck_singular" >"$out/crosscheck_singular.stdout"
for solver in darios fluid; do
    status=0
    skewflow $solver-run shape=perturbed_circle R=1 eps=0.1 k=3 N=256 dt=1e-4 T=0.05 \
        --out "$out/${solver}_singular" >/dev/null 2>"$out/${solver}_singular/stderr.txt" \
        || status=$?
    echo "exit $status" >>"$out/${solver}_singular/stderr.txt"
done
status=0
skewflow fluid-run shape=perturbed_circle R=1 eps=0.05 k=3 N=256 dt=1e-3 T=0.1 \
    --out "$out/fluid_nonfinite" >/dev/null 2>"$out/fluid_nonfinite/stderr.txt" || status=$?
echo "exit $status" >>"$out/fluid_nonfinite/stderr.txt"
status=0
skewflow darios-run shape=perturbed_circle N=128 dt=1e-4 T=0.0025 \
    --out "$out/darios_default_stride" >/dev/null \
    2>"$out/darios_default_stride/stderr.txt" || status=$?
echo "exit $status" >>"$out/darios_default_stride/stderr.txt"
skewflow crosscheck mode=sphere-membrane n1=16 n2=16 order=2 dt=1e-3 T=0.02 \
    --out "$out/crosscheck_sphere" >"$out/crosscheck_sphere.stdout"
skewflow crosscheck mode=sphere-membrane n1=16 n2=16 order=2 dt=1e-3 T=0.02 \
    --tol-profile strict --out "$out/crosscheck_sphere_strict" \
    >"$out/crosscheck_sphere_strict.stdout"
skewflow sphere-run m=1 l=2 a=1 b=1 dt=1e-4 mode=to-collapse a_stop=1e-10 \
    --out "$out/sphere_collapse" >/dev/null
skewflow sphere-run m=1 l=1 a=1 b=2 T=1.0 dt=1e-3 stride=100 \
    --out "$out/sphere_fixed" >/dev/null
skewflow sphere-run m=1 l=2 a=1 b=1 dt=1e-4 mode=to-collapse a_stop=1e-10 stride=7 \
    --out "$out/sphere_collapse_stride7" >/dev/null
status=0
skewflow sphere-run m=1 l=2 a=1 b=1 mode=fixed T=2 dt=1e-2 --out "$out/sphere_underflow" \
    >/dev/null 2>"$out/sphere_underflow/stderr.txt" || status=$?
echo "exit $status" >>"$out/sphere_underflow/stderr.txt"
python3 - "$out/pinched/input.txt" <<'PY'
import math
import sys

n = 96
rows = []
for i in range(n):
    u = 2.0 * math.pi * i / n
    rows.append("%.17g %.17g %.17g" % (math.cos(u), 0.02 * math.sin(u), 0.002 * math.sin(3.0 * u)))
with open(sys.argv[1], "w") as fh:
    fh.write("dim 1\nshape %d\nparam_periods %.17g\nambient 3\n" % (n, 2.0 * math.pi))
    fh.write("\n".join(rows) + "\n")
PY
status=0
skewflow filament-run shape=circle curve_file="$out/pinched/input.txt" dt=2e-4 T=0.05 stride=10 \
    --out "$out/pinched/run" >/dev/null 2>"$out/pinched/stderr.txt" || status=$?
echo "exit $status" >>"$out/pinched/stderr.txt"
status=0
skewflow nls-run source=plane A=nan --out "$out/nls_nan/run" \
    >/dev/null 2>"$out/nls_nan/stderr.txt" || status=$?
echo "exit $status" >>"$out/nls_nan/stderr.txt"
status=0
skewflow validate suite=99 --out "$out/validate_99/run" \
    >/dev/null 2>"$out/validate_99/stderr.txt" || status=$?
echo "exit $status" >>"$out/validate_99/stderr.txt"
skewflow validate --out "$out/validate" | sed 's/ *\[[0-9.]*s\]$//' >"$out/validate/stdout.txt"
skewflow validate suite=6 --out "$out/validate_6" | sed 's/ *\[[0-9.]*s\]$//' \
    >"$out/validate_6/stdout.txt"
skewflow validate suite=3,4,9 --out "$out/validate_3_4_9" | sed 's/ *\[[0-9.]*s\]$//' \
    >"$out/validate_3_4_9/stdout.txt"
skewflow validate suite=1,12 --tol-profile strict --out "$out/validate_1_12_strict" \
    | sed 's/ *\[[0-9.]*s\]$//' >"$out/validate_1_12_strict/stdout.txt"
