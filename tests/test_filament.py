"""Tests for the 1D filament stack: binormal flow, Frenet data, the wave map,
the curvature/torsion system, and the fluid form."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline
from scipy.spatial.distance import cdist

from skewflow import diffgeo as dg
from skewflow import filament as fl
from skewflow.errors import (
    BlowUpAbort,
    CurvatureDegeneracyAbort,
    EvolutionAbort,
    SelfIntersectionAbort,
    VacuumAbort,
)


def planar_curve(n=256, eps=0.05, k=3):
    return fl.arclength_resample(fl.perturbed_circle(1.0, eps, k, n))


# ---------------------------------------------------------------------------
# curve handling
# ---------------------------------------------------------------------------

def test_arclength_resample_uniformizes():
    c = fl.arclength_resample(fl.perturbed_circle(1.0, 0.1, 2, 256))
    # unit speed in the new parameter (chord lengths still vary at O(h^2 k^2))
    speed = np.linalg.norm(fl.derivative(c.points, c.param_periods[0], 1), axis=1)
    assert np.abs(speed - 1.0).max() < 1e-5
    # circle length is exact
    circ = fl.arclength_resample(fl.circle_curve(2.0, 128))
    assert abs(circ.param_periods[0] - 4 * np.pi) < 1e-6


def _scipy_resample(curve):
    """The arclength resampling written with scipy's CubicSpline: the
    reference the numpy splines of arclength_resample must reproduce."""
    (n,), (period,) = curve.shape, curve.param_periods
    u = np.linspace(0.0, period, n + 1)
    pts = np.vstack([curve.points, curve.points[:1]])
    spline = CubicSpline(u, pts, axis=0, bc_type="periodic")
    dense = np.linspace(0.0, period, 4 * n + 1)
    speed = np.linalg.norm(spline(dense, 1), axis=1)
    s_dense = CubicSpline(dense, speed).antiderivative()(dense)
    length = float(s_dense[-1])
    u_new = CubicSpline(s_dense, dense)(np.arange(n) * length / n)
    u_new[0] = 0.0
    return spline(u_new), length


@pytest.mark.parametrize("curve", [
    fl.perturbed_circle(1.0, 0.05, 3, 256),
    fl.twisted_circle(1.0, 0.3, 2, 128),
    fl.perturbed_circle(1.0, 0.3, 5, 64),
    fl.perturbed_circle(1.0, 0.05, 3, 33),
    fl.twisted_circle(1.0, 0.3, 2, 100),
], ids=["acceptance-256", "twisted-128", "eps0.3-64", "odd-33", "twisted-100"])
def test_arclength_resample_matches_scipy_splines(curve):
    points, length = _scipy_resample(curve)
    got = fl.arclength_resample(curve)
    assert np.abs(got.points - points).max() <= 1e-13
    assert abs(got.param_periods[0] - length) <= 1e-13


def _notaknot_like_system(rng, n):
    """Spline-shaped tridiagonal system on random knots: not-a-knot end rows,
    interior diagonal 2(dx_{i-1} + dx_i) scaled up by a random factor > 1."""
    x = np.cumsum(rng.uniform(0.1, 1.0, n))
    dx = np.diff(x)
    matrix = np.zeros((n, n))
    for i in range(1, n - 1):
        matrix[i, i - 1:i + 2] = dx[i], 2.0 * (dx[i - 1] + dx[i]) * rng.uniform(1.05, 2.0), dx[i - 1]
    matrix[0, :2] = dx[1], x[2] - x[0]
    matrix[-1, -2:] = x[-1] - x[-3], dx[-2]
    return matrix, rng.standard_normal(n)


@pytest.mark.parametrize("n", list(range(3, 41)) + [1025])
def test_tridiag_solve_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    matrix, rhs = _notaknot_like_system(rng, n)
    a, b, c = np.diag(matrix, -1), np.diag(matrix), np.diag(matrix, 1)
    got = fl._tridiag_solve(a, b, c, rhs)
    want = np.linalg.solve(matrix, rhs)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_curve_validation():
    # curves enter the 1D solvers through arclength_resample, which needs
    # MIN_SAMPLES samples of a dim-1 immersion
    u = np.arange(8) * 2 * np.pi / 8
    raw = dg.GridImmersion(np.stack([np.cos(u), np.sin(u), 0 * u], axis=-1), (2 * np.pi,))
    with pytest.raises(ValueError, match="need at least 32 samples, got 8"):
        fl.arclength_resample(raw)
    with pytest.raises(ValueError, match=r"need a dim-1 immersion in R\^3, got dim=2"):
        fl.arclength_resample(dg.torus_immersion(1.0, 2.0, (32, 32)))
    with pytest.raises(ValueError):
        fl.circle_curve(-1.0, 64)
    with pytest.raises(ValueError):
        fl.build_curve("trefoil", 64)


def test_willmore_1d_circle_value():
    c = fl.arclength_resample(fl.circle_curve(2.0, 256))
    assert abs(fl.willmore_1d(c) - np.pi) < 1e-6


def test_willmore_1d_scaling():
    c = planar_curve()
    lam = 2.5
    scaled = dg.GridImmersion(lam * c.points, (lam * c.param_periods[0],))
    assert abs(fl.willmore_1d(scaled) - fl.willmore_1d(c) / lam) < 1e-10


# ---------------------------------------------------------------------------
# binormal velocity
# ---------------------------------------------------------------------------

def test_circle_velocity_is_axis_translation():
    c = fl.arclength_resample(fl.circle_curve(2.0, 128))
    v = fl.binormal_rhs(c.points, c.param_periods[0])
    assert np.abs(v - np.array([0.0, 0.0, 0.5])).max() < 1e-6


def test_velocity_orthogonal_to_curve():
    c = planar_curve()
    v = fl.binormal_rhs(c.points, c.param_periods[0])
    gp = fl.derivative(c.points, c.param_periods[0], 1)
    gpp = fl.derivative(c.points, c.param_periods[0], 2)
    assert np.abs(np.einsum("ij,ij->i", v, gp)).max() < 1e-13
    assert np.abs(np.einsum("ij,ij->i", v, gpp)).max() < 1e-13


def test_planar_curve_moves_out_of_plane():
    c = planar_curve()
    v = fl.binormal_rhs(c.points, c.param_periods[0])
    assert np.abs(v[:, :2]).max() < 1e-12
    assert np.abs(v[:, 2]).min() > 0.1


def test_cross_equals_np_cross_bitwise():
    rng = np.random.default_rng(7)
    for n in (1, 3, 256):
        u, v = rng.standard_normal((2, n, 3)) * 10.0 ** rng.integers(-3, 4, size=(2, n, 3))
        assert np.array_equal(dg.generalised_cross([u.T], v.T).T, np.cross(u, v))
    # the filament velocity is that cross product of gamma' and gamma''
    c = fl.arclength_resample(fl.twisted_circle(1.0, 0.3, 2, 256))
    p, L = c.points, c.param_periods[0]
    expected = np.cross(fl.derivative(p, L, 1), fl.derivative(p, L, 2))
    assert np.array_equal(fl.binormal_rhs(p, L), expected)


@pytest.mark.parametrize("n", [100, 256])
def test_binormal_rhs_is_the_cross_of_the_two_derivatives(n):
    # both stencils come from one wrapped copy; the velocity is bitwise that
    # of two separate derivative calls
    c = fl.arclength_resample(fl.twisted_circle(1.0, 0.3, 2, n))
    p, L = c.points, c.param_periods[0]
    expected = dg.generalised_cross([fl.derivative(p, L, 1).T], fl.derivative(p, L, 2).T).T
    assert np.array_equal(fl.binormal_rhs(p, L), expected)


# The right-hand sides as they were before their stages moved onto padded
# workspace rows: a fresh wrapped copy, and fresh arrays, per derivative call.

def _binormal_per_call(points, period):
    h, at = period / points.shape[0], dg._neighbours(points, 0, 4)
    return dg.generalised_cross([dg._first(at, h, 4).T], dg._second(at, h, 4).T).T


def _darios_per_call(state, length):
    k, t = state
    d = fl.derivative
    dk = -d(k * k * t, length, 1) / k
    dtau = -2.0 * t * d(t, length, 1) + d(0.5 * k * k + d(k, length, 2) / k, length, 1)
    return np.stack([dk, dtau])


def _fluid_per_call(y, L):
    rho, v = y
    d = fl.derivative
    sq = np.sqrt(rho)
    drho = -d(rho * v, L, 1)
    dv = -v * d(v, L, 1) + d(rho + 2.0 * d(sq, L, 2) / sq, L, 1)
    return np.stack([drho, dv])


def _fresh_each_call(stage, state, oracle):
    # two calls equal the oracle and share no memory with each other or the input
    first, second = stage(state), stage(state)
    assert np.array_equal(first, oracle) and np.array_equal(second, oracle)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, state) and not np.shares_memory(second, state)


@pytest.mark.parametrize("n", [64, 256])
def test_binormal_stage_equals_the_per_call_form_bitwise(n):
    start = fl.arclength_resample(fl.twisted_circle(1.0, 0.3, 2, n))
    mid = fl.evolve_filament(start, 1e-4, 2e-3).final   # a mid-run state
    L = start.param_periods[0]
    stage = fl._binormal_stage(n, L)   # one stage for every state, as a run keeps one
    for c in (start, mid, start):
        _fresh_each_call(stage, c.points, _binormal_per_call(c.points, L))
    assert np.array_equal(fl.binormal_rhs(mid.points, L), _binormal_per_call(mid.points, L))


def test_filament_run_pads_only_through_its_stage(monkeypatch):
    c = planar_curve(n=64)
    expected = fl.evolve_filament(c, 1e-4, 1e-3).final.points

    def refuse(*args, **kwargs):
        raise AssertionError("a filament run padded a per-call copy")

    monkeypatch.setattr(dg, "_neighbours", refuse)
    assert np.array_equal(fl.evolve_filament(c, 1e-4, 1e-3).final.points, expected)


def _stage_of(monkeypatch, run):
    """The stage function that a one-step run hands rk4_step; it keeps that
    run's workspace."""
    stages, step = [], fl.rk4_step
    monkeypatch.setattr(fl, "rk4_step", lambda rhs, y, dt: stages.append(rhs) or step(rhs, y, dt))
    run()
    monkeypatch.undo()
    return stages[0]


@pytest.mark.parametrize("n", [64, 256])
def test_darios_and_fluid_stages_equal_the_per_call_forms_bitwise(n, monkeypatch):
    fr = fl.frenet_data(fl.arclength_resample(fl.twisted_circle(1.0, 0.3, 2, n)))
    assert np.abs(fr.tau).min() > 0.0   # every term of both stages is nonzero
    mid = fl.darios_evolve(fr.kappa, fr.tau, fr.length, 1e-4, 2e-3).final
    darios = _stage_of(monkeypatch,
                       lambda: fl.darios_evolve(fr.kappa, fr.tau, fr.length, 1e-4, 1e-4))
    for y in (np.stack([fr.kappa, fr.tau]), mid):   # one stage for both, as a run uses one
        _fresh_each_call(darios, y, _darios_per_call(y, fr.length))
    rho, v = fl.to_fluid(fr)
    mid = fl.fluid_evolve(rho, v, fr.length, 1e-4, 2e-3).final
    stage = _stage_of(monkeypatch, lambda: fl.fluid_evolve(rho, v, fr.length, 1e-4, 1e-4))
    for y in (np.stack([rho, v]), mid):
        _fresh_each_call(stage, y, _fluid_per_call(y, fr.length))


def test_darios_and_fluid_runs_take_no_per_call_derivative(monkeypatch):
    fr = fl.frenet_data(planar_curve(n=64))
    expected = (fl.darios_evolve(fr.kappa, fr.tau, fr.length, 1e-4, 1e-3).final,
                fl.fluid_evolve(*fl.to_fluid(fr), fr.length, 1e-4, 1e-3).final[0])

    def refuse(*args, **kwargs):
        raise AssertionError("a stage took a per-call derivative")

    monkeypatch.setattr(fl, "derivative", refuse)
    monkeypatch.setattr(dg, "diff", refuse)
    assert np.array_equal(fl.darios_evolve(fr.kappa, fr.tau, fr.length, 1e-4, 1e-3).final,
                          expected[0])
    assert np.array_equal(fl.fluid_evolve(*fl.to_fluid(fr), fr.length, 1e-4, 1e-3).final[0],
                          expected[1])


def _brute_min_nonneighbor(points):
    n = len(points)
    best = np.inf
    for i in range(n):
        for j in range(n):
            if min(abs(i - j), n - abs(i - j)) > 1:
                best = min(best, float(np.sqrt(np.sum((points[i] - points[j]) ** 2))))
    return best


@st.composite
def guard_inputs(draw):
    """Point sets for the self-intersection guard: random clouds, circles, and
    pinched closed curves whose closest non-neighbour pair lies at a large
    index offset (a crushed ellipse; two strands of a figure eight lifted
    apart by a small gap), each scaled, rotated and shifted."""
    n = draw(st.sampled_from([5, 8, 33, 64, 256, 257]))
    # figure eights drawn twice as often: their closest pair sits at offset n/2
    kind = draw(st.sampled_from(["cloud", "circle", "crushed", "strands", "strands"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = np.arange(n) * 2.0 * np.pi / n + draw(st.floats(0.0, 1.0))
    if kind == "cloud":
        pts = rng.standard_normal((n, 3))
    elif kind == "circle":
        pts = np.stack([np.cos(u), np.sin(u), np.zeros_like(u)], axis=-1)
    else:
        # strands within a few sample spacings 2 pi / n of each other, or farther apart
        gap = 2.0 * np.pi / n * 10.0 ** draw(st.floats(-2.0, 0.5))
        if kind == "crushed":
            pts = np.stack([np.cos(u), gap * np.sin(u), np.zeros_like(u)], axis=-1)
        else:
            pts = np.stack([np.cos(u), np.sin(2.0 * u) / 2.0, gap * np.sin(u)], axis=-1)
    pts += draw(st.floats(0.0, 1e-2)) * rng.standard_normal((n, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return scale * pts @ q.T + rng.standard_normal(3)


@settings(max_examples=20, deadline=None, database=None)
@given(guard_inputs())
def test_min_nonneighbor_distance_equals_double_loop_property(pts):
    assert fl.min_nonneighbor_distance(pts) == _brute_min_nonneighbor(pts)


@pytest.mark.parametrize("resample", [False, True])
@pytest.mark.parametrize("n", [256, 257])
@pytest.mark.parametrize("gap", [1e-3, 1e-2])
def test_min_nonneighbor_distance_finds_a_crossing_at_half_the_loop(n, gap, resample):
    # the strands of a figure eight pass within 2 gap of each other at index
    # offset n/2, past offsets whose closest pairs are far apart: a pruning
    # bound that skips too far misses that pair.  Sampled by arclength, the
    # closest pairs per offset fall at nearly one edge per offset towards
    # the crossing, as fast as the bound allows
    u = np.arange(n) * 2.0 * np.pi / n
    pts = np.stack([np.cos(u), np.sin(2.0 * u) / 2.0, gap * np.sin(u)], axis=-1)
    if resample:
        pts = fl.arclength_resample(dg.GridImmersion(pts, (2.0 * np.pi,))).points
    d = fl.min_nonneighbor_distance(pts)
    assert d == _brute_min_nonneighbor(pts)
    assert d < 2.0 * np.pi / n


@pytest.mark.parametrize("n", [17, 33])
def test_min_nonneighbor_distance_equals_double_loop_on_seeded_clouds(n):
    # on a few of these clouds the pruning bound lands exactly on the offset
    # of the closest pair: a skip one offset longer misses it
    for seed in range(200):
        pts = np.random.default_rng(seed).standard_normal((n, 3))
        assert fl.min_nonneighbor_distance(pts) == _brute_min_nonneighbor(pts), seed


def _crushed_ellipse(n, width):
    u = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(u), width * np.sin(u), 0.1 * width * np.sin(3.0 * u)], axis=1)


@pytest.mark.parametrize("curve, limit", [
    # a round curve is searched in a few narrow blocks
    (lambda: planar_curve().points, 200_000),
    # strands in near contact rule out few offsets, so the blocks reach full
    # width; still under half the (3, N/2 - 1, N) block of one pass (780 KB)
    (lambda: _crushed_ellipse(256, 0.02), 400_000),
])
def test_min_nonneighbor_distance_peak_allocation(curve, limit):
    pts = curve()
    fl.min_nonneighbor_distance(pts)
    tracemalloc.start()
    try:
        fl.min_nonneighbor_distance(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit


@pytest.mark.parametrize("n", [3, 4, 32, 257])
def test_min_nonneighbor_distance_equals_double_loop(n):
    rng = np.random.default_rng(n)
    u = np.arange(n) * 2 * np.pi / n
    circle = np.stack([np.cos(u), np.sin(u), np.zeros_like(u)], axis=-1)
    for pts in (rng.standard_normal((n, 3)), circle):
        assert fl.min_nonneighbor_distance(pts) == _brute_min_nonneighbor(pts)


@pytest.mark.parametrize("n", [32, 33, 100, 256, 257])
def test_min_nonneighbor_distance_equals_cdist(n):
    rng = np.random.default_rng(n)
    u = np.arange(n) * 2 * np.pi / n
    circle = np.stack([np.cos(u), np.sin(u), np.zeros_like(u)], axis=-1)
    i = np.arange(n)
    for pts in (rng.standard_normal((n, 3)), circle):
        d = cdist(pts, pts)
        for shift in (-1, 0, 1):
            d[i, (i + shift) % n] = np.inf
        assert fl.min_nonneighbor_distance(pts) == d.min()


def _count_rolls(monkeypatch):
    calls = []
    real_roll = np.roll

    def counting_roll(*args, **kwargs):
        calls.append(1)
        return real_roll(*args, **kwargs)

    monkeypatch.setattr(np, "roll", counting_roll)
    return calls


def test_curve_solvers_make_no_roll_calls(monkeypatch):
    # the 1D stencils slice one padded copy; np.roll costs more in per-call
    # dispatch than in arithmetic at these sizes, so it must stay off this path
    c = planar_curve(n=64)
    fr = fl.frenet_data(c)
    calls = _count_rolls(monkeypatch)
    fl.binormal_rhs(c.points, c.param_periods[0])
    fl.darios_evolve(fr.kappa, fr.tau, fr.length, 1e-4, 1e-4)
    fl.fluid_evolve(*fl.to_fluid(fr), fr.length, 1e-4, 1e-4)
    assert len(calls) == 0


def test_circle_translates_rigidly():
    traj = fl.evolve_filament(fl.circle_curve(1.0, 128), 1e-3, 1.0)
    target = fl.arclength_resample(fl.circle_curve(1.0, 128)).points + np.array([0, 0, 1.0])
    assert np.abs(traj.final.points - target).max() <= 1e-6


def test_conservation_along_flow():
    traj = fl.evolve_filament(planar_curve(), 1e-4, 0.2)
    c0, cT = traj.states[0], traj.final
    assert abs(fl.curve_length(cT) / fl.curve_length(c0) - 1.0) <= 1e-6
    assert abs(fl.willmore_1d(cT) / fl.willmore_1d(c0) - 1.0) <= 1e-4


def test_self_intersection_abort():
    # a crushed ellipse brings opposite strands within the d_min proxy
    u = np.arange(64) * 2 * np.pi / 64
    pts = np.stack([np.cos(u), 1e-3 * np.sin(u), np.zeros_like(u)], axis=-1)
    with pytest.raises(SelfIntersectionAbort):
        fl.evolve_filament(dg.GridImmersion(pts, (2 * np.pi,)), 1e-4, 0.01)


def test_guard_trips_on_its_own_cadence_mid_run():
    # the pinched curve of tools/collect_outputs.sh: its strands come within
    # d_min at step 41, so the guard trips at its next step, 50 (t = 0.01)
    u = np.arange(96) * 2 * np.pi / 96
    pts = np.stack([np.cos(u), 0.02 * np.sin(u), 0.002 * np.sin(3 * u)], axis=-1)
    with pytest.raises(SelfIntersectionAbort) as info:
        fl.evolve_filament(dg.GridImmersion(pts, (2 * np.pi,)), 2e-4, 0.05, stride=10)
    assert info.value.t == 50 * 2e-4
    assert info.value.trajectory.times[-1] == 40 * 2e-4
    # only recorded steps build curves, and an abort carries those alone
    assert all(isinstance(c, dg.GridImmersion) for c in info.value.trajectory.states)


def test_a_run_resamples_its_input_once_and_guards_every_tenth_step(monkeypatch):
    raw = fl.perturbed_circle(1.0, 0.3, 5, 64)
    start = fl.arclength_resample(raw)
    resamples, guards = [], []
    resample, guard = fl.arclength_resample, fl.min_nonneighbor_distance
    monkeypatch.setattr(fl, "arclength_resample", lambda c: resamples.append(c) or resample(c))
    monkeypatch.setattr(fl, "min_nonneighbor_distance", lambda p: guards.append(p) or guard(p))
    traj = fl.evolve_filament(raw, 1e-4, 2.5e-3, stride=1)
    assert len(resamples) == 1
    # at the start, at steps 10 and 20, and at the last step, 25
    assert len(guards) == 4
    assert len(traj.states) == 26
    assert all(isinstance(c, dg.GridImmersion) for c in traj.states)
    assert np.array_equal(traj.states[0].points, start.points)
    assert traj.states[0].param_periods == start.param_periods
    assert all(s.param_periods == start.param_periods for s in traj.states[1:])


def test_stability_precondition():
    with pytest.raises(ValueError, match="stability"):
        fl.evolve_filament(fl.circle_curve(1.0, 128), 5e-3, 0.05)


def test_blowup_abort():
    tiny = fl.circle_curve(1e-7, 64)
    # dt = 1e-9 is above the stability bound (5.1e-17), which is checked
    # before the guard runs on the input
    with pytest.raises(ValueError, match="stability"):
        fl.evolve_filament(tiny, 1e-9, 1e-8)
    # within it, the input's velocity, 1e7, trips the blow-up cap: the abort
    # carries the input, resampled by arclength, as its one record
    with pytest.raises(BlowUpAbort) as err:
        fl.evolve_filament(tiny, 1e-17, 1e-16)
    assert err.value.t == 0.0 and err.value.trajectory.times == [0.0]
    (record,) = err.value.trajectory.states
    assert np.array_equal(record.points, fl.arclength_resample(tiny).points)


def test_curve_immersion_roundtrip(tmp_path):
    # the states of a filament run are dim-1 immersions in R^3 and go through
    # the membrane snapshot format unchanged
    traj = fl.evolve_filament(planar_curve(n=64), 1e-3, 4e-3, stride=2)
    for i, c in enumerate(traj.states):
        assert isinstance(c, dg.GridImmersion) and c.dim == 1 and c.ambient_dim == 3
        path = tmp_path / f"curve_{i}.txt"
        dg.save_immersion(c, path)
        back = dg.load_immersion(path)
        assert back.param_periods == c.param_periods
        assert np.array_equal(back.points, c.points)


# ---------------------------------------------------------------------------
# Frenet data
# ---------------------------------------------------------------------------

def test_frenet_circle():
    fr = fl.frenet_data(fl.arclength_resample(fl.circle_curve(2.0, 128)))
    assert np.abs(fr.kappa - 0.5).max() < 1e-7
    assert np.abs(fr.tau).max() < 1e-12
    assert abs(fr.total_torsion) < 1e-12


def test_frenet_perturbed_circle_matches_polar_formula():
    R, eps, k = 1.0, 0.05, 3
    c = planar_curve(256, eps, k)
    fr = fl.frenet_data(c)
    u = np.arctan2(c.points[:, 1], c.points[:, 0])
    r = R * (1 + eps * np.cos(k * u))
    rp = -R * eps * k * np.sin(k * u)
    rpp = -R * eps * k * k * np.cos(k * u)
    kappa = (r ** 2 + 2 * rp ** 2 - r * rpp) / (r ** 2 + rp ** 2) ** 1.5
    assert np.abs(fr.kappa - kappa).max() < 1e-4
    assert np.abs(fr.tau).max() < 1e-12  # exactly planar data


# ---------------------------------------------------------------------------
# wave map and its gauge structure
# ---------------------------------------------------------------------------

def test_wave_map_on_circle_is_constant():
    fr = fl.frenet_data(fl.arclength_resample(fl.circle_curve(2.0, 128)))
    psi, holonomy = fl.hasimoto(fr)
    assert np.abs(psi - 0.5).max() < 1e-7
    assert holonomy == 0.0


def test_wave_map_planar_is_real():
    fr = fl.frenet_data(planar_curve())
    psi, holonomy = fl.hasimoto(fr)
    assert np.abs(psi.imag).max() < 1e-12
    assert holonomy == 0.0


def test_wave_modulus_is_curvature():
    fr = fl.frenet_data(fl.arclength_resample(fl.twisted_circle(1.0, 0.3, 2, 256)))
    psi, _ = fl.hasimoto(fr)
    assert np.abs(np.abs(psi) - fr.kappa).max() < 1e-13


def test_holonomy_reported_for_nonplanar_curve():
    fr = fl.frenet_data(fl.arclength_resample(fl.twisted_circle(1.0, 0.3, 2, 256)))
    _, holonomy = fl.hasimoto(fr)
    assert fl.holonomy_defect(holonomy) > 1e-2
    assert abs(holonomy - fr.total_torsion) < 1e-14


def test_basepoint_change_is_constant_phase():
    fr = fl.frenet_data(fl.arclength_resample(fl.twisted_circle(1.0, 0.3, 2, 256)))
    w0, _ = fl.hasimoto(fr, s0=0)
    w1, _ = fl.hasimoto(fr, s0=57)
    ratio = w1 / w0
    assert np.abs(ratio - ratio[0]).max() < 1e-12
    assert np.abs(np.abs(w1) - np.abs(w0)).max() < 1e-14


# ---------------------------------------------------------------------------
# focusing cubic wave equation
# ---------------------------------------------------------------------------

def test_plane_wave_phase():
    out = fl.nls_evolve(np.full(256, 1.0, dtype=complex), 2 * np.pi, 1e-3, 1.0).final
    assert np.abs(out - np.exp(0.5j)).max() <= 1e-10


def test_mass_conservation():
    rng = np.random.default_rng(3)
    spec = np.exp(-np.abs(np.fft.fftfreq(256, 1 / 256)) / 3.0)
    psi0 = np.fft.ifft(spec * rng.normal(size=256) * np.exp(2j * np.pi * rng.random(256)))
    out = fl.nls_evolve(psi0, 2 * np.pi, 1e-3, 1.0).final
    assert abs(fl.mass(np.abs(out) ** 2, 2 * np.pi) / fl.mass(np.abs(psi0) ** 2, 2 * np.pi)
               - 1.0) <= 1e-10


def test_zero_stays_zero():
    out = fl.nls_evolve(np.zeros(64, dtype=complex), 2 * np.pi, 1e-2, 0.5).final
    assert np.abs(out).max() == 0.0


def test_grid_must_be_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        fl.nls_evolve(np.zeros(100, dtype=complex), 1.0, 1e-2, 0.1)


# ---------------------------------------------------------------------------
# curvature/torsion system and fluid form
# ---------------------------------------------------------------------------

def test_constant_curvature_stationary():
    kappa, tau = fl.darios_evolve(np.full(64, 1.3), np.zeros(64), 2 * np.pi, 1e-3, 0.5).final
    assert np.abs(kappa - 1.3).max() == 0.0
    assert np.abs(tau).max() < 1e-15


def test_darios_matches_filament():
    c0 = planar_curve()
    fr0 = fl.frenet_data(c0)
    traj = fl.evolve_filament(c0, 1e-4, 0.2)
    k_filament = fl.frenet_data(traj.final).kappa
    k_darios, _ = fl.darios_evolve(fr0.kappa, fr0.tau, fr0.length, 1e-4, 0.2).final
    assert np.abs(k_filament - k_darios).max() <= 1e-3


def test_darios_time_reversal():
    # the system is reversible under (kappa, tau, t) -> (kappa, -tau, -t), so
    # running (kappa, -tau) forward runs (kappa, tau) backward
    fr = fl.frenet_data(planar_curve())
    k1, t1 = fl.darios_evolve(fr.kappa, fr.tau, fr.length, 1e-4, 0.1).final
    k0, minus_t0 = fl.darios_evolve(k1, -t1, fr.length, 1e-4, 0.1).final
    assert np.abs(k0 - fr.kappa).max() <= 1e-8
    assert np.abs(-minus_t0 - fr.tau).max() <= 1e-8


def test_darios_aborts_at_vanishing_curvature():
    # eps (1 + k^2) = 1 makes the curvature of the polar profile touch zero
    fr = fl.frenet_data(fl.arclength_resample(fl.perturbed_circle(1.0, 0.1, 3, 256)))
    with pytest.raises(CurvatureDegeneracyAbort):
        fl.darios_evolve(fr.kappa, fr.tau, fr.length, 1e-4, 0.2)


def test_fluid_stationary_and_mass():
    rho, _ = fl.fluid_evolve(np.full(64, 1.69), np.zeros(64), 2 * np.pi, 1e-3, 0.5).final
    assert np.abs(rho - 1.69).max() == 0.0

    fr = fl.frenet_data(planar_curve())
    rho0, v0 = fl.to_fluid(fr)
    rho, _ = fl.fluid_evolve(rho0, v0, fr.length, 1e-4, 0.2).final
    assert abs(fl.mass(rho, fr.length) / fl.mass(rho0, fr.length) - 1.0) <= 1e-8


# the curvature/torsion, fluid and NLS runs: their input arrays from the
# Frenet data, the run on (arrays, length, dt, T, stride) and the step its
# abort below comes at
FIELD_RUNS = {
    "darios": (lambda fr: np.stack([fr.kappa, fr.tau]),
               lambda y, *args: fl.darios_evolve(*y, *args), 115),
    "fluid": (lambda fr: np.stack(fl.to_fluid(fr)),
              lambda y, *args: fl.fluid_evolve(*y, *args), 114),
    "nls": (lambda fr: fl.hasimoto(fr)[0], lambda y, *args: fl.nls_evolve(y, *args), 1),
}


@pytest.mark.parametrize("stride", [None, 5])
@pytest.mark.parametrize("name", sorted(FIELD_RUNS))
def test_field_records_and_aborts_carry_arrays_of_the_input(name, stride):
    # eps (1 + k^2) just under 1: the curvature nearly vanishes, so the
    # curvature/torsion run trips the kappa floor at step 115 and the fluid
    # state turns non-finite at step 114; the NLS run conserves mass, so one
    # sample whose square overflows makes its state non-finite at step 1
    fields, run, abort_step = FIELD_RUNS[name]
    fr = fl.frenet_data(fl.arclength_resample(fl.perturbed_circle(1.0, 0.0995, 3, 64)))
    y0 = fields(fr)
    traj = run(y0, fr.length, 1e-4, 1e-2, stride)
    assert len(traj.states) == (21 if stride else 2)
    if name == "nls":
        y0[7] = 1e160
    with pytest.raises(EvolutionAbort) as info, np.errstate(all="ignore"):
        run(y0, fr.length, 1e-4, 0.05, stride)
    assert info.value.t == abort_step * 1e-4
    carried = info.value.trajectory.states
    assert len(carried) == (1 + (abort_step - 1) // 5 if stride else 1)
    for state in (*traj.states, *carried):
        assert isinstance(state, np.ndarray)
        assert state.shape == y0.shape and state.dtype == y0.dtype


def test_fluid_conjugate_to_darios():
    fr = fl.frenet_data(planar_curve())
    kappa, tau = fl.darios_evolve(fr.kappa, fr.tau, fr.length, 1e-4, 0.2).final
    rho, v = fl.fluid_evolve(*fl.to_fluid(fr), fr.length, 1e-4, 0.2).final
    assert np.abs(rho - kappa ** 2).max() <= 1e-8
    assert np.abs(v - 2 * tau).max() <= 1e-8


def test_to_fluid_needs_positive_curvature():
    fr = fl.frenet_data(planar_curve())
    fr.mask[3] = True
    with pytest.raises(ValueError, match="masked"):
        fl.to_fluid(fr)


# ---------------------------------------------------------------------------
# Madelung transform
# ---------------------------------------------------------------------------

def test_hasimoto_phase_is_cumulative_trapezoid_bitwise():
    fr = fl.frenet_data(fl.arclength_resample(fl.twisted_circle(1.0, 0.3, 2, 256)))
    assert np.abs(fr.tau).min() > 0.0
    phase = cumulative_trapezoid(fr.tau, dx=fr.ds, initial=0.0)
    psi, _ = fl.hasimoto(fr)
    assert np.array_equal(psi, fr.kappa * np.exp(1j * phase))


def test_madelung_identities():
    # the Madelung wave function sqrt(rho) e^(i theta / 2) of the fluid pair
    # rho = kappa^2, theta = 2 int tau is the Hasimoto wave function
    fr = fl.frenet_data(fl.arclength_resample(fl.twisted_circle(1.0, 0.3, 2, 256)))
    rho = fr.kappa ** 2
    theta = 2.0 * cumulative_trapezoid(fr.tau, dx=fr.ds, initial=0.0)
    psi = np.sqrt(rho) * np.exp(0.5j * theta)
    assert np.abs(psi - fl.hasimoto(fr)[0]).max() < 1e-12


# ---------------------------------------------------------------------------
# the full 1D square at reduced scale
# ---------------------------------------------------------------------------

def test_four_corner_agreement_quick():
    c0 = planar_curve(128, 0.05, 2)
    fr0 = fl.frenet_data(c0)
    dt, horizon = 2e-4, 0.05
    profiles = {
        "filament": fl.frenet_data(
            fl.evolve_filament(c0, dt, horizon).final
        ).kappa,
        "darios": fl.darios_evolve(fr0.kappa, fr0.tau, fr0.length, dt, horizon).final[0],
        "nls": np.abs(fl.nls_evolve(fl.hasimoto(fr0)[0], fr0.length, dt, horizon).final),
        "fluid": np.sqrt(fl.fluid_evolve(*fl.to_fluid(fr0), fr0.length, dt, horizon).final[0]),
    }
    names = list(profiles)
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            gap = np.abs(profiles[u] - profiles[v]).max()
            assert gap <= 5e-3, f"{u}/{v}: {gap:.2e}"


def test_a_longer_run_passes_bitwise_through_a_shorter_runs_final_state():
    # both runs resample only their input, so step 20 of the longer run is
    # the shorter run's final curve bit for bit
    raw = fl.perturbed_circle(1.0, 0.05, 3, 64)
    short = fl.evolve_filament(raw, 1e-3, 0.02)
    longer = fl.evolve_filament(raw, 1e-3, 0.06, stride=20)
    assert longer.times[1] == short.times[-1]
    assert np.array_equal(longer.states[1].points, short.final.points)
    assert longer.states[1].param_periods == short.final.param_periods
    # and each run's first state is the resampled raw curve
    assert np.array_equal(longer.states[0].points, fl.arclength_resample(raw).points)
    # so square_profiles may read that snapshot in place of a run to 0.02
    own, _ = fl.square_profiles(short.states[0], short.final, 1e-3, 0.02, holonomy_tol=1e-10)
    read, _ = fl.square_profiles(longer.states[0], longer.states[1], 1e-3, 0.02,
                                 holonomy_tol=1e-10)
    assert list(read) == list(own)
    assert all(np.array_equal(read[c], own[c]) for c in own)


def test_square_profiles_skip_the_wave_corner_above_the_holonomy_tol():
    run = fl.evolve_filament(fl.twisted_circle(1.0, 0.1, 2, 64), 1e-3, 0.01)
    start, final = run.states[0], run.final
    holonomy = fl.hasimoto(fl.frenet_data(start))[1]
    defect = fl.holonomy_defect(holonomy)
    assert defect > 1e-4
    profiles, status = fl.square_profiles(start, final, 1e-3, 0.01, holonomy_tol=0.5 * defect)
    assert status == {"filament": "ok", "darios": "ok", "nls": "skipped (holonomy obstruction)",
                      "fluid": "ok"}
    gaps = fl.square_gaps(profiles)
    assert list(gaps) == [(u, v) for i, u in enumerate(fl.SQUARE_CORNERS)
                          for v in fl.SQUARE_CORNERS[i + 1:]]
    assert all((gap is None) == ("nls" in pair) for pair, gap in gaps.items())
    # the same curve with the tolerance above its defect runs all four
    profiles, status = fl.square_profiles(start, final, 1e-3, 0.01, holonomy_tol=2.0 * defect)
    assert set(status.values()) == {"ok"}
    assert max(fl.square_gaps(profiles).values()) <= 5e-3


def test_an_input_guard_abort_carries_the_input():
    # kappa reaches zero at one sample, and psi is NaN at one: the
    # curvature/torsion, fluid and NLS guards trip on the input, before the
    # first step, and the abort carries it as its one record (the filament's
    # case is in test_blowup_abort; the membrane's guard checks finiteness
    # alone, which no GridImmersion input can fail)
    s = np.arange(64) * (2.0 * np.pi / 64)
    kappa, tau = 1.0 + np.cos(s), 0.1 * np.sin(s)
    with pytest.raises(CurvatureDegeneracyAbort) as err:
        fl.darios_evolve(kappa, tau, 2.0 * np.pi, 1e-4, 1e-3)
    assert err.value.t == 0.0 and err.value.trajectory.times == [0.0]
    (y0,) = err.value.trajectory.states
    assert np.array_equal(y0, [kappa, tau])
    rho = np.maximum(kappa, 1e-12) ** 2
    with pytest.raises(VacuumAbort) as err:
        fl.fluid_evolve(rho, 2.0 * tau, 2.0 * np.pi, 1e-4, 1e-3)
    assert err.value.t == 0.0 and err.value.trajectory.times == [0.0]
    (record,) = err.value.trajectory.states
    assert np.array_equal(record, [rho, 2.0 * tau])
    psi = np.ones(64, dtype=complex)
    psi[5] = np.nan
    with pytest.raises(EvolutionAbort, match="wave function became non-finite") as err:
        fl.nls_evolve(psi, 2.0 * np.pi, 1e-3, 1e-2)
    assert err.value.t == 0.0 and err.value.trajectory.times == [0.0]
    (record,) = err.value.trajectory.states
    assert np.array_equal(record, psi, equal_nan=True)
