"""Tests for the membrane flow and its diagnostic residuals."""

import gc
import math
import weakref

import numpy as np
import pytest

from skewflow import diffgeo as dg
from skewflow import filament as fl
from skewflow import membrane as mb
from skewflow import sphereprod as sp
from skewflow.stepping import Trajectory, integrate, rk4_step


def exact_torus_triple(a, b, dt, shape, order):
    """Shape fields of the exact torus(a, b) at -dt, 0 and dt, and their span."""
    s0 = sp.SphereProductState(1, 1, a, b)
    times = np.array([-dt, 0.0, dt])
    fields = [dg.shape_field(sp.embed(sp.closed_form(s0, t), shape), order=order)
              for t in times]
    return fields, times[2] - times[0]


def evolved_perturbed_triple(n, order=2):
    """Shape fields of the first three snapshots of a perturbed torus run, one
    step apart, and their span."""
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (n, n))
    dt = 0.25 * mb.stability_limit(dg.pad_planes(imm.points, order), imm.spacings, order)
    traj = mb.evolve_membrane(imm, dt, 2 * dt, stride=1, order=order)
    fields = [dg.shape_field(snap, order=order) for snap in traj.states]
    return fields, traj.times[2] - traj.times[0]


def frozen_triple(imm, order=2):
    """One shape field three times: a trajectory that does not move."""
    sf = dg.shape_field(imm, order=order)
    return [sf, sf, sf]


def stage(points, spacings, order=2, ws=dg._fresh):
    """smc_rhs on points (*s, d), padded as evolve_membrane pads them; the
    velocity's interior, as (*s, d)."""
    padded = dg.pad_planes(points, order)
    return dg.interior_points(mb.smc_rhs(padded, spacings, order, ws), order)


# ---------------------------------------------------------------------------
# velocity field
# ---------------------------------------------------------------------------

def test_smc_velocity_on_torus():
    a, b = 1.0, 2.0
    imm = dg.torus_immersion(a, b, (64, 64))
    v = stage(imm.points, imm.spacings)
    th = np.arange(64) * 2 * np.pi / 64
    TH, PH = np.meshgrid(th, th, indexing="ij")
    n1 = np.stack([np.cos(TH), np.sin(TH), 0 * TH, 0 * TH], axis=-1)
    n2 = np.stack([0 * PH, 0 * PH, np.cos(PH), np.sin(PH)], axis=-1)
    h = 2 * np.pi / 64
    assert np.abs(v - (-n1 / b + n2 / a)).max() < h * h


def test_smc_velocity_is_normal_isometry():
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (32, 32))
    sf = dg.shape_field(imm)
    v = np.moveaxis(stage(imm.points, imm.spacings), -1, 0)   # as (d, *s) planes
    assert (dg.tangential_defect(sf, v) <= sf.tol_perp).all()
    assert np.abs(dg.inner_product(v, v) - sf.rho).max() < 1e-12


@pytest.mark.parametrize("order", [2, 4])
def test_smc_rhs_matches_the_shape_field_path(order):
    # n1 != n2 and unequal, non-2pi periods with unequal spacings 3/24, 7/40
    base = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (24, 40))
    imm = dg.GridImmersion(base.points, (3.0, 7.0))
    sf = dg.shape_field(imm, order=order)
    expected = np.moveaxis(-dg.apply_j(sf, sf.H), 0, -1)   # per point, as stage returns
    v = stage(imm.points, imm.spacings, order)
    assert v.shape == imm.points.shape
    assert np.abs(v - expected).max() <= 1e-13 * np.abs(expected).max()
    # the velocity does not see a linear change of parameters, so the same
    # points with 2pi periods move alike; smc_rhs and shape_field share
    # plane_derivatives, and this datum is what shows a stencil that takes one
    # axis's spacing for the other's in some of its differences
    v_2pi = stage(base.points, base.spacings, order)
    assert np.abs(v - v_2pi).max() <= 1e-13 * np.abs(v_2pi).max()
    # and against det[t_1, t_2, H, e_l] / sqrt(det g), which shares no code
    # with the Pluecker form that smc_rhs and apply_j both use
    # columns (*s, d, n + 1): the tangents t[i] (d, *s) as columns, then H
    cols = np.concatenate([np.moveaxis(sf.t, (0, 1), (-1, -2)), np.moveaxis(sf.H, 0, -1)[..., None]],
                          -1)
    dets = [np.linalg.det(np.concatenate([cols, np.broadcast_to(e[:, None], cols.shape[:-1] + (1,))],
                                         -1)) for e in np.eye(4)]
    by_det = np.stack(dets, axis=-1) / sf.sqrt_det_g[..., None]
    assert np.abs(v - by_det).max() <= 1e-13 * np.abs(by_det).max()


def test_smc_rhs_rejects_a_collapsed_grid():
    from skewflow.errors import DegenerateImmersionError

    # rows 4-6 of the first grid axis collapse onto one circle: t_1 = 0 on row 5
    imm = dg.torus_immersion(1.0, 2.0, (16, 16))
    collapsed = imm.points.copy()
    collapsed[5] = collapsed[6] = collapsed[4]
    padded = dg.pad_planes(collapsed, 2)
    with pytest.raises(DegenerateImmersionError, match="grid index") as err:
        mb.smc_rhs(padded, imm.spacings, 2)
    assert err.value.grid_index == (5, 0)
    assert err.value.det_value == 0.0
    # the estimate on the same planes, and shape_field, which pads an
    # immersion, report the same interior index
    with pytest.raises(DegenerateImmersionError) as err:
        mb.stability_limit(padded, imm.spacings, 2)
    assert err.value.grid_index == (5, 0)
    with pytest.raises(DegenerateImmersionError) as err:
        dg.shape_field(dg.GridImmersion(collapsed, imm.param_periods), 2)
    assert err.value.grid_index == (5, 0)


def _roll_first(f, axis, h, order):
    def at(k):
        return np.roll(f, -k, axis)
    if order == 2:
        return (at(1) - at(-1)) / (2.0 * h)
    return (-at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2)) / (12.0 * h)


def _roll_second(f, axis, h, order):
    def at(k):
        return np.roll(f, -k, axis)
    if order == 2:
        return (at(1) - 2.0 * f + at(-1)) / (h * h)
    return (-at(2) + 16.0 * at(1) - 30.0 * f + 16.0 * at(-1) - at(-2)) / (12.0 * h * h)


def _roll_stage(points, spacings, order):
    """The stage as plain expressions on np.roll neighbours: the reference the
    workspace stage must equal bit for bit."""
    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]

    x = np.ascontiguousarray(np.moveaxis(points, -1, 0))
    (h1, h2) = spacings
    t1, t2 = _roll_first(x, 1, h1, order), _roll_first(x, 2, h2, order)
    g11, g12, g22 = dot(t1, t1), dot(t1, t2), dot(t2, t2)
    det = g11 * g22 - g12 * g12
    off = -g12 / det
    gi11, gi22 = g22 / det, g11 / det
    y = gi11 * _roll_second(x, 1, h1, order)
    y += gi22 * _roll_second(x, 2, h2, order)
    y += 2.0 * off * _roll_first(t1, 2, h2, order)
    a, b = t1, t2
    p01, p02, p03 = (a[0] * b[k] - a[k] * b[0] for k in (1, 2, 3))
    p12, p13, p23 = (a[i] * b[j] - a[j] * b[i] for i, j in ((1, 2), (1, 3), (2, 3)))
    v = np.stack([
        p13 * y[2] - p23 * y[1] - p12 * y[3],
        p23 * y[0] - p03 * y[2] + p02 * y[3],
        p03 * y[1] - p13 * y[0] - p01 * y[3],
        p12 * y[0] - p02 * y[1] + p01 * y[2],
    ])
    return np.moveaxis(v / np.sqrt(det), 0, -1)


def _unpadded_stage(points, spacings, order):
    """The stage on unpadded (d, *s) planes, as it ran before it read padded
    ones: np.roll differences, then dg.metric_planes and dg.generalised_cross;
    the velocity as (*s, d)."""
    x = np.ascontiguousarray(np.moveaxis(points, -1, 0))
    t = [_roll_first(x, a + 1, h, order) for a, h in enumerate(spacings)]
    xx = [_roll_second(x, a + 1, h, order) for a, h in enumerate(spacings)]
    mixed = _roll_first(t[0], 2, spacings[1], order)
    _, det_g, g_inv = dg.metric_planes(t)
    y = xx[0] * g_inv[0][0]
    y += g_inv[1][1] * xx[1]
    y += (2.0 * g_inv[0][1]) * mixed
    v = dg.generalised_cross(t, y)
    v /= np.sqrt(det_g)
    return np.ascontiguousarray(np.moveaxis(v, 0, -1))


def _random_grid(shape, seed):
    # a perturbed torus moved by random noise, with unequal non-2pi periods
    base = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, shape)
    noise = 0.01 * np.random.default_rng(seed).standard_normal(base.points.shape)
    return dg.GridImmersion(base.points + noise, (3.0, 7.0))


@pytest.mark.parametrize("order", [2, 4])
def test_stability_limit_is_the_shape_field_bound_bitwise(order):
    # the spacings 3/9 and 7/12 differ, and so do 3/24 and 7/40, so a guard
    # that takes one axis's spacing for the other's reads a different bound;
    # a resampled curve's (3, N + 4) planes take the n = 1 path
    curve = fl.arclength_resample(fl.perturbed_circle(1.0, 0.1, 3, 64))
    for imm in (_random_grid((9, 12), 4), _skewed_grid((3.0, 7.0)), curve):
        sf = dg.shape_field(imm, order=order)
        lam = sum(mb._FD_SECOND_MAX[order] * sf.g_inv[i, i].max() / imm.spacings[i] ** 2
                  for i in range(imm.dim))
        padded = dg.pad_planes(imm.points, order)
        assert mb.stability_limit(padded, imm.spacings, order) == mb.RK4_IMAG_STABILITY / lam


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("shape", [(8, 8), (8, 9), (9, 12), (64, 64)])
def test_padded_stage_equals_the_unpadded_pipeline_bitwise(shape, order):
    ws = dg.Workspace()
    for seed in range(2):  # the second field reuses the workspace
        imm = _random_grid(shape, seed)
        v = mb.smc_rhs(dg.pad_planes(imm.points, order), imm.spacings, order, ws)
        assert v.shape == (4,) + tuple(N + order for N in shape)
        expected = _unpadded_stage(imm.points, imm.spacings, order)
        assert np.array_equal(dg.interior_points(v, order), expected)
        w = order // 2
        wrapped = v[:, w:-w, w:-w]
        for axis, N in enumerate(shape, 1):  # the halo is the wrap
            wrapped = wrapped.take(np.arange(-w, N + w) % N, axis=axis)
        assert np.array_equal(v, wrapped)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("order", [2, 4])
def test_poisoned_workspace_planes_change_no_result(poison, order):
    # the band planes' halo columns hold no geometry, and a workspace plane may
    # hold anything between calls: no result and no warning may depend on it
    imm = _random_grid((8, 9), 2)
    padded = dg.pad_planes(imm.points, order)
    ws = dg.Workspace()
    v = mb.smc_rhs(padded, imm.spacings, order, ws)
    dt_max = mb.stability_limit(padded, imm.spacings, order, ws)

    def poisoned():
        for a in ws._arrays.values():  # every workspace plane, halo included
            a.fill(poison)
        return ws

    assert np.array_equal(mb.smc_rhs(padded, imm.spacings, order, poisoned()), v)
    assert mb.stability_limit(padded, imm.spacings, order, poisoned()) == dt_max


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("shape", [(8, 8), (8, 9), (9, 12)])
def test_five_steps_equal_the_unpadded_stage_stepped_bitwise(shape, order):
    imm = _random_grid(shape, 3)
    dt = 0.25 * mb.stability_limit(dg.pad_planes(imm.points, order), imm.spacings, order)
    traj = mb.evolve_membrane(imm, dt, 5 * dt, stride=1, order=order)
    ref = integrate(
        lambda pts, i: rk4_step(lambda p: _unpadded_stage(p, imm.spacings, order), pts, dt),
        imm.points, dt, 5 * dt, 1)
    assert len(traj.states) == len(ref.states) == 6
    for snap, pts in zip(traj.states, ref.states):
        assert snap.points.flags.c_contiguous
        assert snap.points.tobytes() == pts.tobytes()


def _skewed_grid(periods=(3.0, 5.0)):
    # n1 != n2 and non-2pi periods: an axis mix-up shows; (3, 5) gives both
    # axes the spacing 0.125, so a spacing mix-up shows only with (3, 7)
    base = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (24, 40))
    return dg.GridImmersion(base.points, periods)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("periods", [(3.0, 5.0), (3.0, 7.0)])
def test_evolution_equals_the_roll_reference_stage_bitwise(order, stride, periods):
    imm = _skewed_grid(periods)
    dt, steps = 2e-3, 6
    traj = mb.evolve_membrane(imm, dt, steps * dt, stride=stride, order=order)
    ref = integrate(
        lambda pts, i: rk4_step(lambda p: _roll_stage(p, imm.spacings, order), pts, dt),
        imm.points, dt, steps * dt, stride)
    assert len(traj.states) == len(ref.states) == steps // stride + 1
    for snap, pts in zip(traj.states, ref.states):
        assert np.array_equal(snap.points, pts)


@pytest.mark.parametrize("order", [2, 4])
def test_a_run_makes_each_workspace_plane_once(monkeypatch, order):
    # the stability estimate at every recorded step and the stages between
    # them share the workspace: a name asked for at two shapes would be made
    # anew at each request, and the estimate may ask only for the stage's
    # names
    made = []

    class Counting(dg.Workspace):
        def __call__(self, name, shape):
            if name not in self._arrays or self._arrays[name].shape != shape:
                made.append(name)
            return super().__call__(name, shape)

    imm = _skewed_grid()
    expected = mb.evolve_membrane(imm, 2e-3, 5 * 2e-3, stride=1, order=order)
    monkeypatch.setattr(dg, "Workspace", Counting)
    traj = mb.evolve_membrane(imm, 2e-3, 5 * 2e-3, stride=1, order=order)
    assert made and len(made) == len(set(made))
    run_names, made[:] = set(made), []
    ws = Counting()
    padded = dg.pad_planes(imm.points, order)
    mb.smc_rhs(padded, imm.spacings, order, ws)  # a lone stage
    stage_names = set(made)
    assert run_names <= stage_names
    dt_max = mb.stability_limit(padded, imm.spacings, order)
    assert mb.stability_limit(padded, imm.spacings, order, ws) == dt_max
    assert set(made) == stage_names
    for snap, ref in zip(traj.states, expected.states):
        assert np.array_equal(snap.points, ref.points)


@pytest.mark.parametrize("order", [2, 4])
def test_stages_sharing_a_workspace_do_not_alias(order):
    imm = _skewed_grid()
    other = dg.perturbed_torus_immersion(1.0, 2.0, 0.08, 3, 1, (24, 40)).points
    ws = dg.Workspace()
    first = stage(imm.points, imm.spacings, order, ws)
    kept = first.copy()
    second = stage(other, imm.spacings, order, ws)
    assert np.array_equal(first, kept)
    assert np.array_equal(first, stage(imm.points, imm.spacings, order))
    assert np.array_equal(second, stage(other, imm.spacings, order))
    assert np.array_equal(first, _roll_stage(imm.points, imm.spacings, order))


def test_stage_and_shape_field_make_no_roll_calls(monkeypatch):
    calls = []
    real_roll = np.roll

    def counting_roll(*args, **kwargs):
        calls.append(1)
        return real_roll(*args, **kwargs)

    monkeypatch.setattr(np, "roll", counting_roll)
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (16, 16))
    mb.evolve_membrane(imm, 1e-3, 2e-3, stride=1, order=4)
    assert len(calls) == 0


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_stability_guard():
    imm = dg.torus_immersion(1.0, 2.0, (32, 32))
    dt_max = mb.stability_limit(dg.pad_planes(imm.points, 2), imm.spacings)
    with pytest.raises(ValueError, match="stability"):
        mb.evolve_membrane(imm, 2.0 * dt_max, 10 * dt_max, stride=1)


def test_torus_evolution_matches_closed_forms():
    imm = dg.torus_immersion(1.0, 2.0, (32, 32))
    traj = mb.evolve_membrane(imm, 5e-4, 0.05, stride=25, order=2)
    s0 = sp.SphereProductState(1, 1, 1.0, 2.0)
    for t, snap in zip(traj.times, traj.states):
        ex = sp.closed_form(s0, t)
        a, b = mb.extract_radii(snap)
        assert abs(a - ex.a) < 1e-3 and abs(b - ex.b) < 1e-3


def test_volume_conserved_and_willmore_not():
    imm = dg.torus_immersion(1.0, 2.0, (32, 32))
    traj = mb.evolve_membrane(imm, 5e-4, 0.1, stride=50, order=2)
    fields = [dg.shape_field(snap, order=2) for snap in traj.states]
    vols = [dg.integrate_density(sf, np.ones_like(sf.rho)) for sf in fields]
    assert max(abs(v / vols[0] - 1.0) for v in vols) < 2e-3
    w = [dg.willmore_energy(f) for f in fields]
    assert w[-1] > w[0] * 1.05  # energy genuinely moves


def test_volume_drift_improves_under_refinement():
    # square grids conserve the discrete volume exactly (symmetric stencils);
    # rectangular grids expose the O(h^2) drift, which must shrink at
    # order >= 1.8
    drifts = []
    for (n1, n2) in ((24, 48), (48, 96)):
        imm = dg.torus_immersion(1.0, 2.0, (n1, n2))
        traj = mb.evolve_membrane(imm, 5e-4, 0.1, stride=100, order=2)
        fields = [dg.shape_field(snap, order=2) for snap in traj.states]
        vols = [dg.integrate_density(sf, np.ones_like(sf.rho)) for sf in fields]
        drifts.append(max(abs(v / vols[0] - 1.0) for v in vols))
    assert math.log2(drifts[0] / drifts[1]) >= 1.8


# ---------------------------------------------------------------------------
# continuity equation with source
# ---------------------------------------------------------------------------

def test_continuity_residual_exact_torus():
    fields, span = exact_torus_triple(1.0, 2.0, 1e-4, (64, 64), order=4)
    _, worst = mb.continuity_residual(fields, span)
    assert worst <= 1e-3
    sfm, _, sfp = fields
    drho = (sfp.rho - sfm.rho) / span
    assert np.abs(drho - 0.75).max() <= 1e-3


def test_continuity_residual_equal_radii():
    _, worst = mb.continuity_residual(*exact_torus_triple(1.3, 1.3, 1e-4, (48, 48), order=4))
    assert worst <= 1e-6


def test_continuity_converges_on_evolved_data():
    worst = [mb.continuity_residual(*evolved_perturbed_triple(n))[1] for n in (48, 96)]
    order = math.log2(worst[0] / worst[1])
    assert order >= 1.5, f"observed order {order:.2f}"


# ---------------------------------------------------------------------------
# contracted (vector) form
# ---------------------------------------------------------------------------

def corollary_residual(fields, span):
    """Normal-vector residual of the contracted continuity form at the middle
    of the shape fields (i - 1, i, i + 1), span apart end to end.  The
    program reports only the scalar continuity residual; these tests pin how
    the vector form relates to it.  The residual is (d, *s) planes."""
    sfm, sf0, sfp = fields
    dH = dg.project_normal(sf0, (sfp.H - sfm.H) / span)
    gradH = np.stack([dg.normal_derivative(sf0, sf0.H, j) for j in range(2)])
    advect = 2.0 * np.einsum("ij...,i...,jd...->d...", sf0.g_inv, sf0.tau, gradH)
    div_tau = dg.metric_divergence(sf0, np.einsum("ij...,j...->i...", sf0.g_inv, sf0.tau))
    p = np.einsum("ijd...,d...->ij...", sf0.A, sf0.jh)
    quad = np.einsum("ik...,jl...,kl...,ijd...->d...", sf0.g_inv, sf0.g_inv, p, sf0.A)
    resid = dH + advect + div_tau * sf0.H + quad
    return resid, float(np.nanmax(np.linalg.norm(resid, axis=0)))


def test_corollary_residual_small_on_torus():
    _, worst = corollary_residual(*exact_torus_triple(1.0, 2.0, 1e-4, (64, 64), order=4))
    assert worst <= 1e-3


def test_corollary_contraction_matches_continuity_identically():
    fields, span = evolved_perturbed_triple(32)
    sfm, sf0, sfp = fields
    res, _ = corollary_residual(fields, span)
    lhs = 2.0 * np.einsum("d...,d...->...", res, sf0.H)

    # continuity residual in the expanded grouping the contraction produces
    dH = dg.project_normal(sf0, (sfp.H - sfm.H) / span)
    tau = dg.torsion_form(sf0)
    gradH = np.stack([dg.normal_derivative(sf0, sf0.H, j) for j in range(2)])
    div_tau = dg.metric_divergence(sf0, np.einsum("ij...,j...->i...", sf0.g_inv, tau))
    expanded = (
        2.0 * np.einsum("d...,d...->...", dH, sf0.H)
        + 4.0 * np.einsum("ij...,i...,jd...,d...->...", sf0.g_inv, tau, gradH, sf0.H)
        + 2.0 * div_tau * sf0.rho
        - dg.source_term(sf0)
    )
    assert np.abs(lhs - expanded).max() <= 1e-10


def test_corollary_flags_frozen_trajectory():
    imm = dg.torus_immersion(1.0, 2.0, (32, 32))
    _, worst = corollary_residual(frozen_triple(imm), 2e-4)
    assert worst > 0.1


def test_corollary_vector_form_fails_off_torus():
    """The vector form holds only in its H-component; the J h-component tends
    to -(Lap|H| + |H||tau|^2), which vanishes on products of circles but not
    on general solutions.  Documented finding, kept as a regression check."""
    fields, span = evolved_perturbed_triple(96)
    sf0 = fields[1]
    res, _ = corollary_residual(fields, span)
    absH = np.sqrt(sf0.rho)
    h_sec = sf0.H / absH
    jh = dg.apply_j(sf0, h_sec)
    res_h = np.einsum("d...,d...->...", res, h_sec)
    res_jh = np.einsum("d...,d...->...", res, jh)
    tau = dg.torsion_form(sf0)
    tau_sq = np.einsum("ij...,i...,j...->...", sf0.g_inv, tau, tau)
    predicted = -(dg.laplace_beltrami(sf0, absH) + absH * tau_sq)
    assert np.abs(res_jh - predicted).max() < 0.15      # the defect field
    assert np.abs(predicted).max() > 1.0                 # and it is not small
    assert np.abs(res_h).max() < 0.15                    # H-component does vanish


# ---------------------------------------------------------------------------
# momentum equation
# ---------------------------------------------------------------------------

def test_momentum_residual_tiny_on_torus():
    _, worst = mb.momentum_residual(*exact_torus_triple(1.0, 2.0, 1e-4, (64, 64), order=4))
    assert worst <= 1e-6


def test_momentum_flags_frozen_trajectory():
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (32, 32))
    _, worst = mb.momentum_residual(frozen_triple(imm), 2e-4)
    assert worst > 0.1


def test_momentum_sign_of_squared_form_gradient():
    """Regression for the sign of the grad(Q/|H|^2) term: with the opposite
    sign the residual stops decreasing under refinement (it tends to
    |2 grad(Q/rho)|), while the implemented form keeps converging."""
    resids, resids_flipped = [], []
    for n in (48, 96):
        fields, span = evolved_perturbed_triple(n)
        sf0 = fields[1]
        res, worst = mb.momentum_residual(fields, span)
        jh = dg.apply_j(sf0, sf0.H)
        p = np.einsum("ijd...,d...->ij...", sf0.A, jh)
        q = np.einsum("mk...,jl...,mj...,kl...->...", sf0.g_inv, sf0.g_inv, p, p)
        hs = sf0.immersion.spacings
        grad_q = np.stack([dg.diff(q / sf0.rho, k, hs[k], sf0.order) for k in range(2)])
        resids.append(worst)
        resids_flipped.append(float(np.max(np.abs(res + 2.0 * grad_q))))
    assert math.log2(resids[0] / resids[1]) >= 1.0
    assert resids_flipped[1] / resids_flipped[0] > 0.5  # stalls instead of halving


# ---------------------------------------------------------------------------
# energy identity
# ---------------------------------------------------------------------------

def test_energy_identity_on_torus_run():
    imm = dg.torus_immersion(1.0, 2.0, (48, 48))
    traj = mb.evolve_membrane(imm, 5e-4, 0.02, stride=10, order=4)
    fields = [dg.shape_field(snap, order=4) for snap in traj.states]
    w = [dg.willmore_energy(sf) for sf in fields]
    rate = [dg.energy_derivative_integrand(sf)[1] for sf in fields]
    for i in range(1, len(fields) - 1):
        span = traj.times[i + 1] - traj.times[i - 1]
        lhs, rhs, gap = mb.energy_identity_check(w[i - 1], w[i + 1], span, rate[i])
        assert rhs == rate[i] and gap == lhs - rhs
        assert abs(gap) <= 0.01 * abs(rhs)
    assert abs(rate[0] / (8 * math.pi ** 2 * 0.75) - 1.0) < 5e-3


def test_energy_identity_equal_radii_instant():
    imm = dg.torus_immersion(1.4, 1.4, (32, 32))
    _, rhs = dg.energy_derivative_integrand(dg.shape_field(imm))
    assert abs(rhs) < 1e-10


def test_energy_identity_1d_regression():
    # a closed curve fed through the same machinery: the rate vanishes
    # identically and the measured dW/dt is pure truncation noise
    c0 = fl.arclength_resample(fl.perturbed_circle(1.0, 0.05, 3, 128))
    dt = 2e-4
    traj = fl.evolve_filament(c0, dt, 4 * dt, stride=1)
    sfm, sf0, sfp = (dg.shape_field(c, order=4) for c in traj.states[1:4])
    lhs, rhs, _ = mb.energy_identity_check(
        dg.willmore_energy(sfm), dg.willmore_energy(sfp), traj.times[3] - traj.times[1],
        dg.energy_derivative_integrand(sf0)[1])
    assert abs(rhs) < 1e-12
    assert abs(lhs) < 1e-4


# ---------------------------------------------------------------------------
# trajectory plumbing
# ---------------------------------------------------------------------------

def test_diagnostics_table():
    imm = dg.torus_immersion(1.0, 2.0, (16, 16))
    traj = mb.evolve_membrane(imm, 1e-3, 0.02, stride=5, order=2)
    cols = mb.diagnostics(traj, 2)
    n = len(traj.states)
    for key in ("t", "willmore", "volume", "a_extracted", "b_extracted",
                "max_continuity_residual", "max_momentum_residual", "energy_gap"):
        assert cols[key].shape == (n,)
    assert np.isnan(cols["max_continuity_residual"][0])
    assert np.isnan(cols["max_continuity_residual"][-1])
    assert np.isfinite(cols["max_continuity_residual"][1:-1]).all()
    assert abs(cols["a_extracted"][0] - 1.0) < 1e-12


def test_diagnostics_computes_each_torsion_form_once(monkeypatch):
    calls = []
    torsion_form = dg.torsion_form

    def counted(sf):
        # keyed by the snapshot, which traj keeps alive: a dropped field's
        # id can be reused by a later field
        calls.append(id(sf.immersion))
        return torsion_form(sf)

    monkeypatch.setattr(dg, "torsion_form", counted)
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (16, 16))
    traj = mb.evolve_membrane(imm, 1e-3, 0.005, stride=1, order=2)
    mb.diagnostics(traj, 2)
    assert len(calls) == len(set(calls)) == len(traj.states)
    assert set(calls) == {id(snap) for snap in traj.states}


def test_curvature_check_reads_the_same_torsion_on_fresh_and_used_fields():
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (32, 32))
    traj = mb.evolve_membrane(imm, 1e-3, 0.002, stride=1, order=2)
    fields = [dg.shape_field(snap, order=2) for snap in traj.states]
    span = traj.times[2] - traj.times[0]
    mb.continuity_residual(fields, span)
    mb.momentum_residual(fields, span)
    used = fields[1]  # the residuals read its torsion
    fresh = dg.shape_field(traj.states[1], order=2)
    assert "tau" in vars(used) and "tau" not in vars(fresh)
    for a, b in zip(dg.normal_curvature_check(fresh), dg.normal_curvature_check(used)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert fresh.tau.tobytes() == used.tau.tobytes()


def _recorded_shape_fields(monkeypatch):
    """Patch dg.shape_field to keep a weak reference to every field it builds
    and the immersion it built it from.

    Returns (refs, peak, sources): peak[0] is the most fields alive right
    after any build, which bounds the count at every other moment."""
    refs, peak, sources, shape_field = [], [0], [], dg.shape_field

    def recorded(imm, order=2, **kwargs):
        sf = shape_field(imm, order=order, **kwargs)
        refs.append(weakref.ref(sf))
        sources.append(imm)
        peak[0] = max(peak[0], sum(r() is not None for r in refs))
        return sf

    monkeypatch.setattr(dg, "shape_field", recorded)
    return refs, peak, sources


def _live_shape_fields():
    gc.collect()
    return sum(isinstance(obj, dg.ShapeField) for obj in gc.get_objects())


@pytest.mark.parametrize("steps,stride", [(6, 1), (6, 3), (4, 4)])
def test_each_snapshot_shape_field_is_computed_once(monkeypatch, steps, stride):
    # one field per snapshot, the initial one included, which diagnostics
    # builds and its residuals share; the RK4 stages and the stability
    # guard build none
    refs, _, sources = _recorded_shape_fields(monkeypatch)
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (16, 16))
    traj = mb.evolve_membrane(imm, 1e-3, steps * 1e-3, stride=stride, order=2)
    mb.diagnostics(traj, 2)
    assert len(refs) == steps // stride + 1
    assert all(src is snap for src, snap in zip(sources, traj.states, strict=True))


def test_diagnostics_streams_through_three_shape_fields(monkeypatch):
    refs, peak, _ = _recorded_shape_fields(monkeypatch)
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (16, 16))
    live = _live_shape_fields()
    traj = mb.evolve_membrane(imm, 1e-3, 8e-3, stride=1, order=2)
    assert len(traj.states) == 9
    assert refs == [] and _live_shape_fields() == live  # the trajectory holds no fields
    mb.diagnostics(traj, 2)
    assert len(refs) == 9 and peak[0] == 3


@pytest.mark.parametrize("stride", [1, 2])
def test_diagnostics_leaves_no_shape_field_alive(monkeypatch, stride):
    # the window of the last three fields is local to the call: once it
    # returns, the trajectory it read is still alive and none of its fields
    refs, peak, _ = _recorded_shape_fields(monkeypatch)
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (16, 16))
    live = _live_shape_fields()
    traj = mb.evolve_membrane(imm, 1e-3, 8e-3, stride=stride, order=2)
    mb.diagnostics(traj, 2)
    assert len(refs) == len(traj.states) and peak[0] <= 3
    assert [r() for r in refs] == [None] * len(refs)
    assert _live_shape_fields() == live


def test_abort_trajectory_diagnostics_equal_a_clean_run(monkeypatch):
    from skewflow.errors import DegenerateImmersionError, EvolutionAbort

    original, calls = mb.smc_rhs, [0]

    def failing(points, spacings, order, ws):
        calls[0] += 1
        if calls[0] > 4 * 5:  # step 6 fails
            raise DegenerateImmersionError((0, 0), 0.0)
        return original(points, spacings, order, ws)

    monkeypatch.setattr(mb, "smc_rhs", failing)
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (16, 16))
    with pytest.raises(EvolutionAbort) as err:
        mb.evolve_membrane(imm, 1e-3, 0.01, stride=2, order=2)
    monkeypatch.setattr(mb, "smc_rhs", original)
    traj = err.value.trajectory
    assert type(traj) is Trajectory
    assert list(traj.times) == [0.0, 2e-3, 4e-3] and len(traj.states) == 3

    refs, _, sources = _recorded_shape_fields(monkeypatch)
    cols = mb.diagnostics(traj, 2)
    assert len(refs) == 3
    assert all(src is snap for src, snap in zip(sources, traj.states, strict=True))

    clean = mb.diagnostics(mb.evolve_membrane(imm, 1e-3, 4e-3, stride=2, order=2), 2)
    assert list(cols) == list(clean)
    for key in cols:
        assert cols[key].tobytes() == clean[key].tobytes(), key
    assert np.isfinite(cols["max_momentum_residual"][1])
