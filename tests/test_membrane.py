"""Tests for the membrane flow and its diagnostic residuals."""

import math

import numpy as np
import pytest

from skewflow import diffgeo as dg
from skewflow import filament as fl
from skewflow import membrane as mb
from skewflow import sphereprod as sp


def exact_torus_trajectory(a, b, dt, shape, order):
    s0 = sp.SphereProductState(1, 1, a, b)
    times = np.array([-dt, 0.0, dt])
    snaps = [sp.embed(sp.closed_form(s0, t), shape) for t in times]
    return mb.MembraneTrajectory(times, snaps, order=order)


def evolved_perturbed_trajectory(n, order=2):
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (n, n))
    dt = 0.25 * mb.stability_limit(dg.shape_field(imm, order=order))
    return mb.evolve_membrane(imm, dt, 2 * dt, stride=1, order=order)


# ---------------------------------------------------------------------------
# velocity field
# ---------------------------------------------------------------------------

def test_smc_velocity_on_torus():
    a, b = 1.0, 2.0
    imm = dg.torus_immersion(a, b, (64, 64))
    v = mb.smc_rhs(imm.points, imm.spacings)
    th = np.arange(64) * 2 * np.pi / 64
    TH, PH = np.meshgrid(th, th, indexing="ij")
    n1 = np.stack([np.cos(TH), np.sin(TH), 0 * TH, 0 * TH], axis=-1)
    n2 = np.stack([0 * PH, 0 * PH, np.cos(PH), np.sin(PH)], axis=-1)
    h = 2 * np.pi / 64
    assert np.abs(v - (-n1 / b + n2 / a)).max() < h * h


def test_smc_velocity_is_normal_isometry():
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (32, 32))
    sf = dg.shape_field(imm)
    v = mb.smc_rhs(imm.points, imm.spacings)
    assert (dg.tangential_defect(sf, v) <= sf.tol_perp).all()
    assert np.abs(np.einsum("...d,...d->...", v, v) - sf.rho).max() < 1e-12


@pytest.mark.parametrize("order", [2, 4])
def test_smc_rhs_matches_the_shape_field_path(order):
    # n1 != n2 and unequal, non-2pi periods: an axis or spacing mix-up shows
    base = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (24, 40))
    imm = dg.GridImmersion(base.points, (3.0, 5.0))
    sf = dg.shape_field(imm, order=order)
    expected = -dg.apply_j(sf, sf.mean_curvature)
    v = mb.smc_rhs(imm.points, imm.spacings, order)
    assert v.shape == imm.points.shape
    assert np.abs(v - expected).max() <= 1e-13 * np.abs(expected).max()
    # and against det[t_1, t_2, H, e_l] / sqrt(det g), which shares no code
    # with the Pluecker form that smc_rhs and apply_j both use
    cols = np.concatenate([np.moveaxis(sf.tangents, -2, -1), sf.mean_curvature[..., None]], -1)
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
    with pytest.raises(DegenerateImmersionError, match="grid index") as err:
        mb.smc_rhs(collapsed, imm.spacings, 2)
    assert err.value.grid_index == (5, 0)
    assert err.value.det_value == 0.0


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_stability_guard():
    imm = dg.torus_immersion(1.0, 2.0, (32, 32))
    dt_max = mb.stability_limit(dg.shape_field(imm))
    with pytest.raises(ValueError, match="stability"):
        mb.evolve_membrane(imm, 2.0 * dt_max, 10 * dt_max, stride=1)


def test_torus_evolution_matches_closed_forms():
    imm = dg.torus_immersion(1.0, 2.0, (32, 32))
    traj = mb.evolve_membrane(imm, 5e-4, 0.05, stride=25, order=2)
    s0 = sp.SphereProductState(1, 1, 1.0, 2.0)
    for t, snap in zip(traj.times, traj.snapshots):
        ex = sp.closed_form(s0, t)
        a, b = mb.extract_radii(snap)
        assert abs(a - ex.a) < 1e-3 and abs(b - ex.b) < 1e-3


def test_volume_conserved_and_willmore_not():
    imm = dg.torus_immersion(1.0, 2.0, (32, 32))
    traj = mb.evolve_membrane(imm, 5e-4, 0.1, stride=50, order=2)
    fields = [traj.fields(i) for i in range(len(traj.snapshots))]
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
        fields = [traj.fields(i) for i in range(len(traj.snapshots))]
        vols = [dg.integrate_density(sf, np.ones_like(sf.rho)) for sf in fields]
        drifts.append(max(abs(v / vols[0] - 1.0) for v in vols))
    assert math.log2(drifts[0] / drifts[1]) >= 1.8


# ---------------------------------------------------------------------------
# continuity equation with source
# ---------------------------------------------------------------------------

def test_continuity_residual_exact_torus():
    traj = exact_torus_trajectory(1.0, 2.0, 1e-4, (64, 64), order=4)
    _, worst = mb.continuity_residual(traj, 1)
    assert worst <= 1e-3
    sfm, _, sfp = traj.fields(0), traj.fields(1), traj.fields(2)
    drho = (sfp.rho - sfm.rho) / (traj.times[2] - traj.times[0])
    assert np.abs(drho - 0.75).max() <= 1e-3


def test_continuity_residual_equal_radii():
    traj = exact_torus_trajectory(1.3, 1.3, 1e-4, (48, 48), order=4)
    _, worst = mb.continuity_residual(traj, 1)
    assert worst <= 1e-6


def test_continuity_converges_on_evolved_data():
    worst = [mb.continuity_residual(evolved_perturbed_trajectory(n), 1)[1]
             for n in (48, 96)]
    order = math.log2(worst[0] / worst[1])
    assert order >= 1.5, f"observed order {order:.2f}"


# ---------------------------------------------------------------------------
# contracted (vector) form
# ---------------------------------------------------------------------------

def test_corollary_residual_small_on_torus():
    traj = exact_torus_trajectory(1.0, 2.0, 1e-4, (64, 64), order=4)
    _, worst = mb.corollary_residual(traj, 1)
    assert worst <= 1e-3


def test_corollary_contraction_matches_continuity_identically():
    traj = evolved_perturbed_trajectory(32)
    fields = (traj.fields(0), traj.fields(1), traj.fields(2))
    sfm, sf0, sfp = fields
    res, _ = mb.corollary_residual(traj, 1)
    lhs = 2.0 * np.einsum("...d,...d->...", res, sf0.mean_curvature)

    # continuity residual in the expanded grouping the contraction produces
    span = traj.times[2] - traj.times[0]
    dH = dg.project_normal(sf0, (sfp.mean_curvature - sfm.mean_curvature) / span)
    tau, _ = dg.torsion_form(sf0)
    gradH = np.stack(
        [dg.normal_derivative(sf0, sf0.mean_curvature, j) for j in range(2)], axis=-2
    )
    div_tau = dg.metric_divergence(
        sf0, np.einsum("...ij,...j->...i", sf0.metric_inv, tau)
    )
    expanded = (
        2.0 * np.einsum("...d,...d->...", dH, sf0.mean_curvature)
        + 4.0 * np.einsum(
            "...ij,...i,...jd,...d->...", sf0.metric_inv, tau, gradH, sf0.mean_curvature
        )
        + 2.0 * div_tau * sf0.rho
        - dg.source_term(sf0)
    )
    assert np.abs(lhs - expanded).max() <= 1e-10


def test_corollary_flags_frozen_trajectory():
    imm = dg.torus_immersion(1.0, 2.0, (32, 32))
    frozen = mb.MembraneTrajectory(np.array([0.0, 1e-4, 2e-4]), [imm, imm, imm], order=2)
    _, worst = mb.corollary_residual(frozen, 1)
    assert worst > 0.1


def test_corollary_vector_form_fails_off_torus():
    """The vector form holds only in its H-component; the J h-component tends
    to -(Lap|H| + |H||tau|^2), which vanishes on products of circles but not
    on general solutions.  Documented finding, kept as a regression check."""
    traj = evolved_perturbed_trajectory(96)
    sf0 = traj.fields(1)
    res, _ = mb.corollary_residual(traj, 1)
    absH = np.sqrt(sf0.rho)
    h_sec = sf0.mean_curvature / absH[..., None]
    jh = dg.apply_j(sf0, h_sec)
    res_h = np.einsum("...d,...d->...", res, h_sec)
    res_jh = np.einsum("...d,...d->...", res, jh)
    tau, _ = dg.torsion_form(sf0)
    tau_sq = np.einsum("...ij,...i,...j->...", sf0.metric_inv, tau, tau)
    predicted = -(dg.laplace_beltrami(sf0, absH) + absH * tau_sq)
    assert np.abs(res_jh - predicted).max() < 0.15      # the defect field
    assert np.abs(predicted).max() > 1.0                 # and it is not small
    assert np.abs(res_h).max() < 0.15                    # H-component does vanish


# ---------------------------------------------------------------------------
# momentum equation
# ---------------------------------------------------------------------------

def test_momentum_residual_tiny_on_torus():
    traj = exact_torus_trajectory(1.0, 2.0, 1e-4, (64, 64), order=4)
    _, worst = mb.momentum_residual(traj, 1)
    assert worst <= 1e-6


def test_momentum_flags_frozen_trajectory():
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (32, 32))
    frozen = mb.MembraneTrajectory(np.array([0.0, 1e-4, 2e-4]), [imm, imm, imm], order=2)
    _, worst = mb.momentum_residual(frozen, 1)
    assert worst > 0.1


def test_momentum_sign_of_squared_form_gradient():
    """Regression for the sign of the grad(Q/|H|^2) term: with the opposite
    sign the residual stops decreasing under refinement (it tends to
    |2 grad(Q/rho)|), while the implemented form keeps converging."""
    resids, resids_flipped = [], []
    for n in (48, 96):
        traj = evolved_perturbed_trajectory(n)
        sf0 = traj.fields(1)
        res, worst = mb.momentum_residual(traj, 1)
        jh = dg.apply_j(sf0, sf0.mean_curvature)
        p = np.einsum("...ijd,...d->...ij", sf0.second_form, jh)
        q = np.einsum("...mk,...jl,...mj,...kl->...",
                      sf0.metric_inv, sf0.metric_inv, p, p)
        hs = sf0.immersion.spacings
        grad_q = np.stack(
            [dg.diff(q / sf0.rho, k, hs[k], sf0.order) for k in range(2)], axis=-1
        )
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
    for i in range(1, len(traj.snapshots) - 1):
        lhs, rhs, gap = mb.energy_identity_check(traj, i)
        assert abs(gap) <= 0.01 * abs(rhs)
    _, rhs0 = dg.energy_derivative_integrand(traj.fields(0))
    assert abs(rhs0 / (8 * math.pi ** 2 * 0.75) - 1.0) < 5e-3


def test_energy_identity_equal_radii_instant():
    imm = dg.torus_immersion(1.4, 1.4, (32, 32))
    _, rhs = dg.energy_derivative_integrand(dg.shape_field(imm))
    assert abs(rhs) < 1e-10


def test_energy_identity_1d_regression():
    # a closed curve fed through the same machinery: the rate vanishes
    # identically and the measured dW/dt is pure truncation noise
    c0 = fl.arclength_resample(fl.perturbed_circle(1.0, 0.05, 3, 128))
    dt = 2e-4
    traj_f = fl.evolve_filament(c0, dt, 4 * dt, stride=1, reparam_every=0)
    traj = mb.MembraneTrajectory(np.array(traj_f.times), traj_f.states, order=4)
    lhs, rhs, _ = mb.energy_identity_check(traj, 2)
    assert abs(rhs) < 1e-12
    assert abs(lhs) < 1e-4


# ---------------------------------------------------------------------------
# trajectory plumbing
# ---------------------------------------------------------------------------

def test_trajectory_validation():
    imm = dg.torus_immersion(1.0, 2.0, (16, 16))
    with pytest.raises(ValueError):
        mb.MembraneTrajectory(np.array([0.0, 0.0]), [imm, imm])
    with pytest.raises(ValueError):
        mb.MembraneTrajectory(np.array([0.0, 1.0]), [imm])
    traj = mb.MembraneTrajectory(np.array([0.0, 1e-3, 2e-3]), [imm, imm, imm])
    with pytest.raises(IndexError):
        mb.continuity_residual(traj, 0)


def test_diagnostics_table():
    imm = dg.torus_immersion(1.0, 2.0, (16, 16))
    traj = mb.evolve_membrane(imm, 1e-3, 0.02, stride=5, order=2)
    cols = mb.diagnostics(traj)
    n = len(traj.snapshots)
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
        calls.append(id(sf))
        return torsion_form(sf)

    monkeypatch.setattr(dg, "torsion_form", counted)
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (16, 16))
    traj = mb.evolve_membrane(imm, 1e-3, 0.005, stride=1, order=2)
    mb.diagnostics(traj)
    assert len(calls) == len(set(calls)) == len(traj.snapshots)


@pytest.mark.parametrize("steps,stride", [(6, 1), (6, 3), (4, 4)])
def test_each_snapshot_shape_field_is_computed_once(monkeypatch, steps, stride):
    # the up-front stability estimate and one field per recorded snapshot,
    # which the guard, diagnostics and the residuals all share; the RK4
    # stages build none
    calls = [0]
    shape_field = dg.shape_field

    def counted(imm, order=2):
        calls[0] += 1
        return shape_field(imm, order=order)

    monkeypatch.setattr(dg, "shape_field", counted)
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (16, 16))
    traj = mb.evolve_membrane(imm, 1e-3, steps * 1e-3, stride=stride, order=2)
    mb.diagnostics(traj)
    assert calls[0] == steps // stride + 1
    assert all(traj.fields(i).immersion is snap for i, snap in enumerate(traj.snapshots))


def test_abort_carries_the_shape_fields_of_its_snapshots(monkeypatch):
    from skewflow.errors import DegenerateImmersionError, EvolutionAbort

    original, calls = mb.smc_rhs, [0]

    def failing(points, spacings, order):
        calls[0] += 1
        if calls[0] > 4 * 5:  # step 6 fails
            raise DegenerateImmersionError((0, 0), 0.0)
        return original(points, spacings, order)

    monkeypatch.setattr(mb, "smc_rhs", failing)
    imm = dg.torus_immersion(1.0, 2.0, (16, 16))
    with pytest.raises(EvolutionAbort) as err:
        mb.evolve_membrane(imm, 1e-3, 0.01, stride=2, order=2)
    traj = err.value.trajectory
    assert isinstance(traj, mb.MembraneTrajectory)
    assert len(traj.snapshots) == 3
    assert all(sf is not None and sf.immersion is snap
               for sf, snap in zip(traj.shape_fields, traj.snapshots))
