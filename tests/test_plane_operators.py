"""The shape-field operators on component planes against their per-point
einsum forms.

The reference functions below are the operators and residuals as they were
written on per-point arrays (*s, ..., d), contracting the trailing axes with
np.einsum.  The plane versions sum the same terms in another order, so the
two agree to roundoff, not bitwise.
"""

import numpy as np
import pytest

from skewflow import diffgeo as dg
from skewflow import membrane as mb

RTOL = 1e-12


# ---------------------------------------------------------------------------
# per-point einsum references
# ---------------------------------------------------------------------------

def ref_project_normal(sf, X):
    b = np.einsum("...id,...d->...i", sf.tangents, X)
    alpha = np.einsum("...ij,...j->...i", sf.metric_inv, b)
    return X - np.einsum("...i,...id->...d", alpha, sf.tangents)


def ref_normal_derivative(sf, X, axis):
    h = sf.immersion.spacings[axis]
    return ref_project_normal(sf, dg.diff(X, axis, h, sf.order))


def ref_apply_j(sf, v):
    """-(t_1 x ... x t_n x v) / sqrt(det g), component l the determinant
    det[t_1, ..., t_n, v, e_l]."""
    d = v.shape[-1]
    cols = np.concatenate([np.moveaxis(sf.tangents, -2, -1), v[..., None]], axis=-1)
    cross = np.stack([
        np.linalg.det(np.concatenate([cols, np.broadcast_to(e[:, None], cols.shape[:-1] + (1,))],
                                     axis=-1))
        for e in np.eye(d)], axis=-1)
    return -cross / sf.sqrt_det_g[..., None]


def ref_torsion_form(sf):
    absH = np.sqrt(sf.rho)
    mask = absH < dg.H_MIN
    safe = np.where(mask, 1.0, absH)
    h_sec = sf.mean_curvature / safe[..., None]
    jh = ref_apply_j(sf, h_sec)
    tau = np.stack(
        [-np.einsum("...d,...d->...", ref_normal_derivative(sf, h_sec, i), jh)
         for i in range(sf.immersion.dim)],
        axis=-1,
    )
    tau[mask] = np.nan
    return tau


def ref_source_term(sf):
    jh = ref_apply_j(sf, sf.mean_curvature)
    s = np.einsum("...ijd,...d->...ij", sf.second_form, sf.mean_curvature)
    p = np.einsum("...ijd,...d->...ij", sf.second_form, jh)
    return -2.0 * np.einsum("...ik,...jl,...ij,...kl->...", sf.metric_inv, sf.metric_inv, s, p)


def ref_laplace_beltrami(sf, scalar):
    n, hs = sf.immersion.dim, sf.immersion.spacings
    grad = np.stack([dg.diff(scalar, i, hs[i], sf.order) for i in range(n)], axis=-1)
    flux = np.einsum("...ij,...j->...i", sf.metric_inv, grad)
    return dg.metric_divergence(sf, flux)


def ref_normal_curvature_check(sf):
    imm = sf.immersion
    e1, e2 = dg._edge_integrals(ref_torsion_form(sf), imm.spacings)
    dtau = dg._plaquette_curl(e1, e2, imm.spacings)
    h = sf.mean_curvature / np.sqrt(sf.rho)[..., None]
    d0d1 = ref_normal_derivative(sf, ref_normal_derivative(sf, h, 1), 0)
    d1d0 = ref_normal_derivative(sf, ref_normal_derivative(sf, h, 0), 1)
    r_perp_pts = np.einsum("...d,...d->...", d0d1 - d1d0, ref_apply_j(sf, h))
    r_perp = 0.25 * (
        r_perp_pts
        + np.roll(r_perp_pts, -1, axis=0)
        + np.roll(r_perp_pts, -1, axis=1)
        + np.roll(np.roll(r_perp_pts, -1, axis=0), -1, axis=1)
    )
    return dtau, r_perp, float(np.max(np.abs(dtau + r_perp)))


def ref_continuity_residual(fields, span):
    sfm, sf0, sfp = fields
    d_rho = (sfp.rho - sfm.rho) / span
    chi = 2.0 * np.einsum("...ij,...j->...i", sf0.metric_inv, ref_torsion_form(sf0))
    div = dg.metric_divergence(sf0, sf0.rho[..., None] * chi)
    resid = d_rho + div - ref_source_term(sf0)
    return resid, float(np.nanmax(np.abs(resid)))


def ref_momentum_residual(fields, span):
    sfm, sf0, sfp = fields
    n, hs = sf0.immersion.dim, sf0.immersion.spacings
    tau = ref_torsion_form(sf0)
    d_tau = (ref_torsion_form(sfp) - ref_torsion_form(sfm)) / span

    def grad(scalar):
        return np.stack([dg.diff(scalar, k, hs[k], sf0.order) for k in range(n)], axis=-1)

    tau_sq = np.einsum("...ij,...i,...j->...", sf0.metric_inv, tau, tau)
    absH = np.sqrt(sf0.rho)
    lap_term = grad(ref_laplace_beltrami(sf0, absH) / absH)
    jh = ref_apply_j(sf0, sf0.mean_curvature)
    p = np.einsum("...ijd,...d->...ij", sf0.second_form, jh)
    s = np.einsum("...ijd,...d->...ij", sf0.second_form, sf0.mean_curvature)
    q = np.einsum("...mk,...jl,...mj,...kl->...", sf0.metric_inv, sf0.metric_inv, p, p)
    grad_q = grad(q / sf0.rho)
    djh = np.stack([ref_normal_derivative(sf0, jh, k) for k in range(n)], axis=-2)
    u = np.einsum("...ld,...d->...l", djh, jh)
    w = np.einsum("...kd,...d->...k", djh, sf0.mean_curvature)
    frame_term = (
        np.einsum("...kl,...ik,...l->...i", sf0.metric_inv, s, u)
        - np.einsum("...kl,...il,...k->...i", sf0.metric_inv, p, w)
    ) / sf0.rho[..., None]
    resid = d_tau + grad(tau_sq) - lap_term - grad_q - frame_term
    return resid, float(np.nanmax(np.abs(resid)))


# ---------------------------------------------------------------------------
# the plane versions against them
# ---------------------------------------------------------------------------

def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


@pytest.fixture(scope="module", params=[2, 4])
def triple(request):
    """Shape fields of the first three snapshots of a perturbed torus run on
    a 24 x 40 grid with parameter periods (3, 7), so that the two axes and
    their spacings are told apart, and their time span."""
    order = request.param
    pts = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (24, 40)).points
    imm = dg.GridImmersion(pts, (3.0, 7.0))
    dt = 0.25 * mb.stability_limit(imm, order)
    traj = mb.evolve_membrane(imm, dt, 2 * dt, stride=1, order=order)
    return [dg.shape_field(snap, order=order) for snap in traj.states], traj.times[2] - traj.times[0]


def test_vector_operators_agree_with_the_einsum_forms(triple):
    sf = triple[0][1]
    X = np.random.default_rng(5).standard_normal(sf.mean_curvature.shape)
    _close(dg.project_normal(sf, X), ref_project_normal(sf, X))
    _close(dg.apply_j(sf, sf.mean_curvature), ref_apply_j(sf, sf.mean_curvature))
    for axis in (0, 1):
        _close(dg.normal_derivative(sf, sf.mean_curvature, axis),
               ref_normal_derivative(sf, sf.mean_curvature, axis))


def test_scalar_operators_agree_with_the_einsum_forms(triple):
    sf = triple[0][1]
    _close(dg.torsion_form(sf), ref_torsion_form(sf))
    _close(dg.source_term(sf), ref_source_term(sf))
    absH = np.sqrt(sf.rho)
    _close(dg.laplace_beltrami(sf, absH), ref_laplace_beltrami(sf, absH))
    got, want = dg.normal_curvature_check(sf), ref_normal_curvature_check(sf)
    for a, b in zip(got, want):
        _close(a, b)


def test_residuals_agree_with_the_einsum_forms(triple):
    fields, span = triple
    for plane, ref in ((mb.continuity_residual, ref_continuity_residual),
                       (mb.momentum_residual, ref_momentum_residual)):
        (got, worst), (want, want_worst) = plane(fields, span), ref(fields, span)
        _close(got, want)
        assert abs(worst - want_worst) <= RTOL * want_worst


def test_per_point_names_are_read_only_views_of_the_planes(triple):
    sf = triple[0][1]
    for name, planes, k in (("tangents", sf.t, 2), ("metric", sf.g, 2),
                            ("metric_inv", sf.g_inv, 2), ("second_form", sf.A, 3),
                            ("mean_curvature", sf.H, 1)):
        view = getattr(sf, name)
        assert planes.flags.c_contiguous and not planes.flags.writeable, name
        assert not view.flags.writeable and np.shares_memory(view, planes), name
        assert view.shape == planes.shape[k:] + planes.shape[:k], name
        assert np.array_equal(view, np.moveaxis(planes, tuple(range(k)), tuple(range(-k, 0))))
        with pytest.raises(ValueError, match="read-only"):
            view[(0,) * view.ndim] = 1.0


def test_diagnostics_make_no_einsum_call(monkeypatch):
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (16, 16))
    traj = mb.evolve_membrane(imm, 1e-3, 4e-3, stride=1, order=4)

    def no_einsum(*args, **kwargs):
        raise AssertionError("np.einsum called on the diagnostics path")

    monkeypatch.setattr(np, "einsum", no_einsum)
    cols = mb.diagnostics(traj, 4)
    assert np.isfinite(cols["max_momentum_residual"][1:-1]).all()
    assert np.isfinite(cols["energy_gap"][1:-1]).all()
