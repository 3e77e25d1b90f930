"""The shape-field operators on component planes against their per-point
einsum forms.

The reference functions below are the operators and residuals as they were
written on per-point arrays (*s, ..., d), contracting the trailing axes with
np.einsum.  They read a field's planes through `points`, and the tests compare
the operators' planes with them the same way.  The plane versions sum the
same terms in another order, so the two agree to roundoff, not bitwise.
"""

import numpy as np
import pytest

from skewflow import diffgeo as dg
from skewflow import membrane as mb
from skewflow import validate

RTOL = 1e-12


def points(planes, k=1):
    """Planes (*tail, *s) with k index axes first, as a per-point view
    (*s, *tail)."""
    return np.moveaxis(planes, tuple(range(k)), tuple(range(-k, 0)))


# ---------------------------------------------------------------------------
# per-point einsum references
# ---------------------------------------------------------------------------

def ref_project_normal(sf, X):
    b = np.einsum("...id,...d->...i", points(sf.t, 2), X)
    alpha = np.einsum("...ij,...j->...i", points(sf.g_inv, 2), b)
    return X - np.einsum("...i,...id->...d", alpha, points(sf.t, 2))


def ref_normal_derivative(sf, X, axis):
    h = sf.immersion.spacings[axis]
    return ref_project_normal(sf, dg.diff(X, axis, h, sf.order))


def ref_apply_j(sf, v):
    """-(t_1 x ... x t_n x v) / sqrt(det g), component l the determinant
    det[t_1, ..., t_n, v, e_l]."""
    d = v.shape[-1]
    cols = np.concatenate([np.moveaxis(points(sf.t, 2), -2, -1), v[..., None]], axis=-1)
    cross = np.stack([
        np.linalg.det(np.concatenate([cols, np.broadcast_to(e[:, None], cols.shape[:-1] + (1,))],
                                     axis=-1))
        for e in np.eye(d)], axis=-1)
    return -cross / sf.sqrt_det_g[..., None]


def ref_torsion_form(sf):
    absH = np.sqrt(sf.rho)
    mask = absH < dg.H_MIN
    safe = np.where(mask, 1.0, absH)
    h_sec = points(sf.H) / safe[..., None]
    jh = ref_apply_j(sf, h_sec)
    tau = np.stack(
        [-np.einsum("...d,...d->...", ref_normal_derivative(sf, h_sec, i), jh)
         for i in range(sf.immersion.dim)],
        axis=-1,
    )
    tau[mask] = np.nan
    return tau


def ref_source_term(sf):
    A, H, g_inv = points(sf.A, 3), points(sf.H), points(sf.g_inv, 2)
    jh = ref_apply_j(sf, H)
    s = np.einsum("...ijd,...d->...ij", A, H)
    p = np.einsum("...ijd,...d->...ij", A, jh)
    return -2.0 * np.einsum("...ik,...jl,...ij,...kl->...", g_inv, g_inv, s, p)


def ref_metric_divergence(sf, vec):
    """(1/sqrt g) d_i (sqrt g X^i) of per-point components vec (*s, n)."""
    hs = sf.immersion.spacings
    acc = sum(dg.diff(sf.sqrt_det_g * vec[..., i], i, hs[i], sf.order) for i in range(len(hs)))
    return acc / sf.sqrt_det_g


def ref_laplace_beltrami(sf, scalar):
    n, hs = sf.immersion.dim, sf.immersion.spacings
    grad = np.stack([dg.diff(scalar, i, hs[i], sf.order) for i in range(n)], axis=-1)
    flux = np.einsum("...ij,...j->...i", points(sf.g_inv, 2), grad)
    return ref_metric_divergence(sf, flux)


def ref_christoffel(sf):
    """Gamma^k_ij = 0.5 g^kl (d_i g_lj + d_j g_li - d_l g_ij), (*s, k, i, j)."""
    n, hs = sf.immersion.dim, sf.immersion.spacings
    dgl = np.stack([dg.diff(points(sf.g, 2), l, hs[l], sf.order) for l in range(n)], axis=-3)
    # dgl[..., l, i, j] = d_l g_ij
    t1 = np.einsum("...ilj->...lij", dgl)   # d_i g_lj
    t2 = np.einsum("...jli->...lij", dgl)   # d_j g_li
    return 0.5 * np.einsum("...kl,...lij->...kij", points(sf.g_inv, 2), t1 + t2 - dgl)


def ref_normal_laplacian(sf, V):
    n = sf.immersion.dim
    first = [ref_normal_derivative(sf, V, j) for j in range(n)]
    second = np.empty(sf.immersion.shape + (n, n) + V.shape[-1:])
    for i in range(n):
        for j in range(n):
            second[..., i, j, :] = ref_normal_derivative(sf, first[j], i)
    corr = np.einsum("...kij,...kd->...ijd", ref_christoffel(sf), np.stack(first, axis=-2))
    return np.einsum("...ij,...ijd->...d", points(sf.g_inv, 2), second - corr)


def ref_willmore_gradient(sf):
    A, H, g_inv = points(sf.A, 3), points(sf.H), points(sf.g_inv, 2)
    lap = ref_normal_laplacian(sf, H)
    s = np.einsum("...ijd,...d->...ij", A, H)
    quad = np.einsum("...ik,...jl,...ij,...kld->...d", g_inv, g_inv, s, A)
    return 2.0 * (lap + quad - 0.5 * sf.rho[..., None] * H)


def ref_normal_curvature_check(sf):
    imm = sf.immersion
    tau = ref_torsion_form(sf)
    e1, e2 = dg._edge_integrals((tau[..., 0], tau[..., 1]), imm.spacings)
    dtau = dg._plaquette_curl(e1, e2, imm.spacings)
    h = points(sf.H) / np.sqrt(sf.rho)[..., None]
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
    chi = 2.0 * np.einsum("...ij,...j->...i", points(sf0.g_inv, 2), ref_torsion_form(sf0))
    div = ref_metric_divergence(sf0, sf0.rho[..., None] * chi)
    resid = d_rho + div - ref_source_term(sf0)
    return resid, float(np.nanmax(np.abs(resid)))


def ref_momentum_residual(fields, span):
    sfm, sf0, sfp = fields
    n, hs = sf0.immersion.dim, sf0.immersion.spacings
    tau = ref_torsion_form(sf0)
    d_tau = (ref_torsion_form(sfp) - ref_torsion_form(sfm)) / span

    def grad(scalar):
        return np.stack([dg.diff(scalar, k, hs[k], sf0.order) for k in range(n)], axis=-1)

    A, H, g_inv = points(sf0.A, 3), points(sf0.H), points(sf0.g_inv, 2)
    tau_sq = np.einsum("...ij,...i,...j->...", g_inv, tau, tau)
    absH = np.sqrt(sf0.rho)
    lap_term = grad(ref_laplace_beltrami(sf0, absH) / absH)
    jh = ref_apply_j(sf0, H)
    p = np.einsum("...ijd,...d->...ij", A, jh)
    s = np.einsum("...ijd,...d->...ij", A, H)
    q = np.einsum("...mk,...jl,...mj,...kl->...", g_inv, g_inv, p, p)
    grad_q = grad(q / sf0.rho)
    djh = np.stack([ref_normal_derivative(sf0, jh, k) for k in range(n)], axis=-2)
    u = np.einsum("...ld,...d->...l", djh, jh)
    w = np.einsum("...kd,...d->...k", djh, H)
    frame_term = (
        np.einsum("...kl,...ik,...l->...i", g_inv, s, u)
        - np.einsum("...kl,...il,...k->...i", g_inv, p, w)
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
    dt = 0.25 * mb.stability_limit(dg.pad_planes(imm.points, order), imm.spacings, order)
    traj = mb.evolve_membrane(imm, dt, 2 * dt, stride=1, order=order)
    return [dg.shape_field(snap, order=order) for snap in traj.states], traj.times[2] - traj.times[0]


def test_vector_operators_agree_with_the_einsum_forms(triple):
    sf = triple[0][1]
    X = np.random.default_rng(5).standard_normal(sf.H.shape)
    _close(points(dg.project_normal(sf, X)), ref_project_normal(sf, points(X)))
    _close(points(dg.apply_j(sf, sf.H)), ref_apply_j(sf, points(sf.H)))
    for axis in (0, 1):
        _close(points(dg.normal_derivative(sf, sf.H, axis)),
               ref_normal_derivative(sf, points(sf.H), axis))


def test_willmore_gradient_agrees_with_the_einsum_forms(triple):
    sf = triple[0][1]
    _close(points(dg._christoffel(sf), 3), ref_christoffel(sf))
    _close(points(dg.normal_laplacian(sf, sf.H)), ref_normal_laplacian(sf, points(sf.H)))
    _close(points(dg.willmore_gradient(sf)), ref_willmore_gradient(sf))


def test_scalar_operators_agree_with_the_einsum_forms(triple):
    sf = triple[0][1]
    _close(points(dg.torsion_form(sf)), ref_torsion_form(sf))
    _close(dg.source_term(sf), ref_source_term(sf))
    absH = np.sqrt(sf.rho)
    _close(dg.laplace_beltrami(sf, absH), ref_laplace_beltrami(sf, absH))
    got, want = dg.normal_curvature_check(sf), ref_normal_curvature_check(sf)
    for a, b in zip(got, want):
        _close(a, b)


def test_residuals_agree_with_the_einsum_forms(triple):
    fields, span = triple
    for plane, ref, k in ((mb.continuity_residual, ref_continuity_residual, 0),
                          (mb.momentum_residual, ref_momentum_residual, 1)):
        (got, worst), (want, want_worst) = plane(fields, span), ref(fields, span)
        _close(points(got, k), want)
        assert abs(worst - want_worst) <= RTOL * want_worst


def test_shape_field_planes_are_read_only_index_first_and_contiguous(triple):
    sf = triple[0][1]
    n, d, s = sf.immersion.dim, sf.immersion.ambient_dim, sf.immersion.shape
    for name, index in (("t", (n, d)), ("g", (n, n)), ("g_inv", (n, n)), ("A", (n, n, d)),
                        ("H", (d,)), ("jh", (d,)), ("source", ()), ("tau", (n,))):
        planes = getattr(sf, name)
        assert planes.shape == index + s, name
        assert planes.flags.c_contiguous and not planes.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            planes[(0,) * planes.ndim] = 1.0


def test_diagnostics_make_no_einsum_call(monkeypatch):
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (16, 16))
    traj = mb.evolve_membrane(imm, 1e-3, 4e-3, stride=1, order=4)

    def no_einsum(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", no_einsum)
    cols = mb.diagnostics(traj, 4)
    assert np.isfinite(cols["max_momentum_residual"][1:-1]).all()
    assert np.isfinite(cols["energy_gap"][1:-1]).all()
    (result,) = validate.run_all(only=["7"])   # the Willmore gradient and its oracle
    assert result.passed, result.line()


def test_check_7_fails_when_its_oracle_accepts_no_direction(monkeypatch):
    # the added tangential term vanishes on both exact tori (g_12 = 0), so the
    # hand values still pass; it swamps the gradient's norm on the perturbed
    # torus, so the oracle rejects every direction and must fail the check
    willmore_gradient = dg.willmore_gradient
    monkeypatch.setattr(dg, "willmore_gradient",
                        lambda sf: willmore_gradient(sf) + 1e4 * sf.g[0, 1] * sf.t[0])
    (result,) = validate.run_all(only=["7"])
    assert not result.passed
    assert "oracle accepted 0 of 3 directions" in result.details
