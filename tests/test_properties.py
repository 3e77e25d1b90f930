"""Property tests of the skew velocity -J H (rigid motions, grid shifts,
orientation reversal, the dim-1 reduction to a cross product), of the
closed-form shape field against the per-point LAPACK algebra, and of the
sphere-product closed forms (flow property, conserved Hamiltonian)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewflow import diffgeo as dg
from skewflow import membrane as mb
from skewflow import sphereprod as sp

PROPERTY = settings(max_examples=20, deadline=None, database=None)

grid_sizes = st.sampled_from([16, 24, 32])
orders = st.sampled_from([2, 4])
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def tori(draw):
    """Perturbed tori in R^4 on grids of at most 32 x 32 points."""
    a = draw(st.floats(0.8, 1.5))
    b = draw(st.floats(1.5, 2.5))
    eps = draw(st.floats(0.0, 0.1))
    k1, k2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    shape = (draw(grid_sizes), draw(grid_sizes))
    return dg.perturbed_torus_immersion(a, b, eps, k1, k2, shape)


def _orthogonal(seed, d, det):
    """Random orthogonal d x d matrix with the given determinant sign."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) * det < 0:
        q[:, 0] = -q[:, 0]
    return q


def _moved(imm, points):
    return dg.GridImmersion(points, imm.param_periods)


def _velocity(imm, order):
    padded = dg.pad_planes(imm.points, order)
    return dg.interior_points(mb.smc_rhs(padded, imm.spacings, order), order)


def _gap(u, v):
    """Largest pointwise difference, relative to the size of v."""
    return np.abs(u - v).max() / max(1.0, np.abs(v).max())


@PROPERTY
@given(tori(), seeds, orders)
def test_velocity_is_equivariant_under_rotations(imm, seed, order):
    rot = _orthogonal(seed, 4, +1)
    v = _velocity(imm, order)
    v_rot = _velocity(_moved(imm, imm.points @ rot.T), order)
    assert _gap(v_rot, v @ rot.T) < 1e-12


@PROPERTY
@given(tori(), st.integers(0, 31), st.integers(0, 31), orders)
def test_velocity_commutes_with_grid_rolls(imm, s1, s2, order):
    v = _velocity(imm, order)
    rolled = np.roll(imm.points, (s1, s2), axis=(0, 1))
    v_rolled = _velocity(_moved(imm, rolled), order)
    assert _gap(v_rolled, np.roll(v, (s1, s2), axis=(0, 1))) < 1e-12


@PROPERTY
@given(tori(), seeds, orders)
def test_velocity_changes_sign_under_orientation_reversal(imm, seed, order):
    v = _velocity(imm, order)
    # an orientation-reversing isometry of R^4
    ref = _orthogonal(seed, 4, -1)
    v_ref = _velocity(_moved(imm, imm.points @ ref.T), order)
    assert _gap(v_ref, -v @ ref.T) < 1e-12
    # reversing the first parameter direction, x_1 -> -x_1
    flip = (-np.arange(imm.shape[0])) % imm.shape[0]
    v_flip = _velocity(_moved(imm, imm.points[flip]), order)
    assert _gap(v_flip, -v[flip]) < 1e-12


@PROPERTY
@given(st.floats(0.5, 2.0), st.floats(-0.6, 0.6), st.floats(0.0, 0.5), st.integers(1, 4),
       st.sampled_from([64, 128]), orders, seeds)
def test_curve_velocity_is_tangent_cross_second_derivative(radius, warp, lift, k, n, order, seed):
    # a closed space curve whose parameter is far from arclength, rigidly rotated
    x = np.arange(n) * 2.0 * np.pi / n
    phi = x + warp * np.sin(x)
    pts = np.stack([radius * np.cos(phi), radius * np.sin(phi), lift * np.sin(k * x)], axis=-1)
    imm = dg.GridImmersion(pts @ _orthogonal(seed, 3, +1).T, (2.0 * np.pi,))
    h = imm.spacings[0]
    t = dg.diff(imm.points, 0, h, order)
    gamma2 = dg.diff2(imm.points, 0, h, order)
    speed = np.linalg.norm(t, axis=-1)
    expected = np.cross(t, gamma2) / speed[..., None] ** 3
    assert _gap(_velocity(imm, order), expected) < 1e-12


# ---------------------------------------------------------------------------
# closed-form shape field vs the per-point LAPACK algebra
# ---------------------------------------------------------------------------

def _reference_shape_field(imm, order):
    """The shape field from np.linalg det/inv/solve on stacked per-point arrays."""
    pts, n, hs = imm.points, imm.dim, imm.spacings
    tangents = np.stack([dg.diff(pts, i, hs[i], order) for i in range(n)], axis=-2)
    metric = np.einsum("...id,...jd->...ij", tangents, tangents)
    metric_inv = np.linalg.inv(metric)
    second = np.empty(imm.shape + (n, n, imm.ambient_dim))
    for i in range(n):
        for j in range(n):
            if i == j:
                second[..., i, j, :] = dg.diff2(pts, i, hs[i], order)
            else:
                second[..., i, j, :] = dg.diff(dg.diff(pts, i, hs[i], order), j, hs[j], order)
    norms = np.linalg.norm(second, axis=-1).max(axis=(-2, -1))
    flat = second.reshape(imm.shape + (n * n, imm.ambient_dim))
    alpha = np.linalg.solve(metric, np.einsum("...id,...md->...im", tangents, flat))
    second_form = (flat - np.einsum("...im,...id->...md", alpha, tangents)).reshape(second.shape)
    H = np.einsum("...ij,...ijd->...d", metric_inv, second_form)
    return {
        "metric": metric,
        "metric_inv": metric_inv,
        "det_g": np.linalg.det(metric),
        "second_form": second_form,
        "mean_curvature": H,
        "rho": np.einsum("...d,...d->...", H, H),
        "tol_perp": np.maximum(dg.TOL_PERP_FACTOR * norms, dg.TOL_PERP_FACTOR),
    }


def _sheared(seed, d):
    """Random well-conditioned linear map of R^d, I + 0.2 G / sqrt(d)."""
    return np.eye(d) + 0.2 * np.random.default_rng(seed).normal(size=(d, d)) / np.sqrt(d)


@st.composite
def sheared_immersions(draw):
    """Perturbed curves in R^3 and tori in R^4 under a random linear map; the
    tori are also sheared in the parameter, (x1, x2) -> (x1 + k x2, x2)."""
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    eps = draw(st.floats(0.0, 0.1))
    if draw(st.booleans()):
        n = draw(grid_sizes)
        x = np.arange(n) * 2.0 * np.pi / n
        pts = np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=-1)
        for m in (2, 3):
            pts += eps / m * (np.cos(m * x)[:, None] * rng.normal(size=3)
                              + np.sin(m * x)[:, None] * rng.normal(size=3))
        return dg.GridImmersion(pts @ _sheared(seed, 3).T, (2.0 * np.pi,))
    k = draw(st.sampled_from([-1, 1, 2]))
    a, b = draw(st.floats(0.8, 1.5)), draw(st.floats(1.5, 2.5))
    n1, n2 = draw(grid_sizes), draw(grid_sizes)
    th, ph = np.meshgrid(np.arange(n1) * 2.0 * np.pi / n1, np.arange(n2) * 2.0 * np.pi / n2,
                         indexing="ij")
    u = th + k * ph
    pts = np.stack([a * np.cos(u), a * np.sin(u), b * np.cos(ph), b * np.sin(ph)], axis=-1)
    for k1, k2 in ((1, 2), (3, 1)):
        pts += eps * np.cos(k1 * th + k2 * ph)[..., None] * rng.normal(size=4)
    return dg.GridImmersion(pts @ _sheared(seed, 4).T, (2.0 * np.pi, 2.0 * np.pi))


@PROPERTY
@given(sheared_immersions(), orders)
def test_closed_form_shape_field_matches_linalg_algebra(imm, order):
    sf = dg.shape_field(imm, order=order)
    if imm.dim == 2:
        assert np.abs(sf.metric[..., 0, 1]).max() > 0.1
    for name, ref in _reference_shape_field(imm, order).items():
        got = getattr(sf, name)
        assert got.shape == ref.shape, name
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


# ---------------------------------------------------------------------------
# sphere-product closed forms
# ---------------------------------------------------------------------------

@st.composite
def sphere_flows(draw):
    """A sphere-product state and two elapsed times whose sum stays within 90%
    of the collapse time (or of 1 where there is no collapse)."""
    m, l = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    state = sp.SphereProductState(m, l, draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0)))
    horizon = 0.45 * min(sp.collapse_time(state), 1.0)
    return state, draw(st.floats(0.0, horizon)), draw(st.floats(0.0, horizon))


@PROPERTY
@given(sphere_flows())
def test_closed_form_is_a_flow(flow):
    state, t1, t2 = flow
    twice = sp.closed_form(sp.closed_form(state, t1), t2)
    once = sp.closed_form(state, t1 + t2)
    assert twice.a == pytest.approx(once.a, rel=1e-12)
    assert twice.b == pytest.approx(once.b, rel=1e-12)
    assert twice.t == pytest.approx(once.t, rel=1e-15, abs=1e-15)


@PROPERTY
@given(sphere_flows())
def test_hamiltonian_is_constant_along_closed_form(flow):
    state, t1, t2 = flow
    h0 = sp.hamiltonian(state)
    for t in (t1, t1 + t2):
        assert sp.hamiltonian(sp.closed_form(state, t)) == pytest.approx(h0, rel=1e-12, abs=1e-12)
