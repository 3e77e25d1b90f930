"""Property tests of the skew velocity -J H: rigid motions, grid shifts,
orientation reversal, and the dim-1 reduction to a cross product."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from skewflow import diffgeo as dg
from skewflow import membrane as mb

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


def _gap(u, v):
    """Largest pointwise difference, relative to the size of v."""
    return np.abs(u - v).max() / max(1.0, np.abs(v).max())


@PROPERTY
@given(tori(), seeds, orders)
def test_velocity_is_equivariant_under_rotations(imm, seed, order):
    rot = _orthogonal(seed, 4, +1)
    v = mb.smc_rhs(imm, order=order)
    v_rot = mb.smc_rhs(_moved(imm, imm.points @ rot.T), order=order)
    assert _gap(v_rot, v @ rot.T) < 1e-12


@PROPERTY
@given(tori(), st.integers(0, 31), st.integers(0, 31), orders)
def test_velocity_commutes_with_grid_rolls(imm, s1, s2, order):
    v = mb.smc_rhs(imm, order=order)
    rolled = np.roll(imm.points, (s1, s2), axis=(0, 1))
    v_rolled = mb.smc_rhs(_moved(imm, rolled), order=order)
    assert _gap(v_rolled, np.roll(v, (s1, s2), axis=(0, 1))) < 1e-12


@PROPERTY
@given(tori(), seeds, orders)
def test_velocity_changes_sign_under_orientation_reversal(imm, seed, order):
    v = mb.smc_rhs(imm, order=order)
    # an orientation-reversing isometry of R^4
    ref = _orthogonal(seed, 4, -1)
    v_ref = mb.smc_rhs(_moved(imm, imm.points @ ref.T), order=order)
    assert _gap(v_ref, -v @ ref.T) < 1e-12
    # reversing the first parameter direction, x_1 -> -x_1
    flip = (-np.arange(imm.shape[0])) % imm.shape[0]
    v_flip = mb.smc_rhs(_moved(imm, imm.points[flip]), order=order)
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
    assert _gap(mb.smc_rhs(imm, order=order), expected) < 1e-12
