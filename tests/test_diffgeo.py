"""Tests for the discrete extrinsic geometry layer."""

import os

import numpy as np
import pytest

from skewflow import diffgeo as dg
from skewflow import filament as fl
from skewflow.errors import (
    DegenerateImmersionError,
    UnsupportedDimensionError,
)


def torus_normals(shape):
    th = np.arange(shape[0]) * 2 * np.pi / shape[0]
    ph = np.arange(shape[1]) * 2 * np.pi / shape[1]
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    n1 = np.stack([np.cos(TH), np.sin(TH), 0 * TH, 0 * TH], axis=-1)
    n2 = np.stack([0 * PH, 0 * PH, np.cos(PH), np.sin(PH)], axis=-1)
    return n1, n2


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_torus_points_on_sphere():
    imm = dg.torus_immersion(1.0, 1.0, (16, 16))
    r = np.linalg.norm(imm.points, axis=-1)
    assert np.allclose(r, np.sqrt(2.0), atol=1e-14)


def test_circle_radius():
    imm = fl.circle_curve(2.0, 64)
    assert np.allclose(np.linalg.norm(imm.points, axis=-1), 2.0, atol=1e-14)
    assert imm.dim == 1 and imm.ambient_dim == 3


def test_perturbed_torus_stays_in_tube():
    base = dg.torus_immersion(1.0, 2.0, (64, 64))
    pert = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (64, 64))
    dist = np.linalg.norm(pert.points - base.points, axis=-1)
    assert dist.max() <= 0.05 * np.sqrt(2.0) + 1e-14


def test_builder_rejects_degenerate_specs():
    with pytest.raises(ValueError):
        dg.torus_immersion(-1.0, 1.0, (16, 16))
    with pytest.raises(ValueError):
        dg.perturbed_torus_immersion(1.0, 2.0, 0.5, 2, 3, (16, 16))
    with pytest.raises(ValueError):
        dg.torus_immersion(1.0, 1.0, (4, 16))
    with pytest.raises(ValueError):
        dg.build_immersion("klein_bottle", (16, 16))


def test_build_immersion_dispatch():
    imm = dg.build_immersion("torus_product", (16, 16), a=1.0, b=2.0)
    assert imm.shape == (16, 16)
    # surfaces only: curves come from filament.build_curve
    with pytest.raises(ValueError, match="unknown surface kind 'circle'"):
        dg.build_immersion("circle", (64,), R=1.5)


# ---------------------------------------------------------------------------
# periodic finite differences
# ---------------------------------------------------------------------------

def _roll_diff(f, axis, h, order):
    r = lambda k: np.roll(f, -k, axis)
    if order == 2:
        return (r(1) - r(-1)) / (2.0 * h)
    return (-r(2) + 8.0 * r(1) - 8.0 * r(-1) + r(-2)) / (12.0 * h)


def _roll_diff2(f, axis, h, order):
    r = lambda k: np.roll(f, -k, axis)
    if order == 2:
        return (r(1) - 2.0 * f + r(-1)) / (h * h)
    return (-r(2) + 16.0 * r(1) - 30.0 * f + 16.0 * r(-1) - r(-2)) / (12.0 * h * h)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("shape, axis", [
    *(((n,), 0) for n in (1, 2, 3, 4, 5, 32, 257)),
    *(((n, 3), 0) for n in (1, 2, 3, 4, 5, 32, 257)),
    ((6, 5), 0), ((6, 5), 1), ((2, 3, 4), 0), ((3, 5, 4), 1),
])
def test_stencils_equal_the_roll_reference_bitwise(shape, axis, order):
    # grids shorter than the stencil width (N <= 2) must wrap more than once
    f = np.random.default_rng(sum(shape) + axis).standard_normal(shape)
    h = 0.37
    assert np.array_equal(dg.diff(f, axis, h, order), _roll_diff(f, axis, h, order))
    assert np.array_equal(dg.diff2(f, axis, h, order), _roll_diff2(f, axis, h, order))


# ---------------------------------------------------------------------------
# shape field
# ---------------------------------------------------------------------------

def test_torus_second_form_and_mean_curvature():
    a, b = 1.0, 2.0
    imm = dg.torus_immersion(a, b, (64, 64))
    sf = dg.shape_field(imm)
    n1, n2 = torus_normals((64, 64))
    h = 2 * np.pi / 64

    assert np.abs(sf.second_form[..., 0, 0, :] + a * n1).max() < h * h
    assert np.abs(sf.second_form[..., 1, 1, :] + b * n2).max() < h * h
    assert np.abs(sf.second_form[..., 0, 1, :]).max() < 1e-12
    H_exact = -n1 / a - n2 / b
    assert np.abs(sf.mean_curvature - H_exact).max() < h * h


def test_equal_radii_torus_density():
    sf = dg.shape_field(dg.torus_immersion(1.0, 1.0, (64, 64)))
    assert np.abs(sf.rho - 2.0).max() < 0.02
    sf4 = dg.shape_field(dg.torus_immersion(1.0, 1.0, (64, 64)), order=4)
    assert np.abs(sf4.rho - 2.0).max() < 5e-5


def test_circle_curvature():
    R = 2.0
    sf = dg.shape_field(fl.circle_curve(R, 256))
    e_r = sf.immersion.points / R
    assert np.abs(sf.mean_curvature + e_r / R).max() < 1e-4
    assert np.abs(np.sqrt(sf.rho) - 1.0 / R).max() < 1e-4


def test_mean_curvature_convergence_order():
    errs = []
    for n in (16, 32, 64):
        imm = dg.torus_immersion(1.0, 2.0, (n, n))
        sf = dg.shape_field(imm)
        n1, n2 = torus_normals((n, n))
        errs.append(np.abs(sf.mean_curvature + n1 + 0.5 * n2).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8, f"observed orders {orders}"


def test_degenerate_immersion_reports_index():
    # squash the torus so the second grid direction collapses
    imm = dg.torus_immersion(1.0, 1.0, (16, 16))
    pts = imm.points.copy()
    pts[..., 2:] *= 1e-6
    with pytest.raises(DegenerateImmersionError) as err:
        dg.shape_field(dg.GridImmersion(pts, imm.param_periods))
    assert err.value.grid_index is not None


# ---------------------------------------------------------------------------
# J
# ---------------------------------------------------------------------------

def test_orientation_lock_on_torus():
    a, b = 1.0, 2.0
    imm = dg.torus_immersion(a, b, (64, 64))
    sf = dg.shape_field(imm)
    n1, n2 = torus_normals((64, 64))
    assert np.abs(dg.apply_j(sf, n1) - n2).max() < 1e-12
    assert np.abs(dg.apply_j(sf, n2) + n1).max() < 1e-12
    minus_jh = -dg.apply_j(sf, sf.mean_curvature)
    h = 2 * np.pi / 64
    assert np.abs(minus_jh - (-n1 / b + n2 / a)).max() < h * h


def test_j_is_isometric_quarter_turn():
    sf = dg.shape_field(dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (32, 32)))
    rng = np.random.default_rng(5)
    v = dg.project_normal(sf, rng.normal(size=(32, 32, 4)))
    jv = dg.apply_j(sf, v)
    assert np.abs(np.einsum("...d,...d->...", jv, v)).max() < 1e-12
    assert np.abs(
        np.linalg.norm(jv, axis=-1) - np.linalg.norm(v, axis=-1)
    ).max() < 1e-12
    assert np.abs(dg.apply_j(sf, jv) + v).max() < 1e-12


def test_j_matches_determinant_cross_product():
    # reference: (t_1 x ... x t_n x v)_l = det[t_1, ..., t_n, v, e_l], one det per component
    rng = np.random.default_rng(11)
    curve = fl.circle_curve(1.5, 32).points + 0.2 * rng.normal(size=(32, 3))
    for imm in (dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (16, 16)),
                dg.GridImmersion(curve, (2 * np.pi,))):
        sf = dg.shape_field(imm)
        v = dg.project_normal(sf, rng.normal(size=imm.points.shape))
        columns = np.concatenate([np.moveaxis(sf.tangents, -2, -1), v[..., None]], axis=-1)
        cross = np.stack([
            np.linalg.det(np.concatenate(
                [columns, np.broadcast_to(e, v.shape)[..., None]], axis=-1))
            for e in np.eye(imm.ambient_dim)
        ], axis=-1)
        assert np.abs(dg.apply_j(sf, v) + cross / sf.sqrt_det_g[..., None]).max() < 1e-12


# ---------------------------------------------------------------------------
# energies, torsion, Laplacian, gradient
# ---------------------------------------------------------------------------

def test_willmore_energy_values():
    w12 = dg.willmore_energy(dg.shape_field(dg.torus_immersion(1.0, 2.0, (64, 64))))
    assert abs(w12 / (10.0 * np.pi ** 2) - 1.0) < 5e-3
    w11 = dg.willmore_energy(dg.shape_field(dg.torus_immersion(1.0, 1.0, (64, 64))))
    assert abs(w11 / (8.0 * np.pi ** 2) - 1.0) < 5e-3
    wc = dg.willmore_energy(dg.shape_field(fl.circle_curve(2.0, 256), order=4))
    assert abs(wc - np.pi) < 1e-6


def test_torsion_vanishes_on_products_of_circles():
    imm = dg.torus_immersion(1.0, 2.0, (64, 64))
    sf = dg.shape_field(imm)
    tau, chi = dg.torsion_form(sf)
    assert np.abs(tau).max() < 1e-10
    assert np.abs(chi).max() < 1e-10


def test_torsion_nonzero_on_perturbed_torus():
    peaks = []
    for n in (64, 128):
        imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (n, n))
        tau, _ = dg.torsion_form(dg.shape_field(imm))
        peaks.append(np.abs(tau).max())
    # a genuinely nonzero limit, far above the FD tolerance, stable under refinement
    assert peaks[-1] > 1e-2
    assert abs(peaks[0] / peaks[1] - 1.0) < 0.2


def test_torsion_metric_duality():
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (32, 32))
    sf = dg.shape_field(imm)
    tau, chi = dg.torsion_form(sf)
    lhs = np.einsum("...i,...ij,...j->...", chi, sf.metric, chi)
    rhs = 4.0 * np.einsum("...ij,...i,...j->...", sf.metric_inv, tau, tau)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_normal_laplacian_zero_modes_on_torus():
    imm = dg.torus_immersion(1.0, 2.0, (32, 32))
    sf = dg.shape_field(imm)
    assert np.abs(dg.normal_laplacian(sf, sf.mean_curvature)).max() < 1e-10
    n1, n2 = torus_normals((32, 32))
    assert np.abs(dg.normal_laplacian(sf, 0.7 * n1 - 1.3 * n2)).max() < 1e-10


def test_normal_laplacian_linearity():
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (32, 32))
    sf = dg.shape_field(imm)
    h = sf.mean_curvature / np.sqrt(sf.rho)[..., None]
    jh = dg.apply_j(sf, h)
    u = 0.4 * h - 1.1 * jh
    v = 0.9 * jh
    lhs = dg.normal_laplacian(sf, 2.0 * u + 3.0 * v)
    rhs = 2.0 * dg.normal_laplacian(sf, u) + 3.0 * dg.normal_laplacian(sf, v)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_normal_laplacian_rejects_tangential_input():
    imm = dg.torus_immersion(1.0, 2.0, (16, 16))
    sf = dg.shape_field(imm)
    with pytest.raises(ValueError, match="not normal"):
        dg.normal_laplacian(sf, sf.tangents[..., 0, :])


def test_willmore_gradient_hand_values():
    imm = dg.torus_immersion(1.0, 1.0, (64, 64))
    sf = dg.shape_field(imm, order=4)
    assert np.abs(dg.willmore_gradient(sf)).max() < 1e-4

    imm = dg.torus_immersion(1.0, 2.0, (64, 64))
    sf = dg.shape_field(imm, order=4)
    n1, n2 = torus_normals((64, 64))
    half = 0.5 * dg.willmore_gradient(sf)
    assert np.abs(half - (-(3.0 / 8.0) * n1 + (3.0 / 16.0) * n2)).max() < 1e-4


def test_source_term_values():
    imm = dg.torus_immersion(1.0, 2.0, (64, 64))
    src = dg.source_term(dg.shape_field(imm, order=4))
    assert np.abs(src - 0.75).max() < 1e-4

    imm = dg.torus_immersion(1.0, 1.0, (64, 64))
    assert np.abs(dg.source_term(dg.shape_field(imm))).max() < 1e-10

    circ = fl.circle_curve(2.0, 128)
    assert np.abs(dg.source_term(dg.shape_field(circ))).max() < 1e-12


def test_energy_rate_integrand():
    imm = dg.torus_immersion(1.0, 2.0, (64, 64))
    sf = dg.shape_field(imm, order=4)
    density, integral = dg.energy_derivative_integrand(sf)
    assert abs(integral / (8.0 * np.pi ** 2 * 0.75) - 1.0) < 5e-3
    # identical quadrature as the source term against dvol
    assert abs(integral - dg.integrate_density(sf, dg.source_term(sf))) < 1e-9

    imm = dg.torus_immersion(1.0, 1.0, (32, 32))
    _, integral = dg.energy_derivative_integrand(dg.shape_field(imm))
    assert abs(integral) < 1e-10

    circ = fl.circle_curve(1.0, 128)
    _, integral = dg.energy_derivative_integrand(dg.shape_field(circ))
    assert abs(integral) < 1e-12


# ---------------------------------------------------------------------------
# normal-bundle curvature vs torsion
# ---------------------------------------------------------------------------

def test_curvature_check_zero_on_torus():
    imm = dg.torus_immersion(1.5, 0.7, (48, 48))
    _, _, resid = dg.normal_curvature_check(dg.shape_field(imm))
    assert resid < 1e-10


def test_curvature_check_needs_2d():
    circ = fl.circle_curve(1.0, 64)
    with pytest.raises(UnsupportedDimensionError):
        dg.normal_curvature_check(dg.shape_field(circ))


def test_plaquette_derivative_kills_edge_differences():
    # d(d phi) = 0 exactly at edge level
    rng = np.random.default_rng(2)
    phi = rng.normal(size=(32, 32))
    spacings = (2 * np.pi / 32, 2 * np.pi / 32)
    e1 = np.roll(phi, -1, 0) - phi
    e2 = np.roll(phi, -1, 1) - phi
    curl = dg._plaquette_curl(e1, e2, spacings)
    assert np.abs(curl).max() < 1e-13


def test_dtau_invariant_under_adding_edge_differential():
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (32, 32))
    sf = dg.shape_field(imm)
    tau, _ = dg.torsion_form(sf)
    e1, e2 = dg._edge_integrals(tau, imm.spacings)
    rng = np.random.default_rng(3)
    phi = rng.normal(size=(32, 32))
    d1 = dg._plaquette_curl(e1, e2, imm.spacings)
    d2 = dg._plaquette_curl(e1 + (np.roll(phi, -1, 0) - phi),
                            e2 + (np.roll(phi, -1, 1) - phi), imm.spacings)
    assert np.abs(d1 - d2).max() < 1e-12


# ---------------------------------------------------------------------------
# pairing and integration
# ---------------------------------------------------------------------------

def test_mw_pairing_antisymmetry_and_degeneracy():
    imm = fl.circle_curve(2.0, 128)
    sf = dg.shape_field(imm)
    u = np.tile(np.array([0.3, -1.0, 0.4]), (128, 1))
    assert dg.mw_pairing(sf, u, u) == 0.0
    t = sf.tangents[:, 0, :]
    assert abs(dg.mw_pairing(sf, t, 0.5 * t)) < 1e-14


def test_mw_pairing_frenet_frame_of_circle():
    R = 2.0
    imm = fl.circle_curve(R, 256)
    sf = dg.shape_field(imm, order=4)
    th = np.arange(256) * 2 * np.pi / 256
    n = -np.stack([np.cos(th), np.sin(th), 0 * th], axis=-1)
    b = np.stack([0 * th, 0 * th, np.ones_like(th)], axis=-1)
    val = dg.mw_pairing(sf, n, b)
    assert abs(abs(val) - 2 * np.pi * R) < 1e-3
    assert val > 0  # orientation fixes the sign for the (inward, axis) pair


def test_integrals_are_plain_riemann_sums():
    imm = dg.torus_immersion(1.0, 2.0, (32, 32))
    sf = dg.shape_field(imm)
    # plain sum times the parameter cell, no quadrature weights
    assert abs(dg.grid_integral(imm, np.ones(imm.shape)) - 4 * np.pi ** 2) < 1e-12
    rng = np.random.default_rng(1)
    f = rng.normal(size=imm.shape)
    assert dg.integrate_density(sf, f) == dg.grid_integral(imm, f * sf.sqrt_det_g)
    # the discrete area converges to 4 pi^2 ab
    area64 = dg.integrate_density(
        dg.shape_field(dg.torus_immersion(1.0, 2.0, (64, 64)), order=4),
        np.ones((64, 64)),
    )
    assert abs(area64 / (8 * np.pi ** 2) - 1.0) < 1e-5


# ---------------------------------------------------------------------------
# snapshot I/O
# ---------------------------------------------------------------------------

def test_snapshot_roundtrip(tmp_path):
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (16, 16))
    path = tmp_path / "snap.txt"
    dg.save_immersion(imm, path)
    back = dg.load_immersion(path)
    assert back.shape == imm.shape
    assert back.param_periods == imm.param_periods
    assert np.array_equal(back.points, imm.points)


def test_curve_snapshot_roundtrip(tmp_path):
    imm = fl.circle_curve(2.0, 64)
    path = tmp_path / "curve.txt"
    dg.save_immersion(imm, path)
    back = dg.load_immersion(path)
    assert back.dim == 1 and np.array_equal(back.points, imm.points)


def test_snapshot_rows_are_17_digit_text(tmp_path):
    pts = dg.torus_immersion(1.0, 2.0, (8, 8)).points.copy()
    pts[0, 0] = [-0.0, 5e-324, -1.2345678901234567e300, 1.0 / 3.0]
    path = tmp_path / "snap.txt"
    dg.save_immersion(dg.GridImmersion(pts, (2.0 * np.pi, 1.5)), path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[:4] == ["dim 2", "shape 8 8", f"param_periods {2.0 * np.pi:.17g} 1.5", "ambient 4"]
    assert lines[4:] == [" ".join(f"{x:.17g}" for x in row) for row in pts.reshape(-1, 4)]
    assert text.endswith("\n")


def test_failed_snapshot_write_leaves_no_file_under_its_name(tmp_path, monkeypatch):
    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(os, "replace", interrupted)
    path = tmp_path / "snapshot_0001.txt"
    with pytest.raises(OSError, match="interrupted"):
        dg.save_immersion(dg.torus_immersion(1.0, 2.0, (8, 8)), path)
    assert not path.exists()


def test_snapshot_header_errors_name_the_key(tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("1 0 2 0\n")
    with pytest.raises(ValueError, match="'dim'"):
        dg.load_immersion(path)
    path.write_text("dim 2\nparam_periods 6.28 6.28\nambient 4\n1 0 2 0\n")
    with pytest.raises(ValueError, match="'shape'"):
        dg.load_immersion(path)


def test_degenerate_index_message_uses_plain_ints():
    err = DegenerateImmersionError((np.int64(3), np.int64(0)), 1e-12)
    assert err.grid_index == (3, 0)
    assert str(err) == "degenerate immersion: det(g)=1.000e-12 at grid index (3, 0)"
