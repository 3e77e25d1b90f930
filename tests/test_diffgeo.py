"""Tests for the discrete extrinsic geometry layer."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewflow import diffgeo as dg
from skewflow import filament as fl
from skewflow import membrane as mb
from skewflow.errors import (
    DegenerateImmersionError,
    FrameDegeneracyError,
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value,finite", [
    (np.nan, False), (np.inf, False), (-np.inf, False), (1e300, True), (-1.7e308, True),
])
@pytest.mark.parametrize("period", [2.0 * np.pi, np.nan, np.inf, 0.0])
def test_immersion_finiteness_checks_are_exact(value, finite, period):
    # 1e200 is finite though its square overflows
    pts = dg.torus_immersion(1.0, 2.0, (8, 9)).points.copy()
    pts[0, 0, 0] = 1e200
    pts[3, 5, 2] = value
    if period != 2.0 * np.pi:
        with pytest.raises(ValueError, match="param_periods must be finite and > 0"):
            dg.GridImmersion(pts, (2.0 * np.pi, period))
    elif finite:
        assert dg.GridImmersion(pts, (2.0 * np.pi, period)).points[3, 5, 2] == value
    else:
        with pytest.raises(ValueError, match="non-finite points"):
            dg.GridImmersion(pts, (2.0 * np.pi, period))
    assert dg.all_finite(pts) == bool(np.isfinite(pts).all())
    assert dg.all_finite(pts[:, ::2]) == bool(np.isfinite(pts[:, ::2]).all())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value,finite", [
    (np.nan, False), (np.inf, False), (-np.inf, False), (1e200, True), (-1.7e308, True),
])
def test_all_finite_reads_a_strided_view_without_blas(monkeypatch, value, finite):
    # evolve_membrane checks the interior of its padded planes, a strided view
    padded = dg.pad_planes(dg.torus_immersion(1.0, 2.0, (64, 64)).points, 4)
    view = dg.interior(padded, 4)
    assert not view.flags.c_contiguous

    def no_blas(*args, **kwargs):
        raise AssertionError("all_finite called a BLAS dot product")

    monkeypatch.setattr(np, "vdot", no_blas)
    monkeypatch.setattr(np, "dot", no_blas)
    padded[0, 0, 0] = padded[3, 1, 66] = np.nan  # halo entries: outside the view
    assert dg.all_finite(view) is True
    padded[2, 8, 10] = value  # interior index (6, 8) of component 2
    assert dg.all_finite(view) is finite
    assert dg.all_finite(view[:, ::3, ::2]) is finite


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
    # (d, *s) plane stacks as the membrane stage pads them
    ((4, 24, 40), 1), ((4, 24, 40), 2), ((2, 3, 4), 2),
])
def test_stencils_equal_the_roll_reference_bitwise(shape, axis, order):
    # grids shorter than the stencil width (N <= 2) must wrap more than once
    f = np.random.default_rng(sum(shape) + axis).standard_normal(shape)
    h = 0.37
    assert np.array_equal(dg.diff(f, axis, h, order), _roll_diff(f, axis, h, order))
    assert np.array_equal(dg.diff2(f, axis, h, order), _roll_diff2(f, axis, h, order))
    first, second = dg.diff_pair(f, axis, h, order)
    assert np.array_equal(first, _roll_diff(f, axis, h, order))
    assert np.array_equal(second, _roll_diff2(f, axis, h, order))


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("shape", [(24, 40, 4), (8, 9, 4), (64, 3), (8, 3)])
def test_plane_derivatives_equal_the_roll_reference_bitwise(shape, order):
    # the stage's flat-shift path on padded planes, into a workspace reused
    # across two fields; the interior of each band plane is compared
    rng = np.random.default_rng(sum(shape) + order)
    spacings = (0.37, 0.21)[:len(shape) - 1]
    ws = dg.Workspace()
    for _ in range(2):
        pts = rng.standard_normal(shape)
        x = np.moveaxis(pts, -1, 0)
        t, xx, mixed, inner = dg.plane_derivatives(dg.pad_planes(pts, order), spacings, order, ws)
        for i, h in enumerate(spacings):
            assert np.array_equal(t[i][inner], _roll_diff(x, i + 1, h, order))
            assert np.array_equal(xx[i][inner], _roll_diff2(x, i + 1, h, order))
        if len(spacings) == 2:
            t1 = _roll_diff(x, 1, spacings[0], order)
            assert np.array_equal(mixed[inner], _roll_diff(t1, 2, spacings[1], order))
        else:
            assert mixed is None


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
    tau = dg.torsion_form(dg.shape_field(imm))
    assert np.abs(tau).max() < 1e-10


def test_torsion_nonzero_on_perturbed_torus():
    peaks = []
    for n in (64, 128):
        imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (n, n))
        tau = dg.torsion_form(dg.shape_field(imm))
        peaks.append(np.abs(tau).max())
    # a genuinely nonzero limit, far above the FD tolerance, stable under refinement
    assert peaks[-1] > 1e-2
    assert abs(peaks[0] / peaks[1] - 1.0) < 0.2


def test_torsion_metric_duality():
    # the continuity residual transports rho with chi = 2 tau^sharp: on a
    # frozen trajectory (d rho/dt = 0) it is div(rho chi) - source, with chi
    # here the solution of g chi = 2 tau rather than a product with g^-1
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (32, 32))
    sf = dg.shape_field(imm)
    resid, _ = mb.continuity_residual([sf, sf, sf], 2e-3)
    chi = 2.0 * np.linalg.solve(sf.metric, sf.tau[..., None])[..., 0]
    expected = dg.metric_divergence(sf, sf.rho[..., None] * chi) - sf.source
    assert np.abs(expected).max() > 1e-2
    assert np.abs(resid - expected).max() < 1e-10


def test_shape_field_keeps_its_torsion_form_read_only(monkeypatch):
    calls = []
    torsion_form = dg.torsion_form

    def counted(sf):
        calls.append(sf)
        return torsion_form(sf)

    monkeypatch.setattr(dg, "torsion_form", counted)
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (32, 32))
    sf = dg.shape_field(imm)
    tau = sf.tau
    assert sf.tau is tau
    assert len(calls) == 1 and calls[0] is sf
    assert not tau.flags.writeable
    with pytest.raises(ValueError):
        tau[0, 0, 0] = 1.0
    assert np.array_equal(tau, torsion_form(dg.shape_field(imm)))


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


# the contractions of the continuity source and the momentum residual, with
# the shape-field operands they are applied to
CONTRACTIONS = {
    "...ik,...jl,...ij,...kl->...": ("g_inv", "g_inv", "s", "p"),
    "...ij,...i,...j->...": ("g_inv", "tau", "tau"),
    "...mk,...jl,...mj,...kl->...": ("g_inv", "g_inv", "p", "p"),
    "...kl,...ik,...l->...i": ("g_inv", "s", "u"),
    "...kl,...il,...k->...i": ("g_inv", "p", "w"),
}


def _residual_operands(sf):
    """The operands of CONTRACTIONS, with the values membrane.momentum_residual
    gives them, as C-ordered arrays: np.einsum's order of summation depends
    on its operands' strides, and plane_einsum takes its order on C-ordered
    operands."""
    jh = dg.apply_j(sf, sf.mean_curvature)
    tau = dg.torsion_form(sf)
    djh = np.stack([dg.normal_derivative(sf, jh, k) for k in range(2)], axis=-2)
    operands = {
        "g_inv": sf.metric_inv,
        "s": np.einsum("...ijd,...d->...ij", sf.second_form, sf.mean_curvature),
        "p": np.einsum("...ijd,...d->...ij", sf.second_form, jh),
        "tau": tau,
        "u": np.einsum("...ld,...d->...l", djh, jh),
        "w": np.einsum("...kd,...d->...k", djh, sf.mean_curvature),
    }
    return {name: np.ascontiguousarray(a) for name, a in operands.items()}


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", list(CONTRACTIONS))
def test_plane_einsum_equals_einsum_bitwise(spec):
    # random operands are neither symmetric nor sign-definite, so a transposed
    # operand or a reordered sum shows; the shape field gives the data the
    # residuals contract
    rng = np.random.default_rng(7)
    operands = [rng.standard_normal((24, 40) + (2,) * len(sub))
                for sub in spec.split("->")[0].replace("...", "").split(",")]
    assert _same_bits(dg.plane_einsum(spec, *operands), np.einsum(spec, *operands))

    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (24, 40))
    fields = _residual_operands(dg.shape_field(imm, order=4))
    operands = [fields[name] for name in CONTRACTIONS[spec]]
    assert _same_bits(dg.plane_einsum(spec, *operands), np.einsum(spec, *operands))


def test_plane_einsum_keeps_the_sign_of_zero_sums():
    # np.einsum adds the terms to a zero start, so a sum of -0.0 terms is +0.0
    rng = np.random.default_rng(8)
    for spec in CONTRACTIONS:
        subs = spec.split("->")[0].replace("...", "").split(",")
        for _ in range(50):
            operands = [rng.choice([-0.0, 0.0, 1.0, -1.0], size=(9,) + (2,) * len(sub))
                        for sub in subs]
            assert _same_bits(dg.plane_einsum(spec, *operands), np.einsum(spec, *operands))


def test_plane_einsum_rejects_other_contractions():
    g, v = np.ones((8, 2, 2)), np.ones((8, 2))
    for spec, operands in [("...ij,...j->...i", (g, v)), ("...ij,...kl->...ik", (g, g)),
                           ("...ij,...j->...", (g,))]:
        with pytest.raises(ValueError, match="unsupported contraction"):
            dg.plane_einsum(spec, *operands)


def test_source_term_and_its_kept_copy_equal_the_einsum_form():
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (24, 40))
    sf = dg.shape_field(imm, order=4)
    ops = _residual_operands(sf)
    want = -2.0 * np.einsum("...ik,...jl,...ij,...kl->...", ops["g_inv"], ops["g_inv"],
                            ops["s"], ops["p"])
    assert _same_bits(dg.source_term(sf), want)
    assert _same_bits(sf.jh, dg.apply_j(sf, sf.mean_curvature))
    assert sf.source is sf.source and _same_bits(sf.source, want)
    assert not sf.source.flags.writeable and not sf.jh.flags.writeable


# ---------------------------------------------------------------------------
# normal-bundle curvature vs torsion
# ---------------------------------------------------------------------------

def test_curvature_check_zero_on_torus():
    imm = dg.torus_immersion(1.5, 0.7, (48, 48))
    _, _, resid = dg.normal_curvature_check(dg.shape_field(imm))
    assert resid < 1e-10


def test_curvature_check_refuses_a_masked_torsion_form(monkeypatch):
    monkeypatch.setattr(dg, "H_MIN", 1e9)  # every point below the |H| floor
    sf = dg.shape_field(dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (16, 16)))
    assert np.isnan(sf.tau).all()
    with pytest.raises(FrameDegeneracyError):
        dg.normal_curvature_check(sf)


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
    tau = dg.torsion_form(sf)
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

def mw_pairing(sf, u, v):
    """Marsden-Weinstein pairing of two ambient vector fields: the integral of
    det[u, v, t_1..t_n] dx.  The program has no use for it; these tests pin
    the orientation of the tangents against it."""
    cols = np.concatenate(
        [u[..., None], v[..., None], np.moveaxis(sf.tangents, -2, -1)], axis=-1
    )
    return dg.grid_integral(sf.immersion, np.linalg.det(cols))


def test_mw_pairing_antisymmetry_and_degeneracy():
    imm = fl.circle_curve(2.0, 128)
    sf = dg.shape_field(imm)
    u = np.tile(np.array([0.3, -1.0, 0.4]), (128, 1))
    assert mw_pairing(sf, u, u) == 0.0
    t = sf.tangents[:, 0, :]
    assert abs(mw_pairing(sf, t, 0.5 * t)) < 1e-14


def test_mw_pairing_frenet_frame_of_circle():
    R = 2.0
    imm = fl.circle_curve(R, 256)
    sf = dg.shape_field(imm, order=4)
    th = np.arange(256) * 2 * np.pi / 256
    n = -np.stack([np.cos(th), np.sin(th), 0 * th], axis=-1)
    b = np.stack([0 * th, 0 * th, np.ones_like(th)], axis=-1)
    val = mw_pairing(sf, n, b)
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


def test_snapshot_rows_read_as_python_floats_bitwise(tmp_path):
    # 200k doubles from random bit patterns: every exponent from subnormal to
    # 1e308, both signs; plus the zeros and the subnormal extremes
    rng = np.random.default_rng(2024)
    values = np.frombuffer(rng.bytes(8 * 200_000), dtype=float).copy()
    values[~np.isfinite(values)] = 1.0
    values[:6] = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300]
    path = tmp_path / "snap.txt"
    dg.save_immersion(dg.GridImmersion(values.reshape(250, 200, 4), (1.0, 2.0)), path)
    tokens = " ".join(path.read_text().splitlines()[4:]).split()
    expected = np.array([float(x) for x in tokens])
    back = dg.load_immersion(path).points.ravel()
    assert np.array_equal(back.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))


def test_snapshot_rows_of_unequal_length_are_rejected(tmp_path):
    imm = dg.torus_immersion(1.0, 2.0, (8, 8))
    path = tmp_path / "snap.txt"
    dg.save_immersion(imm, path)
    lines = path.read_text().splitlines()
    # the first two rows hold 3 and 5 values: same total, same row count
    first, second = lines[4].split(), lines[5].split()
    lines[4], lines[5] = " ".join(first[:3]), " ".join([first[3]] + second)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        dg.load_immersion(path)
    # a row too few or too many
    path.write_text("\n".join(lines[:4] + lines[6:]) + "\n")
    with pytest.raises(ValueError, match="data rows"):
        dg.load_immersion(path)


def test_failed_snapshot_write_leaves_no_file_under_its_name(tmp_path, monkeypatch):
    path = tmp_path / "snapshot_0001.txt"
    part = tmp_path / "snapshot_0001.txt.part"
    imm = dg.torus_immersion(1.0, 2.0, (64, 64))   # four blocks of the formatter

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            dg.save_immersion(imm, path)
    assert not path.exists() and not part.exists()

    # the formatter fails on its third block, once two are in the .part file
    blocks = []
    format_g17 = dg._format_g17

    def failing(values, seps):
        blocks.append(len(values))
        if len(blocks) == 3:
            assert part.stat().st_size > 0
            raise MemoryError("formatter failed")
        return format_g17(values, seps)

    monkeypatch.setattr(dg, "_format_g17", failing)
    with pytest.raises(MemoryError, match="formatter failed"):
        dg.save_immersion(imm, path)
    assert blocks == [dg.SNAPSHOT_BLOCK // 4] * 3
    assert not path.exists() and not part.exists()
    # a snapshot already under the name is left as it was
    monkeypatch.setattr(dg, "_format_g17", format_g17)
    dg.save_immersion(imm, path)
    before = path.read_bytes()
    blocks.clear()
    monkeypatch.setattr(dg, "_format_g17", failing)
    with pytest.raises(MemoryError):
        dg.save_immersion(dg.torus_immersion(1.0, 3.0, (64, 64)), path)
    assert path.read_bytes() == before and not part.exists()


def test_snapshot_header_errors_name_the_key(tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("1 0 2 0\n")
    with pytest.raises(ValueError, match="'dim'"):
        dg.load_immersion(path)
    path.write_text("dim 2\nparam_periods 6.28 6.28\nambient 4\n1 0 2 0\n")
    with pytest.raises(ValueError, match="'shape'"):
        dg.load_immersion(path)


# ---------------------------------------------------------------------------
# the snapshot number formatter
# ---------------------------------------------------------------------------

def g17(values):
    """_format_g17 of values as one column, one value a line, in blocks of
    the size save_immersion writes."""
    col = np.asarray(values, dtype=float).reshape(-1, 1)
    step = dg.SNAPSHOT_BLOCK
    return b"".join(dg._format_g17(col[i:i + step], b"\n") for i in range(0, len(col), step))


def assert_g17_is_python(values):
    values = np.asarray(values, dtype=float).ravel()
    got = g17(values).split(b"\n")
    want = [b"%.17g" % x for x in values.tolist()] + [b""]
    assert len(got) == len(want)
    bad = [(x, w, g) for x, w, g in zip(values.tolist(), want, got) if w != g]
    assert not bad, f"{len(bad)} values differ from %.17g, e.g. {bad[:4]}"


def dyadic_ties():
    """Doubles m 2^-c (m odd) whose exact decimal expansion has 18
    significant digits, the last a 5: each is a tie at 17 digits."""
    rng = np.random.default_rng(17)
    out = []
    for c in range(1, 60):
        for bits in range(2, 54):
            for m in rng.integers(2 ** (bits - 1), 2 ** bits, 4).tolist():
                if len(str((m | 1) * 5 ** c)) == 18:
                    out.append(math.ldexp(m | 1, -c))
    return out


def scaled_near_ties():
    """Doubles x = m 2^-(s + k) below 1e-6, m in [2^52, 2^53), whose scaled
    value x 10^k = m 5^k / 2^s (k = 16 - E > 22, where 10^k is no double)
    lies within 40 units of 2^-s of a half-integer, on either side, exact
    ties included: the values whose last digit the formatter cannot decide
    from its double-double scaling alone."""
    out = []
    for k in range(23, 48):
        five = 5 ** k
        for s in range(45, 120):
            if not any(1e16 <= m * five / 2 ** s < 1e17 for m in (2 ** 52, 2 ** 53)):
                continue
            inverse = pow(five, -1, 2 ** s)
            for delta in range(-40, 41):
                m = (2 ** (s - 1) + delta) * inverse % 2 ** s
                if m < 2 ** 52:   # the least m + j 2^s in range, where s < 53
                    m += -(-(2 ** 52 - m) // 2 ** s) * 2 ** s
                if m < 2 ** 53 and 1e16 <= m * five / 2 ** s < 1e17:
                    out.append(math.ldexp(m, -s - k))
    return out


def test_g17_matches_python_on_random_bit_patterns():
    rng = np.random.default_rng(20)
    assert_g17_is_python(np.frombuffer(rng.bytes(8 * 400_000), dtype=float))


def test_g17_matches_python_over_the_decades():
    rng = np.random.default_rng(21)
    signs = rng.choice([-1.0, 1.0], 400_000)
    assert_g17_is_python(signs * 10.0 ** rng.uniform(-40, 20, 400_000))


def test_g17_matches_python_on_edge_values():
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]
    for e in range(-40, 25):
        p = float(f"1e{e}")
        edge += [np.nextafter(p, 0.0), p, np.nextafter(p, math.inf)]
    ties = dyadic_ties()
    near = scaled_near_ties()
    assert len(ties) > 200 and len(near) > 400
    rng = np.random.default_rng(22)
    integers = np.concatenate([
        10 ** 16 + np.arange(-64, 65), 10 ** 17 - 16 * np.arange(1, 65),
        rng.integers(10 ** 16, 10 ** 17, 10_000),
    ]).astype(float)
    assert_g17_is_python(np.concatenate([edge, ties, near, -np.array(near), integers]))
    # 1 + 2^-17 = 1.00000762939453125 is a tie: half to even keeps the 2
    assert g17([1 + 2.0 ** -17]) == b"1.0000076293945312\n"


@settings(max_examples=500, deadline=None, database=None)
@given(st.floats())
def test_g17_matches_python_property(x):
    assert dg._format_g17(np.array([[x]]), b"\n") == b"%.17g\n" % x


def test_g17_writes_each_column_separator():
    values = np.array([[1.5, -0.0, 1e-300], [math.nan, 123456789.0, 2.5e-7]])
    assert dg._format_g17(values, b",;\n") == b"".join(b"%.17g,%.17g;%.17g\n" % tuple(row)
                                                        for row in values.tolist())


def test_degenerate_index_message_uses_plain_ints():
    err = DegenerateImmersionError((np.int64(3), np.int64(0)), 1e-12)
    assert err.grid_index == (3, 0)
    assert str(err) == "degenerate immersion: det(g)=1.000e-12 at grid index (3, 0)"
