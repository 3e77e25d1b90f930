"""Tests for the 1D filament stack: binormal flow, Frenet data, the wave map,
the curvature/torsion system, and the fluid form."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from skewflow import diffgeo as dg
from skewflow import filament as fl
from skewflow.errors import (
    BlowUpAbort,
    CurvatureDegeneracyAbort,
    SelfIntersectionAbort,
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


def _brute_min_nonneighbor(points):
    n = len(points)
    best = np.inf
    for i in range(n):
        for j in range(n):
            if min(abs(i - j), n - abs(i - j)) > 1:
                best = min(best, float(np.sqrt(np.sum((points[i] - points[j]) ** 2))))
    return best


@pytest.mark.parametrize("n", [3, 4, 32, 257])
def test_min_nonneighbor_distance_equals_double_loop(n):
    rng = np.random.default_rng(n)
    u = np.arange(n) * 2 * np.pi / n
    circle = np.stack([np.cos(u), np.sin(u), np.zeros_like(u)], axis=-1)
    for pts in (rng.standard_normal((n, 3)), circle):
        assert fl.min_nonneighbor_distance(pts) == _brute_min_nonneighbor(pts)


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
    fl.fluid_evolve(fl.to_fluid(fr), 1e-4, 1e-4)
    assert len(calls) == 0
    # the membrane's axis-1/2 stencils keep np.roll, faster there than a pad
    dg.shape_field(dg.torus_immersion(1.0, 2.0, (16, 16)), order=4)
    assert len(calls) > 0


def test_circle_translates_rigidly():
    traj = fl.evolve_filament(fl.circle_curve(1.0, 128), 1e-3, 1.0, reparam_every=10)
    target = fl.arclength_resample(fl.circle_curve(1.0, 128)).points + np.array([0, 0, 1.0])
    assert np.abs(traj.final.points - target).max() <= 1e-6


def test_conservation_along_flow():
    traj = fl.evolve_filament(planar_curve(), 1e-4, 0.2, reparam_every=10)
    c0, cT = traj.states[0], traj.final
    assert abs(fl.curve_length(cT) / fl.curve_length(c0) - 1.0) <= 1e-6
    assert abs(fl.willmore_1d(cT) / fl.willmore_1d(c0) - 1.0) <= 1e-4


def test_self_intersection_abort():
    # a crushed ellipse brings opposite strands within the d_min proxy
    u = np.arange(64) * 2 * np.pi / 64
    pts = np.stack([np.cos(u), 1e-3 * np.sin(u), np.zeros_like(u)], axis=-1)
    with pytest.raises(SelfIntersectionAbort):
        fl.evolve_filament(dg.GridImmersion(pts, (2 * np.pi,)), 1e-4, 0.01)


def test_stability_precondition():
    with pytest.raises(ValueError, match="stability"):
        fl.evolve_filament(fl.circle_curve(1.0, 128), 5e-3, 0.05)


def test_blowup_abort():
    with pytest.raises(BlowUpAbort):
        fl.evolve_filament(fl.circle_curve(1e-7, 64), 1e-9, 1e-8)


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


def test_spectral_scheme_agrees():
    c = planar_curve()
    f4 = fl.frenet_data(c, scheme="fd4")
    fs = fl.frenet_data(c, scheme="spectral")
    assert np.abs(f4.kappa - fs.kappa).max() < 1e-5


# ---------------------------------------------------------------------------
# wave map and its gauge structure
# ---------------------------------------------------------------------------

def test_wave_map_on_circle_is_constant():
    fr = fl.frenet_data(fl.arclength_resample(fl.circle_curve(2.0, 128)))
    wave, holonomy = fl.hasimoto(fr)
    assert np.abs(wave.psi - 0.5).max() < 1e-7
    assert holonomy == 0.0


def test_wave_map_planar_is_real():
    fr = fl.frenet_data(planar_curve())
    wave, holonomy = fl.hasimoto(fr)
    assert np.abs(wave.psi.imag).max() < 1e-12
    assert holonomy == 0.0


def test_wave_modulus_is_curvature():
    fr = fl.frenet_data(fl.arclength_resample(fl.twisted_circle(1.0, 0.3, 2, 256)))
    wave, _ = fl.hasimoto(fr)
    assert np.abs(np.abs(wave.psi) - fr.kappa).max() < 1e-13


def test_holonomy_reported_for_nonplanar_curve():
    fr = fl.frenet_data(fl.arclength_resample(fl.twisted_circle(1.0, 0.3, 2, 256)))
    _, holonomy = fl.hasimoto(fr)
    assert fl.holonomy_defect(holonomy) > 1e-2
    assert abs(holonomy - fr.total_torsion) < 1e-14


def test_basepoint_change_is_constant_phase():
    fr = fl.frenet_data(fl.arclength_resample(fl.twisted_circle(1.0, 0.3, 2, 256)))
    w0, _ = fl.hasimoto(fr, s0=0)
    w1, _ = fl.hasimoto(fr, s0=57)
    ratio = w1.psi / w0.psi
    assert np.abs(ratio - ratio[0]).max() < 1e-12
    assert np.abs(np.abs(w1.psi) - np.abs(w0.psi)).max() < 1e-14


# ---------------------------------------------------------------------------
# focusing cubic wave equation
# ---------------------------------------------------------------------------

def test_plane_wave_phase():
    wave = fl.WaveField(np.full(256, 1.0, dtype=complex), 2 * np.pi)
    out = fl.nls_evolve(wave, 1e-3, 1.0).final
    assert np.abs(out.psi - np.exp(0.5j)).max() <= 1e-10


def test_mass_conservation():
    rng = np.random.default_rng(3)
    spec = np.exp(-np.abs(np.fft.fftfreq(256, 1 / 256)) / 3.0)
    psi0 = np.fft.ifft(spec * rng.normal(size=256) * np.exp(2j * np.pi * rng.random(256)))
    wave = fl.WaveField(psi0, 2 * np.pi)
    out = fl.nls_evolve(wave, 1e-3, 1.0).final
    assert abs(out.mass() / wave.mass() - 1.0) <= 1e-10


def test_zero_stays_zero():
    wave = fl.WaveField(np.zeros(64, dtype=complex), 2 * np.pi)
    out = fl.nls_evolve(wave, 1e-2, 0.5).final
    assert np.abs(out.psi).max() == 0.0


def test_grid_must_be_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        fl.nls_evolve(fl.WaveField(np.zeros(100, dtype=complex), 1.0), 1e-2, 0.1)


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
    traj = fl.evolve_filament(c0, 1e-4, 0.2, reparam_every=10)
    k_filament = fl.frenet_data(traj.final).kappa
    k_darios, _ = fl.darios_evolve(fr0.kappa, fr0.tau, fr0.length, 1e-4, 0.2).final
    assert np.abs(k_filament - k_darios).max() <= 1e-3


def test_darios_time_reversal():
    fr = fl.frenet_data(planar_curve())
    k1, t1 = fl.darios_evolve(fr.kappa, fr.tau, fr.length, 1e-4, 0.1).final
    k0, t0 = fl.darios_evolve(k1, t1, fr.length, -1e-4, -0.1).final
    assert np.abs(k0 - fr.kappa).max() <= 1e-8
    assert np.abs(t0 - fr.tau).max() <= 1e-8


def test_darios_aborts_at_vanishing_curvature():
    # eps (1 + k^2) = 1 makes the curvature of the polar profile touch zero
    fr = fl.frenet_data(fl.arclength_resample(fl.perturbed_circle(1.0, 0.1, 3, 256)))
    with pytest.raises(CurvatureDegeneracyAbort):
        fl.darios_evolve(fr.kappa, fr.tau, fr.length, 1e-4, 0.2)


def test_fluid_stationary_and_mass():
    state = fl.FluidState1D(np.full(64, 1.69), np.zeros(64), 2 * np.pi)
    out = fl.fluid_evolve(state, 1e-3, 0.5).final
    assert np.abs(out.rho - 1.69).max() == 0.0

    fr = fl.frenet_data(planar_curve())
    state = fl.to_fluid(fr)
    out = fl.fluid_evolve(state, 1e-4, 0.2).final
    assert abs(out.mass() / state.mass() - 1.0) <= 1e-8


def test_fluid_conjugate_to_darios():
    fr = fl.frenet_data(planar_curve())
    kappa, tau = fl.darios_evolve(fr.kappa, fr.tau, fr.length, 1e-4, 0.2).final
    out = fl.fluid_evolve(fl.to_fluid(fr), 1e-4, 0.2).final
    assert np.abs(out.rho - kappa ** 2).max() <= 1e-8
    assert np.abs(out.v - 2 * tau).max() <= 1e-8


def test_to_fluid_needs_positive_curvature():
    fr = fl.frenet_data(planar_curve())
    fr.mask[3] = True
    with pytest.raises(ValueError, match="masked"):
        fl.to_fluid(fr)
    with pytest.raises(ValueError):
        fl.FluidState1D(np.zeros(64), np.zeros(64), 2 * np.pi)


# ---------------------------------------------------------------------------
# Madelung transform
# ---------------------------------------------------------------------------

def test_madelung_identities():
    assert np.abs(fl.madelung(np.ones(8), np.zeros(8)) - 1.0).max() == 0.0
    fr = fl.frenet_data(fl.arclength_resample(fl.twisted_circle(1.0, 0.3, 2, 256)))
    rho = fr.kappa ** 2
    theta = 2.0 * cumulative_trapezoid(fr.tau, dx=fr.ds, initial=0.0)
    psi = fl.madelung(rho, theta)
    wave, _ = fl.hasimoto(fr)
    assert np.abs(psi - wave.psi).max() < 1e-12


def test_madelung_roundtrip():
    rng = np.random.default_rng(9)
    rho = 1.0 + 0.5 * rng.random(128)
    theta = np.cumsum(rng.normal(scale=0.05, size=128))  # within one branch
    r2, t2 = fl.madelung_inverse(fl.madelung(rho, theta))
    assert np.abs(r2 - rho).max() < 1e-12
    assert np.abs(t2 - theta).max() < 1e-12


def test_madelung_vacuum_error():
    with pytest.raises(ValueError):
        fl.madelung(np.array([1.0, 0.0, 2.0]), np.zeros(3))
    with pytest.raises(ValueError):
        fl.madelung_inverse(np.array([1.0, 0.0, 1.0], dtype=complex))


# ---------------------------------------------------------------------------
# the full 1D square at reduced scale
# ---------------------------------------------------------------------------

def test_four_corner_agreement_quick():
    c0 = planar_curve(128, 0.05, 2)
    fr0 = fl.frenet_data(c0)
    dt, horizon = 2e-4, 0.05
    profiles = {
        "filament": fl.frenet_data(
            fl.evolve_filament(c0, dt, horizon, reparam_every=10).final
        ).kappa,
        "darios": fl.darios_evolve(fr0.kappa, fr0.tau, fr0.length, dt, horizon).final[0],
        "nls": np.abs(fl.nls_evolve(fl.hasimoto(fr0)[0], dt, horizon).final.psi),
        "fluid": np.sqrt(fl.fluid_evolve(fl.to_fluid(fr0), dt, horizon).final.rho),
    }
    names = list(profiles)
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            gap = np.abs(profiles[u] - profiles[v]).max()
            assert gap <= 5e-3, f"{u}/{v}: {gap:.2e}"
