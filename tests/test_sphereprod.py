"""Tests for the exact sphere-product dynamics."""

import math

import numpy as np
import pytest

from skewflow import diffgeo as dg
from skewflow import sphereprod as sp
from skewflow.errors import CollapseError, EvolutionAbort, UnsupportedDimensionError


def test_ode_rhs_values():
    assert sp.ode_rhs(1, 2, 1.0, 1.0) == (-2.0, 1.0)
    assert sp.ode_rhs(1, 1, 1.0, 2.0) == (-0.5, 1.0)


def test_equal_dimensions_symmetry():
    da, db = sp.ode_rhs(2, 2, 1.3, 1.3)
    assert da == -db


def test_state_validation():
    with pytest.raises(ValueError):
        sp.SphereProductState(0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        sp.SphereProductState(1, 1, -1.0, 1.0)


def test_collapse_time_values():
    assert sp.collapse_time(sp.SphereProductState(1, 2, 1.0, 1.0)) == 1.0
    assert sp.collapse_time(sp.SphereProductState(1, 1, 3.0, 0.5)) == math.inf
    assert sp.collapse_time(sp.SphereProductState(2, 1, 1.0, 1.0)) == math.inf
    assert sp.collapse_time(sp.SphereProductState(2, 3, 2.0, 3.0)) == 6.0


def test_closed_form_spot_values():
    s = sp.closed_form(sp.SphereProductState(1, 2, 1.0, 1.0), 0.5)
    assert abs(s.a - 0.25) < 1e-15 and abs(s.b - 2.0) < 1e-14

    s = sp.closed_form(sp.SphereProductState(1, 1, 1.0, 2.0), 2.0 * math.log(2.0))
    assert abs(s.a - 0.5) < 1e-14 and abs(s.b - 4.0) < 1e-13

    s0 = sp.SphereProductState(2, 3, 2.0, 3.0)
    s = sp.closed_form(s0, 0.0)
    assert s.a == s0.a and s.b == s0.b


def test_closed_form_collapse_error():
    s0 = sp.SphereProductState(1, 2, 1.0, 1.0)
    with pytest.raises(CollapseError) as err:
        sp.closed_form(s0, 1.0)
    assert err.value.t_star == 1.0


def test_closed_form_satisfies_ode():
    # finite-difference derivative of the closed form matches the vector field
    for (m, l, a, b) in [(1, 2, 1.0, 1.0), (2, 1, 1.0, 2.0), (2, 3, 2.0, 3.0), (3, 3, 1.5, 0.5)]:
        s0 = sp.SphereProductState(m, l, a, b)
        t, eps = 0.3, 1e-6
        sm, s1, spp = (sp.closed_form(s0, t + q) for q in (-eps, 0.0, eps))
        da = (spp.a - sm.a) / (2 * eps)
        db = (spp.b - sm.b) / (2 * eps)
        ex_da, ex_db = sp.ode_rhs(m, l, s1.a, s1.b)
        assert abs(da - ex_da) < 1e-8 and abs(db - ex_db) < 1e-8


def test_rk4_matches_closed_forms():
    for (m, l, a, b) in [(1, 1, 1.0, 2.0), (1, 2, 1.0, 1.0), (2, 1, 1.0, 1.0), (2, 3, 2.0, 3.0)]:
        s0 = sp.SphereProductState(m, l, a, b)
        t_star = sp.collapse_time(s0)
        horizon = 0.8 * t_star if math.isfinite(t_star) else 2.0
        traj = sp.evolve_numeric(s0, 5e-4, horizon)
        worst = 0.0
        for i in range(0, traj.times.size, max(1, traj.times.size // 12)):
            ex = sp.closed_form(s0, traj.times[i])
            worst = max(worst, abs(traj.a[i] - ex.a), abs(traj.b[i] - ex.b))
        assert worst <= 1e-8, f"({m},{l}): {worst:.2e}"


def _float_rk4(m, l, a, b, h):
    """The RK4 step of the radii as a pair of floats, the reference formula
    for stepping.rk4_step on y = a + ib."""
    k1a, k1b = sp.ode_rhs(m, l, a, b)
    k2a, k2b = sp.ode_rhs(m, l, a + 0.5 * h * k1a, b + 0.5 * h * k1b)
    k3a, k3b = sp.ode_rhs(m, l, a + 0.5 * h * k2a, b + 0.5 * h * k2b)
    k4a, k4b = sp.ode_rhs(m, l, a + h * k3a, b + h * k3b)
    return (a + h * (k1a + 2 * k2a + 2 * k3a + k4a) / 6.0,
            b + h * (k1b + 2 * k2b + 2 * k3b + k4b) / 6.0)


@pytest.mark.parametrize("m,l,a,b,dt", [(1, 2, 1.0, 1.0, 1e-4), (2, 3, 2.0, 3.0, 1e-3)])
def test_complex_rk4_radii_match_the_float_rk4(m, l, a, b, dt, monkeypatch):
    # validate check 1's two runs to collapse
    s0 = sp.SphereProductState(m, l, a, b)
    traj = sp.run_to_collapse(s0, dt, a_stop=1e-10)
    monkeypatch.setattr(sp, "rk4_step", lambda rhs, y, h: complex(
        *_float_rk4(m, l, y.real, y.imag, h)))
    ref = sp.run_to_collapse(s0, dt, a_stop=1e-10)
    # the same steps, halvings and stop
    assert np.array_equal(traj.times, ref.times)
    assert np.abs(traj.a - ref.a).max() <= 1e-15
    assert np.abs(traj.b / ref.b - 1.0).max() <= 1e-12


def test_hamiltonian_conserved():
    s0 = sp.SphereProductState(1, 2, 1.0, 1.0)
    # machine-exact along closed forms
    for t in np.linspace(0.0, 0.9, 10):
        s = sp.closed_form(s0, t)
        assert abs(sp.hamiltonian(s) - sp.hamiltonian(s0)) < 1e-12
    traj = sp.evolve_numeric(s0, 1e-4, 0.8)
    ham = [sp.hamiltonian(traj.state(i)) for i in range(traj.times.size)]
    assert max(ham) - min(ham) <= 1e-8


def test_monotone_radii_along_trajectory():
    traj = sp.evolve_numeric(sp.SphereProductState(1, 2, 1.0, 1.0), 1e-3, 0.8)
    assert np.all(np.diff(traj.a) < 0)
    assert np.all(np.diff(traj.b) > 0)


def test_run_to_collapse_stop_time():
    traj = sp.run_to_collapse(sp.SphereProductState(1, 2, 1.0, 1.0), 1e-3, a_stop=1e-8)
    # a(t) = (1-t)^2 stops at 1 - sqrt(a_stop)
    assert abs(traj.times[-1] - (1.0 - 1e-4)) < 2e-3
    assert traj.a[-1] <= 1e-8


def test_aborts_carry_absolute_time_and_recorded_rows():
    state = sp.SphereProductState(1, 2, 1.0, 1.0, t=0.5)
    # past the collapse at t* = 1 the step halving underflows
    with pytest.raises(EvolutionAbort, match="step underflow") as err:
        sp.evolve_numeric(state, 1e-2, 2.0)
    rows = err.value.trajectory
    assert abs(err.value.t - 1.5) < 1e-3
    assert rows.times[0] == 0.5 and rows.times[-1] == err.value.t
    assert len(rows.a) == len(rows.times) and np.all(rows.a > 0)

    with pytest.raises(EvolutionAbort, match="max_steps") as err:
        sp.run_to_collapse(state, 1e-3, max_steps=5)
    assert err.value.t == pytest.approx(0.505)
    assert err.value.trajectory.times == pytest.approx(0.5 + 1e-3 * np.arange(6))


@pytest.mark.parametrize("run,message", [
    (lambda s: sp.run_to_collapse(s, -1e-3, max_steps=1000), "dt must be finite and > 0"),
    (lambda s: sp.run_to_collapse(s, 0.0, max_steps=1000), "dt must be finite and > 0"),
    (lambda s: sp.evolve_numeric(s, -1e-3, 0.01), "dt must be finite and > 0"),
    (lambda s: sp.evolve_numeric(s, float("nan"), 0.01), "dt must be finite and > 0"),
    (lambda s: sp.evolve_numeric(s, 1e-3, -0.01), "T must be finite and >= 0"),
    (lambda s: sp.evolve_numeric(s, 1e-3, float("inf")), "T must be finite and >= 0"),
], ids=["collapse-negative-dt", "collapse-zero-dt", "fixed-negative-dt", "fixed-nan-dt",
        "fixed-negative-T", "fixed-infinite-T"])
def test_bad_step_or_horizon_is_rejected(run, message):
    # a negative dt used to walk away from collapse until max_steps
    with pytest.raises(ValueError, match=message):
        run(sp.SphereProductState(1, 1, 1.0, 2.0))


@pytest.mark.parametrize("run", [
    lambda s: sp.evolve_numeric(s, 1e-2, 2.0),
    lambda s: sp.run_to_collapse(s, 1e-2, a_stop=1e-300),
], ids=["evolve_numeric", "run_to_collapse"])
def test_step_underflow_aborts_once_t_stops_advancing(run):
    # near t* = 1 the halved step falls below the spacing of t long before dt 2^-60,
    # and long before a falls to 1e-300
    with pytest.raises(EvolutionAbort, match="step underflow") as err:
        run(sp.SphereProductState(1, 2, 1.0, 1.0))
    times = err.value.trajectory.times
    assert np.all(np.diff(times) > 0)
    assert times[-1] == err.value.t
    assert abs(err.value.t - 1.0) < 1e-6


@pytest.mark.parametrize("a_stop", [-1.0, 0.0, np.nan, np.inf])
def test_run_to_collapse_rejects_an_a_stop_it_cannot_stop_at(a_stop):
    # a stays positive and finite, so it never falls to a_stop <= 0 or NaN,
    # and an infinite a_stop stops before the first step
    with pytest.raises(ValueError, match="a_stop must be finite and > 0"):
        sp.run_to_collapse(sp.SphereProductState(1, 2, 1.0, 1.0), 1e-2, a_stop=a_stop)


def test_stop_time_monotone_in_a_stop():
    stops = []
    for a_stop in (1e-2, 1e-3, 1e-4):
        traj = sp.run_to_collapse(sp.SphereProductState(1, 2, 1.0, 1.0), 1e-3, a_stop=a_stop)
        stops.append(traj.times[-1])
    assert stops[0] < stops[1] < stops[2] < 1.0


def test_volume_and_willmore_values():
    s = sp.SphereProductState(1, 1, 1.0, 2.0)
    assert abs(sp.willmore(s) - 10.0 * math.pi ** 2) < 1e-12
    assert abs(sp.volume(sp.SphereProductState(1, 1, 1.3, 0.7)) - 4 * math.pi ** 2 * 1.3 * 0.7) < 1e-12
    assert abs(sp.willmore_rate(s) - 8.0 * math.pi ** 2 * 0.75) < 1e-12
    assert abs(sp.unit_sphere_volume(1) - 2 * math.pi) < 1e-14
    assert abs(sp.unit_sphere_volume(2) - 4 * math.pi) < 1e-13


def test_volume_constant_along_closed_forms():
    s0 = sp.SphereProductState(2, 3, 2.0, 3.0)
    v0 = sp.volume(s0)
    for t in np.linspace(0.0, 4.5, 7):
        assert abs(sp.volume(sp.closed_form(s0, t)) / v0 - 1.0) < 1e-12


def test_willmore_series_growth():
    s0 = sp.SphereProductState(1, 2, 1.0, 1.0)
    states = [sp.closed_form(s0, t) for t in (0.0, 0.5)]
    # the Willmore energy over the volume is the factor m^2/a^2 + l^2/b^2
    factor = [sp.willmore(s) / sp.volume(s) for s in states]
    assert abs(factor[0] - 5.0) < 1e-12
    assert abs(factor[1] - 17.0) < 1e-12
    assert abs(sp.volume(states[1]) / sp.volume(states[0]) - 1.0) < 1e-12
    # dW/dt = 2 m l V (m/(a^3 b) - l/(a b^3)) with V = 8 pi^2 a b^2: -32 pi^2 at
    # (a, b) = (1, 1), 32 pi^2 (32 - 1) at (1/4, 2)
    assert [sp.willmore_rate(s) for s in states] == pytest.approx(
        [-32.0 * math.pi ** 2, 992.0 * math.pi ** 2], rel=1e-13)


@pytest.mark.parametrize("m,l,a,b", [(1, 1, 1.0, 2.0), (1, 2, 1.0, 1.0), (2, 1, 1.0, 1.0),
                                     (2, 3, 2.0, 3.0)])
def test_willmore_rate_is_the_derivative_along_closed_forms(m, l, a, b):
    s0 = sp.SphereProductState(m, l, a, b)
    for t in (0.0, 0.3):
        eps = 1e-5
        fd = (sp.willmore(sp.closed_form(s0, t + eps))
              - sp.willmore(sp.closed_form(s0, t - eps))) / (2 * eps)
        rate = sp.willmore_rate(sp.closed_form(s0, t))
        assert abs(rate - fd) <= 1e-7 * max(1.0, abs(fd)), (m, l, t, rate, fd)


def test_equal_radii_not_invariant():
    s0 = sp.SphereProductState(1, 1, 1.0, 1.0)
    assert sp.willmore_rate(s0) == 0.0
    w0 = sp.willmore(s0)
    w1 = sp.willmore(sp.closed_form(s0, 0.1))
    assert w1 > w0  # leaves a = b immediately, energy starts growing


def test_embed_roundtrip_and_willmore():
    s = sp.SphereProductState(1, 1, 1.0, 2.0)
    imm = sp.embed(s, (64, 64))
    a = np.hypot(imm.points[..., 0], imm.points[..., 1])
    b = np.hypot(imm.points[..., 2], imm.points[..., 3])
    assert np.abs(a - 1.0).max() < 1e-14 and np.abs(b - 2.0).max() < 1e-14
    w_grid = dg.willmore_energy(dg.shape_field(imm))
    assert abs(w_grid / sp.willmore(s) - 1.0) < 5e-3

    sf = dg.shape_field(sp.embed(sp.SphereProductState(1, 1, 1.0, 1.0), (64, 64)))
    assert np.abs(sf.rho - 2.0).max() < 0.02

    with pytest.raises(UnsupportedDimensionError):
        sp.embed(sp.SphereProductState(1, 2, 1.0, 1.0), (16, 16))
