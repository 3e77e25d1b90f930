"""Tests for the exact sphere-product dynamics."""

import math

import numpy as np
import pytest

from skewflow import diffgeo as dg
from skewflow import sphereprod as sp
from skewflow.errors import CollapseError, EvolutionAbort, UnsupportedDimensionError


def test_ode_rhs_values():
    assert sp.ode_rhs(sp.SphereProductState(1, 2, 1.0, 1.0)) == (-2.0, 1.0)
    assert sp.ode_rhs(sp.SphereProductState(1, 1, 1.0, 2.0)) == (-0.5, 1.0)


def test_equal_dimensions_symmetry():
    da, db = sp.ode_rhs(sp.SphereProductState(2, 2, 1.3, 1.3))
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
        ex_da, ex_db = sp.ode_rhs(s1)
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


@pytest.mark.parametrize("run", [
    lambda s: sp.evolve_numeric(s, 1e-2, 2.0),
    lambda s: sp.run_to_collapse(s, 1e-2, a_stop=0.0),
], ids=["evolve_numeric", "run_to_collapse"])
def test_step_underflow_aborts_once_t_stops_advancing(run):
    # near t* = 1 the halved step falls below the spacing of t long before dt 2^-60
    with pytest.raises(EvolutionAbort, match="step underflow") as err:
        run(sp.SphereProductState(1, 2, 1.0, 1.0))
    times = err.value.trajectory.times
    assert np.all(np.diff(times) > 0)
    assert times[-1] == err.value.t
    assert abs(err.value.t - 1.0) < 1e-6


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
    table = sp.willmore_series(s0, [0.0, 0.5])
    factor = (s0.m ** 2 / table["a"] ** 2 + s0.l ** 2 / table["b"] ** 2)
    assert abs(factor[0] - 5.0) < 1e-12
    assert abs(factor[1] - 17.0) < 1e-12
    assert abs(table["volume"][1] / table["volume"][0] - 1.0) < 1e-12
    assert np.isnan(table["dW_dt"]).all()  # closed form only for m = l = 1


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
    w_grid = dg.willmore_energy(imm)
    assert abs(w_grid / sp.willmore(s) - 1.0) < 5e-3

    sf = dg.shape_field(sp.embed(sp.SphereProductState(1, 1, 1.0, 1.0), (64, 64)))
    assert np.abs(sf.rho - 2.0).max() < 0.02

    with pytest.raises(UnsupportedDimensionError):
        sp.embed(sp.SphereProductState(1, 2, 1.0, 1.0), (16, 16))
