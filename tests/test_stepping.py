"""The shared time loop, its fixed and variable steps, and the contract it
gives every solver."""

import numpy as np
import pytest

from skewflow import diffgeo as dg
from skewflow import filament as fl
from skewflow import membrane as mb
from skewflow.errors import DegenerateImmersionError, EvolutionAbort
from skewflow.stepping import integrate, rk4_step, step_count


def test_rk4_step_matches_taylor_series():
    h = 0.1
    y = rk4_step(lambda y: y, np.array([1.0]), h)
    assert abs(y[0] - (1 + h + h ** 2 / 2 + h ** 3 / 6 + h ** 4 / 24)) < 1e-15


def test_snapshot_cadence_and_absolute_times():
    traj = integrate(lambda y, i: y + 1, 0, 0.25, 2.0, stride=4)
    assert traj.times == [0.0, 1.0, 2.0]
    assert traj.states == [0, 4, 8]
    ends = integrate(lambda y, i: y + 1, 0, 0.25, 2.0)
    assert ends.times == [0.0, 2.0] and ends.final == 8


def test_zero_step_is_rejected():
    with pytest.raises(ValueError, match=r"dt must be finite and > 0, got 0\.0"):
        step_count(0.0, 1.0)


def test_abort_keeps_the_snapshots_before_it():
    def step(y, i):
        if i == 7:
            raise EvolutionAbort("stop", i * 0.25)
        return y + 1

    with pytest.raises(EvolutionAbort, match="aborted at t=1.75") as err:
        integrate(step, 0, 0.25, 2.0, stride=2)
    assert err.value.trajectory.states == [0, 2, 4, 6]


# ---------------------------------------------------------------------------
# variable steps, stop predicates and max_steps on a clock y' = 1
# ---------------------------------------------------------------------------

def _clock(y, t, h):
    return y + h


@pytest.mark.parametrize("stride", [1, 3, None])
def test_done_stops_the_run_and_records_the_state_it_stops_on(stride):
    traj = integrate(_clock, 0.0, 0.25, None, stride, done=lambda t, y: y >= 1.0,
                     step_size=lambda y, t: 0.25)
    assert traj.final == 1.0 and traj.times[-1] == 1.0
    assert traj.times == {1: [0.0, 0.25, 0.5, 0.75, 1.0], 3: [0.0, 0.75, 1.0],
                          None: [0.0, 1.0]}[stride]
    fixed = integrate(lambda y, i: y + 1, 0, 0.25, 3.0, stride, done=lambda t, y: y == 5)
    assert fixed.final == 5 and fixed.times[-1] == 1.25


def test_last_variable_step_is_cut_to_end_at_t_final():
    sizes = []

    def step(y, t, h):
        sizes.append(h)
        return y + h

    traj = integrate(step, 0.0, 0.375, 1.0, 1, step_size=lambda y, t: 0.375, t0=2.0)
    assert sizes == [0.375, 0.375, 0.25]
    assert traj.times == [2.0, 2.375, 2.75, 3.0] and traj.states == [0.0, 0.375, 0.75, 1.0]


def test_max_steps_aborts_with_the_record_so_far():
    with pytest.raises(EvolutionAbort, match="max_steps=3") as err:
        integrate(_clock, 0.0, 0.25, None, 1, done=lambda t, y: False,
                  step_size=lambda y, t: 0.25, max_steps=3)
    assert err.value.t == 0.75
    assert err.value.trajectory.times == [0.0, 0.25, 0.5, 0.75]


def test_step_size_abort_carries_the_time_its_step_would_have_started():
    def step_size(y, t):
        if y >= 0.5:
            raise EvolutionAbort("step too small", t)
        return 0.25

    with pytest.raises(EvolutionAbort, match="step too small") as err:
        integrate(_clock, 0.0, 0.25, 2.0, 1, step_size=step_size, t0=1.0)
    assert err.value.t == 1.5
    assert err.value.trajectory.times == [1.0, 1.25, 1.5]


# ---------------------------------------------------------------------------
# the five grid solvers share the contract
# ---------------------------------------------------------------------------

def _curve():
    return fl.arclength_resample(fl.perturbed_circle(1.0, 0.05, 3, 64))


def _filament(dt, T, stride):
    return fl.evolve_filament(_curve(), dt, T, stride=stride)


def _membrane(dt, T, stride):
    return mb.evolve_membrane(dg.torus_immersion(1.0, 2.0, (16, 16)), dt, T, stride=stride)


def _darios(dt, T, stride):
    fr = fl.frenet_data(_curve())
    return fl.darios_evolve(fr.kappa, fr.tau, fr.length, dt, T, stride)


def _fluid(dt, T, stride):
    fr = fl.frenet_data(_curve())
    return fl.fluid_evolve(*fl.to_fluid(fr), fr.length, dt, T, stride)


def _nls(dt, T, stride):
    fr = fl.frenet_data(_curve())
    return fl.nls_evolve(fl.hasimoto(fr)[0], fr.length, dt, T, stride)


# solver, step size, the function one step calls and how often
SOLVERS = {
    "filament": (_filament, 1e-3, (dg, "generalised_cross"), 4),
    "membrane": (_membrane, 1e-3, (mb, "smc_rhs"), 4),
    # a curvature/torsion or fluid stage takes two first differences
    "darios": (_darios, 2e-4, (dg, "_first"), 8),
    "fluid": (_fluid, 2e-4, (dg, "_first"), 8),
    "nls": (_nls, 2e-4, (np.fft, "fft"), 1),
}

# the record type of each solver that builds one (the Da Rios, fluid and NLS
# runs record their stepped arrays)
RECORDS = {
    "filament": (dg, "GridImmersion"),
    "membrane": (dg, "GridImmersion"),
}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_horizon_must_be_whole_steps(name):
    run, dt, _, _ = SOLVERS[name]
    with pytest.raises(ValueError, match="integer number of steps"):
        run(dt, 20.5 * dt, None)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_stride_must_divide_step_count(name):
    run, dt, _, _ = SOLVERS[name]
    with pytest.raises(ValueError, match="multiple of the output stride"):
        run(dt, 20 * dt, 3)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_negative_stride_is_rejected(name):
    run, dt, _, _ = SOLVERS[name]
    with pytest.raises(ValueError, match="stride must be >= 0, got -4"):
        run(dt, 20 * dt, -4)


@pytest.mark.parametrize("name", sorted(SOLVERS))
@pytest.mark.parametrize("dt_factor,steps,message", [
    (-1.0, 20, "dt must be finite and > 0"),
    (0.0, 20, "dt must be finite and > 0"),
    (np.nan, 20, "dt must be finite and > 0"),
    (np.inf, 20, "dt must be finite and > 0"),
    (1.0, -20, "T must be finite and >= 0"),
    (1.0, np.nan, "T must be finite and >= 0"),
    (1.0, np.inf, "T must be finite and >= 0"),
])
def test_bad_step_or_horizon_is_rejected(name, dt_factor, steps, message):
    run, dt, _, _ = SOLVERS[name]
    with pytest.raises(ValueError, match=message):
        run(dt_factor * dt, steps * dt, None)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_abort_carries_recorded_snapshots(name, monkeypatch):
    run, dt, (module, attr), per_step = SOLVERS[name]
    full = run(dt, 20 * dt, 4)
    assert full.times == pytest.approx([0.0, 4 * dt, 8 * dt, 12 * dt, 16 * dt, 20 * dt])

    original, calls = getattr(module, attr), [0]

    def failing(*args, **kwargs):
        calls[0] += 1
        if calls[0] > 10 * per_step:
            raise DegenerateImmersionError((0,), 0.0)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, failing)
    with pytest.raises(EvolutionAbort) as err:
        run(dt, 20 * dt, 4)
    traj = err.value.trajectory
    assert len(traj.times) >= 2 and len(traj.states) == len(traj.times)
    assert list(traj.times) == list(full.times[:len(traj.times)])
    assert traj.times[-1] < err.value.t <= traj.times[-1] + 4 * dt + 1e-15


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_only_recorded_states_build_a_record(name, monkeypatch):
    run, dt, _, _ = SOLVERS[name]
    module, attr = RECORDS[name]
    built = [0]

    class Counted(getattr(module, attr)):
        def __init__(self, *args, **kwargs):
            built[0] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(module, attr, Counted)
    run(dt, 0.0, None)  # builds the input and records it alone
    at_input = built[0]
    traj = run(dt, 20 * dt, 4)
    assert len(traj.states) == 6
    # the same input, then one record per recorded step: none at the other 15
    assert built[0] == 2 * at_input + 5
