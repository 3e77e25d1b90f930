"""The time loop of all six solvers (fixed steps for the five grid solvers,
variable ones for the sphere-product radii) and the RK4 step of all but NLS.

Each solver hands `integrate` its step (the update alone), its guard (every
other check on a state) and its record (what a recorded state becomes);
`integrate` owns the step count, the stop tests, when the guard runs, the
snapshot cadence, absolute abort times, the records an abort carries and
breakdown: numpy's warnings off, and at fixed steps a finiteness check."""

import math
from dataclasses import dataclass, field

import numpy as np

from .diffgeo import all_finite
from .errors import DegenerateImmersionError, EvolutionAbort


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)

    @property
    def final(self):
        return self.states[-1]


def rk4_step(rhs, y, dt, ws=None):
    """One classical RK4 step of y' = rhs(y) from y; y is never written.

    Without a workspace it is the plain expressions.  With a
    diffgeo.Workspace ws (the membrane run's), the stage inputs and the
    weighted sum are written with out= ufuncs into its planes "rk4_stage",
    "rk4_sum" and "rk4_tmp", the sum built up as the k arrive, in the plain
    expressions' operation order, so the result is bitwise theirs.  Each k
    is read into the sum before the plane it may alias (an rhs may return
    its argument) is written again.  The new state is written into k4, a new
    array from the membrane stage, unless k4 may share memory with y or a
    workspace plane; then it is a new array, so the state is never a
    workspace plane.
    """
    if ws is None:
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    stage, acc, tmp = (ws(name, y.shape) for name in ("rk4_stage", "rk4_sum", "rk4_tmp"))
    # k1..k3 live to the end: freed early, they top glibc's heap past its trim
    # threshold, and the next velocity faults its pages in again
    k1 = rhs(y)
    k2 = rhs(np.add(y, np.multiply(k1, 0.5 * dt, out=stage), out=stage))
    np.add(k1, np.multiply(k2, 2.0, out=acc), out=acc)
    k3 = rhs(np.add(y, np.multiply(k2, 0.5 * dt, out=stage), out=stage))
    acc += np.multiply(k3, 2.0, out=tmp)
    k4 = rhs(np.add(y, np.multiply(k3, dt, out=stage), out=stage))
    acc += k4
    acc *= dt / 6.0
    owned = not any(np.may_share_memory(k4, a) for a in (y, stage, acc, tmp))
    return np.add(y, acc, out=k4 if owned else None)


def check_times(dt, t_final=0.0):
    """ValueError unless the step dt is finite and > 0 and the horizon
    t_final (the CLI's T) is finite and >= 0."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"T must be finite and >= 0, got {t_final}")


def step_count(dt, t_final, stride=None):
    """Steps of size dt to t_final; ValueError unless dt and t_final pass
    check_times, the count is a whole number and a given stride is
    non-negative and divides it."""
    check_times(dt, t_final)
    if stride is not None and stride < 0:
        raise ValueError(f"stride must be >= 0, got {stride}")
    nsteps = int(round(t_final / dt))
    if abs(nsteps * dt - t_final) > 1e-12 * max(1.0, abs(t_final)):
        raise ValueError("t_final must be an integer number of steps")
    if stride and nsteps % stride != 0:
        raise ValueError("t_final/dt must be a multiple of the output stride")
    return nsteps


@np.errstate(all="ignore")  # a state's breakdown is an abort, not a warning
def integrate(step, y0, dt, t_final, stride=None, done=None, step_size=None,
              max_steps=math.inf, t0=0.0, guard=None, record=None):
    """Advance y0 from time t0 to t0 + t_final (None: no horizon) or until done(t, y).

    Fixed steps: y = step(y, i) for i = 1, 2, ..., step i ending at t0 + i*dt.
    Variable steps: y = step(y, t, h) from time t with h = step_size(y, t), cut
    short to end at the horizon; t is the running sum of the steps.
    guard(y, i) checks y0 (i = 0) once it is recorded and each later state
    before it is; at fixed steps a state that is not diffgeo.all_finite
    aborts first, at t0 + i*dt (a variable step checks its own).  All of it
    runs under np.errstate(all="ignore").  The trajectory holds record(y, t)
    (default y) of y0, every stride-th state (stride None or 0: none) and the
    state the run stops on; step, done and step_size get the raw y.  An
    EvolutionAbort, or max_steps taken without a stop, leaves with the
    records so far as `exc.trajectory`; a degenerate immersion inside a
    step, its guard or its record becomes such an abort at the step's end."""
    fixed = step_size is None
    if fixed:
        nsteps, t_end = step_count(dt, t_final, stride), math.inf
    else:
        check_times(dt, t_final or 0.0)
        nsteps, t_end = None, math.inf if t_final is None else t0 + t_final
    guard = guard or (lambda y, i: None)
    record = record or (lambda y, t: y)

    def check(y, i):  # the loop's own check on a state, then the guard
        if fixed and not all_finite(y):
            raise EvolutionAbort("state became non-finite", t0 + i * dt)
        guard(y, i)

    # a step cut short to end at t_end may end an ulp short of it
    t_near = t_end - 1e-15 * max(1.0, t_end) if t_end < math.inf else t_end
    traj, y, t, i = Trajectory(), y0, t0, 0
    try:
        traj.states.append(record(y, t))
        traj.times.append(t)
        check(y, i)
        stop = i == nsteps or t >= t_near or (done is not None and done(t, y))
        while not stop:
            if i >= max_steps:
                raise EvolutionAbort(f"no stop within max_steps={max_steps}", t)
            i += 1
            h = dt if fixed else min(step_size(y, t), t_end - t)
            t_next = t0 + i * dt if fixed else t + h
            try:
                y = step(y, i) if fixed else step(y, t, h)
                check(y, i)
                t = t_next
                stop = i == nsteps or t >= t_near or (done is not None and done(t, y))
                if (stride and i % stride == 0) or stop:
                    traj.states.append(record(y, t))
                    traj.times.append(t)
            except DegenerateImmersionError as exc:
                raise EvolutionAbort(f"geometry degenerated inside a step: {exc}", t_next) from exc
    except EvolutionAbort as exc:
        exc.trajectory = traj
        raise
    return traj
