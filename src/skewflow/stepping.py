"""Fixed-step time integration shared by the five grid solvers.

Each solver hands `integrate` a per-step function that keeps its own guards;
`integrate` owns the step count, the snapshot cadence, absolute abort times
and the snapshots an abort carries.
"""

import math
from dataclasses import dataclass, field

from .errors import DegenerateImmersionError, EvolutionAbort


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)

    @property
    def final(self):
        return self.states[-1]


def rk4_step(rhs, y, dt):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def integrate(step, y0, dt, t_final, stride=None):
    """Advance y0 by y = step(y, i) for i = 1..nsteps, step i ending at i*dt.

    Records y0, every stride-th state (stride None or 0: none) and the last.
    An EvolutionAbort from a step leaves with the record so far as
    `exc.trajectory`; a degenerate immersion inside a step becomes such an
    abort.
    """
    nsteps = step_count(dt, t_final, stride)
    traj = Trajectory([0.0], [y0])
    y = y0
    for i in range(1, nsteps + 1):
        try:
            y = step(y, i)
        except DegenerateImmersionError as exc:
            raise EvolutionAbort(f"geometry degenerated inside a step: {exc}", i * dt,
                                 traj) from exc
        except EvolutionAbort as exc:
            exc.trajectory = traj
            raise
        if (stride and i % stride == 0) or i == nsteps:
            traj.times.append(i * dt)
            traj.states.append(y)
    return traj
