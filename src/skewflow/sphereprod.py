"""Exact reduced dynamics of sphere products S^m(a) x S^l(b) under the skew flow.

The product of round spheres stays a product of round spheres; the radii obey

    da/dt = -l/b,    db/dt = +m/a,

so a shrinks while b grows.  For m < l the solution only lives until
t* = a(0) b(0) / (l - m), where the first factor collapses.  The system is
Hamiltonian in the (a, b) half-plane with conserved quantity ln(a^m b^l),
i.e. the Riemannian volume C_{m,l} a^m b^l is conserved while the Willmore
energy C_{m,l} (m^2/a^2 + l^2/b^2) a^m b^l is not.

This module is the analytic oracle for the grid-based membrane solver: the
closed forms are exact, and the RK4 integrator here must reproduce them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollapseError, EvolutionAbort, UnsupportedDimensionError
from .diffgeo import torus_immersion
from .stepping import check_times

A_STOP_DEFAULT = 1e-3   # default radius floor for run-to-collapse mode


@dataclass(frozen=True)
class SphereProductState:
    m: int
    l: int
    a: float
    b: float
    t: float = 0.0

    def __post_init__(self):
        if self.m < 1 or self.l < 1:
            raise ValueError(f"sphere dimensions must be >= 1, got ({self.m}, {self.l})")
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"radii must be positive, got ({self.a}, {self.b})")


@dataclass
class SphereProductTrajectory:
    m: int
    l: int
    times: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def state(self, i):
        return SphereProductState(self.m, self.l, self.a[i], self.b[i], self.times[i])

    @property
    def final(self):
        return self.state(-1)


def ode_rhs(state):
    """Radial rates (da/dt, db/dt) = (-l/b, +m/a)."""
    if state.a <= 0 or state.b <= 0:
        raise ValueError("rates undefined for nonpositive radii")
    return (-state.l / state.b, state.m / state.a)


def collapse_time(state):
    """a*b/(l-m) when m < l, +inf otherwise (measured from state.t)."""
    if state.m < state.l:
        return state.a * state.b / (state.l - state.m)
    return math.inf


def closed_form(state, t):
    """Exact radii after elapsed time t (t may be negative within the domain).

    Equal dimensions give the exponential branch a e^(-l t/(ab)), b e^(m t/(ab));
    otherwise a(t) = a^(m/(m-l)) (a - (l-m) t/b)^(l/(l-m)) and the matching
    expression for b.  Requesting t at or beyond the collapse time raises.
    """
    m, l, a, b = state.m, state.l, state.a, state.b
    if m == l:
        ab = a * b
        return SphereProductState(
            m, l, a * math.exp(-l * t / ab), b * math.exp(m * t / ab), state.t + t
        )
    base_a = a - (l - m) * t / b
    base_b = b + (m - l) * t / a
    if base_a <= 0 or base_b <= 0:
        if m < l:
            raise CollapseError(t, collapse_time(state))
        raise ValueError(f"closed form undefined at elapsed time {t}")
    new_a = a ** (m / (m - l)) * base_a ** (l / (l - m))
    new_b = b ** (l / (l - m)) * base_b ** (m / (m - l))
    return SphereProductState(m, l, new_a, new_b, state.t + t)


def hamiltonian(state):
    """Conserved quantity ln(a^m b^l)."""
    return state.m * math.log(state.a) + state.l * math.log(state.b)


def unit_sphere_volume(k):
    """k-dimensional volume of the unit k-sphere, 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    return 2.0 * math.pi ** ((k + 1) / 2) / math.gamma((k + 1) / 2)


def volume(state):
    """Riemannian volume of the product, sigma_m sigma_l a^m b^l."""
    return unit_sphere_volume(state.m) * unit_sphere_volume(state.l) \
        * state.a ** state.m * state.b ** state.l


def willmore(state):
    """Willmore energy (m^2/a^2 + l^2/b^2) * volume."""
    return (state.m ** 2 / state.a ** 2 + state.l ** 2 / state.b ** 2) * volume(state)


def willmore_rate(state):
    """d/dt of the Willmore energy; closed form available for m = l = 1 only."""
    if state.m == 1 and state.l == 1:
        return 8.0 * math.pi ** 2 * (1.0 / state.a ** 2 - 1.0 / state.b ** 2)
    return math.nan


def _rk4(m, l, a, b, h):
    def f(a, b):
        return -l / b, m / a
    k1a, k1b = f(a, b)
    k2a, k2b = f(a + 0.5 * h * k1a, b + 0.5 * h * k1b)
    k3a, k3b = f(a + 0.5 * h * k2a, b + 0.5 * h * k2b)
    k4a, k4b = f(a + h * k3a, b + h * k3b)
    return (a + h * (k1a + 2 * k2a + 2 * k3a + k4a) / 6.0,
            b + h * (k1b + 2 * k2b + 2 * k3b + k4b) / 6.0)


def _halved_step(m, l, a, b, dt, t):
    """Step size after the near-collapse halving rule a < 10 dt l / b.

    None on underflow: once the step drops below dt 2^-60, or as soon as it
    no longer advances the time t.
    """
    h = dt
    while a < 10.0 * h * l / b:
        h *= 0.5
        if h < dt * 2.0 ** -60 or t + h == t:
            return None
    return h


def _abort(message, state, t, ts, As, Bs):
    """EvolutionAbort at absolute time state.t + t whose `trajectory` holds the
    rows recorded so far; the integration loop below raises only these."""
    recorded = SphereProductTrajectory(state.m, state.l, np.array(ts), np.array(As), np.array(Bs))
    return EvolutionAbort(message, state.t + t, recorded)


def _halving_rk4(state, dt, record_every, done, t_end=math.inf, max_steps=math.inf):
    """RK4 with the near-collapse halving rule until done(t, a), t the elapsed
    time; steps are cut short to end at t_end.  Records the start, every
    record_every-th step and the last step."""
    m, l = state.m, state.l
    a, b, t = state.a, state.b, 0.0
    ts, As, Bs = [state.t], [a], [b]
    steps = 0
    while not done(t, a):
        if steps >= max_steps:
            raise _abort("run-to-collapse exceeded max_steps", state, t, ts, As, Bs)
        h = _halved_step(m, l, a, b, dt, t)
        if h is None:
            raise _abort("step underflow near collapse", state, t, ts, As, Bs)
        h = min(h, t_end - t)
        try:
            a, b = _rk4(m, l, a, b, h)
        except ZeroDivisionError:
            raise _abort("radius hit zero inside a step", state, t, ts, As, Bs)
        if a <= 0 or b <= 0 or not (math.isfinite(a) and math.isfinite(b)):
            raise _abort("radius left the positive quadrant", state, t, ts, As, Bs)
        t += h
        steps += 1
        if steps % record_every == 0 or done(t, a):
            ts.append(state.t + t)
            As.append(a)
            Bs.append(b)
    return SphereProductTrajectory(m, l, np.array(ts), np.array(As), np.array(Bs))


def evolve_numeric(state, dt, t_final, record_every=1):
    """RK4 trajectory over [0, t_final] with step-halving near collapse."""
    check_times(dt, t_final)
    return _halving_rk4(state, dt, record_every,
                        lambda t, a: t >= t_final - 1e-15 * max(1.0, t_final), t_end=t_final)


def run_to_collapse(state, dt, a_stop=A_STOP_DEFAULT, record_every=1, max_steps=10 ** 8):
    """Integrate until a <= a_stop; the last recorded time is the stop time."""
    check_times(dt)
    return _halving_rk4(state, dt, record_every, lambda t, a: a <= a_stop, max_steps=max_steps)


def _table(states):
    """Columns t, a, b, hamiltonian, volume, willmore, dW_dt of a sequence of
    states; dW_dt is NaN unless m = l = 1."""
    columns = {
        "t": lambda s: s.t, "a": lambda s: s.a, "b": lambda s: s.b,
        "hamiltonian": hamiltonian, "volume": volume, "willmore": willmore,
        "dW_dt": willmore_rate,
    }
    return {name: np.array([f(s) for s in states]) for name, f in columns.items()}


def willmore_series(state, times):
    """Closed-form table at the given elapsed times, all before the collapse
    time (see _table for the columns)."""
    return _table([closed_form(state, t) for t in times])


def trajectory_table(traj):
    """Same columns as willmore_series, evaluated along a numeric trajectory."""
    return _table([traj.state(i) for i in range(len(traj.times))])


def embed(state, shape):
    """Grid immersion of the m = l = 1 state (pole-free charts only exist there)."""
    if state.m != 1 or state.l != 1:
        raise UnsupportedDimensionError(
            "grid embedding exists for m = l = 1 only; higher spheres are covered analytically"
        )
    return torus_immersion(state.a, state.b, shape)
