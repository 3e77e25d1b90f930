"""Exact reduced dynamics of sphere products S^m(a) x S^l(b) under the skew flow.

The product of round spheres stays a product of round spheres; the radii obey

    da/dt = -l/b,    db/dt = +m/a,

so a shrinks while b grows.  For m < l the solution only lives until
t* = a(0) b(0) / (l - m), where the first factor collapses.  The system is
Hamiltonian in the (a, b) half-plane with conserved quantity ln(a^m b^l),
i.e. the Riemannian volume C_{m,l} a^m b^l is conserved while the Willmore
energy C_{m,l} (m^2/a^2 + l^2/b^2) a^m b^l is not.

This module is the analytic oracle for the grid-based membrane solver: the
closed forms are exact, and the RK4 runs here must reproduce them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollapseError, EvolutionAbort, UnsupportedDimensionError
from .diffgeo import torus_immersion
from .stepping import integrate, rk4_step

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
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):  # NaN fails both
            raise ValueError(f"radii must be finite and positive, got ({self.a}, {self.b})")


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


def ode_rhs(m, l, a, b):
    """Radial rates (da/dt, db/dt) = (-l/b, +m/a) of S^m(a) x S^l(b)."""
    return -l / b, m / a


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


def reaches_step_halving(state, dt, t):
    """Whether a run at step dt over elapsed time t reaches, by the closed
    form, the zone near collapse where _run halves its step (a < 10 dt l / b);
    a horizon at or past the collapse time always does."""
    try:
        end = closed_form(state, t)
    except CollapseError:
        return True
    return end.a < 10.0 * dt * state.l / end.b


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
    """d/dt of the Willmore energy along the flow: with the volume V conserved,
    2 m l V (m/(a^3 b) - l/(a b^3)), which is 8 pi^2 (1/a^2 - 1/b^2) at m = l = 1."""
    m, l, a, b = state.m, state.l, state.a, state.b
    return 2 * m * l * unit_sphere_volume(m) * unit_sphere_volume(l) \
        * a ** (m - 1) * b ** (l - 1) * (m / a ** 2 - l / b ** 2)


def _run(state, dt, record_every, t_final=None, done=None, max_steps=math.inf):
    """RK4 run of the radii through stepping.integrate, dt halved while a < 10 h l / b,
    as a SphereProductTrajectory (an abort carries one too).  The loop carries them as
    y = a + ib, one complex scalar to stepping.rk4_step: a recorded row holds 32 bytes,
    against 104 for a tuple of two floats.  The step, not a guard, checks the radii, as
    its abort needs the running time t."""
    m, l = state.m, state.l

    def step_size(y, t):
        h = dt
        while y.real < 10.0 * h * l / y.imag:
            h *= 0.5
            if h < dt * 2.0 ** -60 or t + h == t:
                raise EvolutionAbort("step underflow near collapse", t)
        return h

    # h <= a b / (10 l) keeps every stage's a above 0.9 a and its b above b: no
    # stage divides by zero
    def step(y, t, h):
        y = rk4_step(lambda y: complex(*ode_rhs(m, l, y.real, y.imag)), y, h)
        if not (0 < y.real < math.inf and 0 < y.imag < math.inf):  # NaN fails both
            raise EvolutionAbort("radius left the positive quadrant", t)
        return y

    def arrays(traj):
        y = np.array(traj.states)
        return SphereProductTrajectory(m, l, np.array(traj.times), y.real.copy(), y.imag.copy())

    try:
        return arrays(integrate(step, complex(state.a, state.b), dt, t_final, record_every,
                                done=done, step_size=step_size, max_steps=max_steps,
                                t0=state.t))
    except EvolutionAbort as exc:
        exc.trajectory = arrays(exc.trajectory)
        raise


def evolve_numeric(state, dt, t_final, record_every=1):
    """RK4 trajectory over [0, t_final] with step-halving near collapse."""
    return _run(state, dt, record_every, t_final)


def run_to_collapse(state, dt, a_stop=A_STOP_DEFAULT, record_every=1, max_steps=10 ** 8):
    """Integrate until a <= a_stop; the last recorded time is the stop time.
    ValueError unless a_stop is finite and > 0: a stays positive, so a run to
    an a_stop <= 0 or NaN would never stop."""
    if not (math.isfinite(a_stop) and a_stop > 0):
        raise ValueError(f"a_stop must be finite and > 0, got {a_stop}")
    return _run(state, dt, record_every, done=lambda t, y: y.real <= a_stop, max_steps=max_steps)


def trajectory_table(traj):
    """Columns t, a, b, hamiltonian, volume, willmore, dW_dt along a numeric
    trajectory."""
    states = [traj.state(i) for i in range(len(traj.times))]
    columns = {
        "t": lambda s: s.t, "a": lambda s: s.a, "b": lambda s: s.b,
        "hamiltonian": hamiltonian, "volume": volume, "willmore": willmore,
        "dW_dt": willmore_rate,
    }
    return {name: np.array([f(s) for s in states]) for name, f in columns.items()}


def embed(state, shape):
    """Grid immersion of the m = l = 1 state (pole-free charts only exist there)."""
    if state.m != 1 or state.l != 1:
        raise UnsupportedDimensionError(
            "grid embedding exists for m = l = 1 only; higher spheres are covered analytically"
        )
    return torus_immersion(state.a, state.b, shape)
