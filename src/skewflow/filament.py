"""Closed-curve binormal flow and its companion 1D systems.

The four corners of the 1D picture, all on the same periodic arclength grid:

    filament    d/dt gamma = gamma' x gamma''   (arclength parametrization)
    curvature   d/dt kappa = -(kappa^2 tau)'/kappa
    /torsion    d/dt tau   = -2 tau tau' + (kappa^2/2 + kappa''/kappa)'
    wave        i psi_t + psi'' + |psi|^2 psi / 2 = 0,  psi = kappa e^(i int tau)
    fluid       rho_t + (rho v)' = 0,  v_t + v v' = (rho + 2 sqrt(rho)''/sqrt(rho))'
                with rho = kappa^2, v = 2 tau

The curvature/torsion and fluid right-hand sides are grouped so that the two
discretizations are exactly conjugate under (rho, v) = (kappa^2, 2 tau), and
the conservative form -(rho v)' makes the discrete total mass exact.

Spatial derivatives are 4th-order centered differences by default; spectral
(FFT) differentiation is selectable.  Time stepping is classical RK4.  The
binormal velocity is normal to the curve, so arclength parametrization only
drifts by truncation; an optional periodic cubic resampling every few steps
corrects it.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline
from scipy.spatial.distance import cdist

from . import diffgeo as dg
from .errors import (
    BlowUpAbort,
    CurvatureDegeneracyAbort,
    EvolutionAbort,
    SelfIntersectionAbort,
    VacuumAbort,
)
from .stepping import integrate, rk4_step, step_count

KAPPA_MIN = 1e-8       # torsion mask / Da Rios singularity guard
RHO_MIN = 1e-10        # vacuum guard for the fluid form
D_MIN_FACTOR = 0.2     # self-intersection proxy, fraction of mean sample spacing
BLOWUP_CAP = 1e6       # abort when max |velocity| exceeds this
MIN_SAMPLES = 32


# ---------------------------------------------------------------------------
# curve containers and builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedCurve:
    """Closed curve in R^3 sampled at uniform parameter spacing."""

    points: np.ndarray   # (N, 3)
    period: float        # parameter period; equals the length once arclength-sampled

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"curve points must be (N, 3), got {pts.shape}")
        if pts.shape[0] < MIN_SAMPLES:
            raise ValueError(f"need at least {MIN_SAMPLES} samples, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("curve contains non-finite points")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def spacing(self):
        return self.period / self.n


def circle_curve(radius, n):
    """Positively oriented round circle in the z = 0 plane."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    u = np.arange(n) * 2.0 * np.pi / n
    pts = np.stack([radius * np.cos(u), radius * np.sin(u), np.zeros_like(u)], axis=-1)
    return ClosedCurve(pts, 2.0 * np.pi)


def perturbed_circle(radius, eps, k, n):
    """Planar curve r(u) = R (1 + eps cos k u); zero torsion, zero holonomy."""
    if radius <= 0 or not 0 <= eps < 1:
        raise ValueError("need radius > 0 and 0 <= eps < 1")
    u = np.arange(n) * 2.0 * np.pi / n
    r = radius * (1.0 + eps * np.cos(k * u))
    pts = np.stack([r * np.cos(u), r * np.sin(u), np.zeros_like(u)], axis=-1)
    return ClosedCurve(pts, 2.0 * np.pi)


def twisted_circle(radius, eps, k, n):
    """Non-planar closed curve with generically non-trivial torsion holonomy."""
    if radius <= 0 or not 0 <= eps < radius / 2:
        raise ValueError("need radius > 0 and 0 <= eps < radius/2")
    u = np.arange(n) * 2.0 * np.pi / n
    r = radius * (1.0 + 0.3 * eps * np.cos((k + 1) * u))
    z = eps * np.sin(k * u) + 0.5 * eps * np.cos(u)
    pts = np.stack([r * np.cos(u), r * np.sin(u), z], axis=-1)
    return ClosedCurve(pts, 2.0 * np.pi)


def build_curve(kind, n, **params):
    if kind == "circle":
        return circle_curve(params.pop("R"), n)
    if kind == "perturbed_circle":
        return perturbed_circle(params.pop("R"), params.pop("eps"), int(params.pop("k")), n)
    if kind == "twisted_circle":
        return twisted_circle(params.pop("R"), params.pop("eps"), int(params.pop("k")), n)
    raise ValueError(f"unknown curve kind {kind!r}")


# ---------------------------------------------------------------------------
# periodic differentiation (FD4 default, spectral selectable)
# ---------------------------------------------------------------------------

def _spectral_derivative(f, period, nu):
    n = f.shape[0]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=period / n)
    mult = (1j * k) ** nu
    if nu % 2 == 1 and n % 2 == 0:
        mult[-1] = 0.0  # odd derivative has no consistent Nyquist mode
    shape = (-1,) + (1,) * (f.ndim - 1)
    return np.fft.irfft(np.fft.rfft(f, axis=0) * mult.reshape(shape), n=n, axis=0)


def derivative(f, period, nu=1, scheme="fd4"):
    """nu-th derivative of a periodic sampled field (columns differentiated)."""
    if scheme == "fd4":
        h = period / f.shape[0]
        if nu == 1:
            return dg.diff(f, 0, h, 4)
        if nu == 2:
            return dg.diff2(f, 0, h, 4)
        if nu == 3:
            return dg.diff(dg.diff2(f, 0, h, 4), 0, h, 4)
        raise ValueError("fd4 supports 1 <= nu <= 3")
    if scheme == "spectral":
        return _spectral_derivative(f, period, nu)
    raise ValueError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# arclength machinery
# ---------------------------------------------------------------------------

def arclength_resample(curve, n=None):
    """Resample to uniform arclength with periodic cubic splines.

    The first sample stays anchored; the returned period is the curve length.
    """
    n_new = n or curve.n
    u = np.linspace(0.0, curve.period, curve.n + 1)
    pts = np.vstack([curve.points, curve.points[:1]])
    spline = CubicSpline(u, pts, axis=0, bc_type="periodic")
    dense = np.linspace(0.0, curve.period, 4 * curve.n + 1)
    speed = np.linalg.norm(spline(dense, 1), axis=1)
    if speed.min() <= 0:
        raise ValueError("curve is not immersed: vanishing tangent")
    s_dense = CubicSpline(dense, speed).antiderivative()(dense)
    length = float(s_dense[-1])
    u_of_s = CubicSpline(s_dense, dense)
    targets = np.arange(n_new) * length / n_new
    u_new = u_of_s(targets)
    u_new[0] = 0.0
    return ClosedCurve(spline(u_new), length)


def curve_length(curve, scheme="fd4"):
    """Total length, Riemann sum of |gamma'| over the parameter."""
    speed = np.linalg.norm(derivative(curve.points, curve.period, 1, scheme), axis=1)
    return float(np.sum(speed) * curve.spacing)


def willmore_1d(curve, scheme="fd4"):
    """Bending energy: Riemann sum of kappa^2 ds on the arclength grid."""
    gpp = derivative(curve.points, curve.period, 2, scheme)
    return float(np.sum(np.einsum("ij,ij->i", gpp, gpp)) * curve.spacing)


@functools.lru_cache(maxsize=16)
def _neighbour_band(n):
    """Read-only flat indices of the pairs (i, j) of an n x n matrix with
    |i - j| <= 1 mod n."""
    i = np.arange(n)[:, None]
    flat = (i * n + (i + np.arange(-1, 2)) % n).ravel()
    flat.flags.writeable = False
    return flat


def min_nonneighbor_distance(points):
    """Smallest distance between samples more than one index apart."""
    d = cdist(points, points)
    np.put(d, _neighbour_band(points.shape[0]), np.inf)
    return float(d.min())


# ---------------------------------------------------------------------------
# binormal flow
# ---------------------------------------------------------------------------

def _cross(u, v):
    """Row-wise cross product of (N, 3) arrays; the same arithmetic as np.cross
    without its per-call axis handling."""
    u0, u1, u2 = u[:, 0], u[:, 1], u[:, 2]
    v0, v1, v2 = v[:, 0], v[:, 1], v[:, 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=-1)


def binormal_rhs(points, period, scheme="fd4"):
    """Velocity gamma' x gamma'' of the filament equation (arclength samples)."""
    return _cross(derivative(points, period, 1, scheme), derivative(points, period, 2, scheme))


def stability_limit(n, period, scheme="fd4"):
    """RK4 step bound for the binormal flow's k^2 dispersion at grid scale."""
    h = period / n
    if scheme == "spectral":
        peak = (np.pi / h) ** 2
    else:
        peak = (16.0 / 3.0) / (h * h)
    return 2.82 / peak


def evolve_filament(curve, dt, t_final, stride=None, reparam_every=10, scheme="fd4"):
    """RK4 evolution under the binormal flow; returns a stepping.Trajectory.

    The input is resampled to uniform arclength first; every reparam_every
    steps the parametrization is refreshed by periodic cubic resampling
    (reparam_every = 0 disables this).  Snapshots are recorded every `stride`
    steps (default: initial and final only).  Aborts on the self-intersection
    proxy and on velocity blow-up; a step size above the dispersion stability
    bound is rejected up front.
    """
    c = arclength_resample(curve)
    d_min = D_MIN_FACTOR * c.period / c.n
    nsteps = step_count(dt, t_final, stride)

    def checks(c, t):
        if np.max(np.abs(binormal_rhs(c.points, c.period, scheme))) > BLOWUP_CAP:
            raise BlowUpAbort("binormal velocity exceeded the blow-up cap", t)
        if min_nonneighbor_distance(c.points) < d_min:
            raise SelfIntersectionAbort("non-neighbor samples closer than d_min", t)

    def step(c, i):
        pts = rk4_step(lambda p: binormal_rhs(p, c.period, scheme), c.points, dt)
        if not np.all(np.isfinite(pts)):
            raise BlowUpAbort("non-finite coordinates", i * dt)
        c = ClosedCurve(pts, c.period)
        reparam = reparam_every and i % reparam_every == 0
        if reparam:
            c = arclength_resample(c)
        if reparam or i == nsteps:
            checks(c, i * dt)
        return c

    checks(c, 0.0)
    dt_max = stability_limit(c.n, c.period, scheme)
    if dt > dt_max:
        raise ValueError(f"dt={dt:.3e} above the stability bound {dt_max:.3e} at N={c.n}")
    return integrate(step, c, dt, t_final, stride)


# ---------------------------------------------------------------------------
# Frenet data and the Hasimoto map
# ---------------------------------------------------------------------------

@dataclass
class FrenetData:
    s: np.ndarray             # arclength of each sample
    kappa: np.ndarray         # curvature >= 0
    tau: np.ndarray           # torsion, zeroed where masked
    mask: np.ndarray          # True where kappa < KAPPA_MIN (tau undefined)
    length: float

    @property
    def ds(self):
        return self.length / self.s.size

    @property
    def total_torsion(self):
        return float(np.sum(self.tau) * self.ds)


def frenet_data(curve, scheme="fd4"):
    """Curvature kappa = |gamma''| and torsion (gamma' x gamma'', gamma''')/kappa^2.

    Assumes a uniform-arclength curve.  Torsion is masked (set to zero with
    mask True) where kappa < KAPPA_MIN; no regularization is attempted.
    """
    pts, period = curve.points, curve.period
    gp = derivative(pts, period, 1, scheme)
    gpp = derivative(pts, period, 2, scheme)
    gppp = derivative(pts, period, 3, scheme)
    kappa = np.linalg.norm(gpp, axis=1)
    mask = kappa < KAPPA_MIN
    gp_x_gpp = _cross(gp, gpp)
    denom = np.where(mask, 1.0, kappa ** 2)
    tau = np.where(mask, 0.0, np.einsum("ij,ij->i", gp_x_gpp, gppp) / denom)
    s = np.arange(curve.n) * curve.spacing
    return FrenetData(s=s, kappa=kappa, tau=tau, mask=mask, length=period)


@dataclass(frozen=True)
class WaveField:
    psi: np.ndarray   # complex samples on a periodic grid
    L: float          # domain length

    @property
    def m(self):
        return self.psi.size

    def mass(self):
        return float(np.sum(np.abs(self.psi) ** 2) * self.L / self.m)


def hasimoto(frenet, s0=0):
    """Wave function kappa e^(i int tau ds) from the basepoint index s0.

    psi(s0) is real (= kappa(s0)).  The returned holonomy is the total
    torsion angle around the curve; psi is single-valued on the circle only
    when it is a multiple of 2 pi, otherwise the samples are the
    quasi-periodic representative and the mismatch is exactly the holonomy.
    """
    phase = cumulative_trapezoid(frenet.tau, dx=frenet.ds, initial=0.0)
    phase = phase - phase[s0]
    psi = frenet.kappa * np.exp(1j * phase)
    holonomy = frenet.total_torsion
    return WaveField(psi, frenet.length), holonomy


def holonomy_defect(angle):
    """Distance of a holonomy angle from the nearest multiple of 2 pi."""
    return float(abs(angle - 2.0 * np.pi * round(angle / (2.0 * np.pi))))


# ---------------------------------------------------------------------------
# focusing cubic Schrodinger equation, Strang split-step
# ---------------------------------------------------------------------------

def nls_evolve(wave, dt, t_final, stride=None):
    """i psi_t + psi'' + |psi|^2 psi / 2 = 0 by spectral Strang splitting.

    Half-step nonlinear phase, full linear step exp(-i dt k^2) in frequency
    space, half-step nonlinear.  Mass is conserved to roundoff.  The grid
    size must be a power of two.  Returns a stepping.Trajectory of WaveFields.
    """
    m = wave.m
    if m & (m - 1):
        raise ValueError(f"grid size must be a power of two, got {m}")
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=wave.L / m)
    linear = np.exp(-1j * dt * (k * k))

    def step(w, i):
        psi = w.psi * np.exp(0.25j * dt * np.abs(w.psi) ** 2)
        psi = np.fft.ifft(np.fft.fft(psi) * linear)
        psi = psi * np.exp(0.25j * dt * np.abs(psi) ** 2)
        if not np.all(np.isfinite(psi.view(float))):
            raise EvolutionAbort("wave function became non-finite", i * dt)
        return WaveField(psi, wave.L)

    return integrate(step, wave, dt, t_final, stride)


# ---------------------------------------------------------------------------
# curvature/torsion evolution and its fluid form
# ---------------------------------------------------------------------------

def darios_evolve(kappa, tau, length, dt, t_final, stride=None, scheme="fd4"):
    """Method-of-lines RK4 for the curvature/torsion system.

    Returns a stepping.Trajectory of stacked (kappa, tau) arrays.  Aborts when
    kappa touches KAPPA_MIN (the kappa''/kappa term is singular there; the
    system offers no desingularization).
    """

    def rhs(state):
        k, t = state
        dk = -derivative(k * k * t, length, 1, scheme) / k
        dtau = -2.0 * t * derivative(t, length, 1, scheme) + derivative(
            0.5 * k * k + derivative(k, length, 2, scheme) / k, length, 1, scheme
        )
        return np.stack([dk, dtau])

    def guarded(y, t):
        if y[0].min() <= KAPPA_MIN:
            raise CurvatureDegeneracyAbort("curvature touched kappa_min", t)
        return y

    def step(y, i):
        y = rk4_step(rhs, y, dt)
        if not np.all(np.isfinite(y)):
            raise EvolutionAbort("curvature/torsion became non-finite", i * dt)
        return guarded(y, i * dt)

    y0 = np.stack([np.asarray(kappa, dtype=float), np.asarray(tau, dtype=float)])
    with np.errstate(all="ignore"):  # blow-ups are caught by the guards
        return integrate(step, guarded(y0, 0.0), dt, t_final, stride)


@dataclass(frozen=True)
class FluidState1D:
    rho: np.ndarray
    v: np.ndarray
    L: float

    def __post_init__(self):
        if np.any(self.rho <= 0):
            raise ValueError("density must be positive everywhere")

    def mass(self):
        return float(np.sum(self.rho) * self.L / self.rho.size)


def to_fluid(frenet):
    """Fluid variables rho = kappa^2, v = 2 tau of the curvature/torsion pair."""
    if frenet.mask.any():
        raise ValueError("torsion is masked somewhere; fluid form needs kappa > 0")
    return FluidState1D(frenet.kappa ** 2, 2.0 * frenet.tau, frenet.length)


def fluid_evolve(state, dt, t_final, stride=None, scheme="fd4"):
    """Conservative method-of-lines RK4 for the barotropic pair (rho, v).

    rho_t = -(rho v)' keeps the discrete total mass exact; the velocity
    equation uses the same stencils as the curvature/torsion system, making
    the two solvers exactly conjugate under rho = kappa^2, v = 2 tau.
    Returns a stepping.Trajectory of FluidState1D.
    """
    L = state.L

    def rhs(y):
        rho, v = y
        sq = np.sqrt(rho)
        drho = -derivative(rho * v, L, 1, scheme)
        dv = -v * derivative(v, L, 1, scheme) + derivative(
            rho + 2.0 * derivative(sq, L, 2, scheme) / sq, L, 1, scheme
        )
        return np.stack([drho, dv])

    def guarded(y, t):
        # before FluidState1D, which rejects rho <= 0 with a ValueError
        if y[0].min() <= RHO_MIN:
            raise VacuumAbort("density touched rho_min", t)
        return FluidState1D(y[0], y[1], L)

    def step(s, i):
        y = rk4_step(rhs, np.stack([s.rho, s.v]), dt)
        if not np.all(np.isfinite(y)):
            raise EvolutionAbort("fluid state became non-finite", i * dt)
        return guarded(y, i * dt)

    y0 = np.stack([state.rho.astype(float), state.v.astype(float)])
    with np.errstate(all="ignore"):  # vacuum crossings are caught by the guards
        return integrate(step, guarded(y0, 0.0), dt, t_final, stride)


# ---------------------------------------------------------------------------
# shared snapshot format (dim 1, ambient 3)
# ---------------------------------------------------------------------------

def curve_to_immersion(curve):
    """View a closed curve as a 1D grid immersion (shared snapshot format)."""
    return dg.GridImmersion(curve.points, (curve.period,))


def curve_from_immersion(imm):
    """Closed curve from a dim-1 snapshot immersion."""
    if imm.dim != 1 or imm.ambient_dim != 3:
        raise ValueError(f"need a dim-1 immersion in R^3, got dim={imm.dim}")
    return ClosedCurve(imm.points, imm.param_periods[0])


# ---------------------------------------------------------------------------
# Madelung transform
# ---------------------------------------------------------------------------

def madelung(rho, theta):
    """psi = sqrt(rho) e^(i theta / 2); with rho = kappa^2, theta = 2 int tau
    this is exactly the Hasimoto wave function."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("Madelung transform needs rho > 0 (phase undefined in vacuum)")
    return np.sqrt(rho) * np.exp(0.5j * np.asarray(theta, dtype=float))


def madelung_inverse(psi):
    """Recover (rho, theta): rho = |psi|^2, theta = 2 * unwrapped arg psi."""
    psi = np.asarray(psi, dtype=complex)
    rho = np.abs(psi) ** 2
    if rho.min() <= RHO_MIN:
        raise ValueError("wave function touches vacuum; phase undefined")
    return rho, 2.0 * np.unwrap(np.angle(psi))
