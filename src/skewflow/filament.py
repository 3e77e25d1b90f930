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

Spatial derivatives are 4th-order centered differences (diffgeo's periodic
stencils); time stepping is classical RK4.  A run builds its stage once:
padded buffers with their halo fill (diffgeo._halo) and neighbour views,
and the planes the differences are taken into.  A stage call copies its
fields into those buffers and wraps them once per derivative level: the
filament's points (_binormal_stage), or the curvature/torsion and fluid
fields as the rows of one buffer and the field built from their second
difference (_padded_rows).  The binormal velocity is normal to the curve,
so arclength parametrization only drifts by truncation: a run resamples its
input to uniform arclength once and never again.

The package depends on numpy alone, so a CLI call starts without loading a
larger library.  The resampling's cubic splines (a periodic one through the
samples, not-a-knot ones for the speed and for the parameter against
arclength) are built here from Hermite cubics and one tridiagonal solve each;
the Hasimoto phase is a cumulative trapezoid sum.  The self-intersection
guard sums the squared pairwise distances coordinate by coordinate, a block
of index offsets at a time, and skips the offsets that the triangle
inequality along the curve rules out; it returns the minimum of the full
search bit for bit, computes about a fifth of the offsets on a round curve,
and costs about one and a half full passes where strands are in near
contact, so that little can be skipped.

A closed curve is a dim-1 diffgeo.GridImmersion: points of shape (N, 3) and
one parameter period, which is the length once the curve is sampled by
arclength.  The filament is the n = 1 case of the membrane flow, so curves
and membranes share one type, one cross product (diffgeo.generalised_cross)
and one snapshot format.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import diffgeo as dg
from .errors import (
    BlowUpAbort,
    CurvatureDegeneracyAbort,
    EvolutionAbort,
    SelfIntersectionAbort,
    VacuumAbort,
)
from .stepping import check_times, integrate, rk4_step, step_count

KAPPA_MIN = 1e-8       # torsion mask / Da Rios singularity guard
RHO_MIN = 1e-10        # vacuum guard for the fluid form
D_MIN_FACTOR = 0.2     # self-intersection proxy, fraction of mean sample spacing
BLOWUP_CAP = 1e6       # abort when max |velocity| exceeds this
GUARD_EVERY = 10       # steps between blow-up / self-intersection guards
HOLONOMY_TOL = 1e-8    # torsion holonomy treated as a multiple of 2 pi
SPEED_DEVIATION_WARN = 1e-3   # resampled speed deviation above which a grid is too coarse
MIN_SAMPLES = 32

# relative slack of the self-intersection guard's pruning bound, far above the
# rounding of a distance, and the smallest normal float, below which squared
# distances lose relative accuracy
_PRUNE_SLACK = 1e-9
_TINY = np.finfo(float).tiny
# index offsets in the self-intersection guard's first and widest blocks
_FIRST_BLOCK = 4
_GUARD_BLOCK = 32


# ---------------------------------------------------------------------------
# curve builders
# ---------------------------------------------------------------------------

def circle_curve(radius, n):
    """Positively oriented round circle in the z = 0 plane."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    u = np.arange(n) * 2.0 * np.pi / n
    pts = np.stack([radius * np.cos(u), radius * np.sin(u), np.zeros_like(u)], axis=-1)
    return dg.GridImmersion(pts, (2.0 * np.pi,))


def perturbed_circle(radius, eps, k, n):
    """Planar curve r(u) = R (1 + eps cos k u); zero torsion, zero holonomy."""
    if radius <= 0 or not 0 <= eps < 1:
        raise ValueError("need radius > 0 and 0 <= eps < 1")
    u = np.arange(n) * 2.0 * np.pi / n
    r = radius * (1.0 + eps * np.cos(k * u))
    pts = np.stack([r * np.cos(u), r * np.sin(u), np.zeros_like(u)], axis=-1)
    return dg.GridImmersion(pts, (2.0 * np.pi,))


def twisted_circle(radius, eps, k, n):
    """Non-planar closed curve with generically non-trivial torsion holonomy."""
    if radius <= 0 or not 0 <= eps < radius / 2:
        raise ValueError("need radius > 0 and 0 <= eps < radius/2")
    u = np.arange(n) * 2.0 * np.pi / n
    r = radius * (1.0 + 0.3 * eps * np.cos((k + 1) * u))
    z = eps * np.sin(k * u) + 0.5 * eps * np.cos(u)
    pts = np.stack([r * np.cos(u), r * np.sin(u), z], axis=-1)
    return dg.GridImmersion(pts, (2.0 * np.pi,))


def build_curve(kind, n, **params):
    dg.check_grid_sizes((n,))
    if kind == "circle":
        return circle_curve(params.pop("R"), n)
    if kind == "perturbed_circle":
        return perturbed_circle(params.pop("R"), params.pop("eps"), int(params.pop("k")), n)
    if kind == "twisted_circle":
        return twisted_circle(params.pop("R"), params.pop("eps"), int(params.pop("k")), n)
    raise ValueError(f"unknown curve kind {kind!r}")


# ---------------------------------------------------------------------------
# periodic differentiation
# ---------------------------------------------------------------------------

def derivative(f, period, nu=1):
    """nu-th derivative of a periodic sampled field (columns differentiated)
    by diffgeo's order-4 centered differences."""
    h = period / f.shape[0]
    if nu == 1:
        return dg.diff(f, 0, h, 4)
    if nu == 2:
        return dg.diff2(f, 0, h, 4)
    raise ValueError(f"nu must be 1 or 2, got {nu}")


# ---------------------------------------------------------------------------
# arclength machinery
# ---------------------------------------------------------------------------

# The cubic splines below are Hermite cubics on each interval, with the knot
# slopes of the C^2 interpolant from a periodic or a not-a-knot tridiagonal
# system (de Boor, A Practical Guide to Splines).

# d/dt of the Hermite cubic on [0, 1] at t = 0, 1/4, 1/2 and 3/4, as weights
# on the secant (y1 - y0)/h and the end slopes m0, m1
_QUARTER_WEIGHTS = np.array([
    [0.0, 1.0, 0.0],
    [9.0 / 8.0, 3.0 / 16.0, -5.0 / 16.0],
    [1.5, -0.25, -0.25],
    [9.0 / 8.0, -5.0 / 16.0, 3.0 / 16.0],
])


def _tridiag_solve(a, b, c, d):
    """Solution of the tridiagonal system with sub-diagonal a, diagonal b,
    super-diagonal c and right-hand side d, by one sequential elimination
    without pivoting (Thomas) on Python floats: a run resamples once."""
    a, b, c, d = a.tolist(), b.tolist(), c.tolist(), d.tolist()
    pivots, y = [b[0]], [d[0]]
    for i in range(1, len(b)):
        g = a[i - 1] / pivots[-1]
        pivots.append(b[i] - g * c[i - 1])
        y.append(d[i] - g * y[-1])
    x = [y[-1] / pivots[-1]]
    for i in range(len(b) - 2, -1, -1):
        x.append((y[i] - c[i] * x[-1]) / pivots[i])
    return np.array(x[::-1])


def _notaknot_system(x, y):
    """Tridiagonal system (a, b, c) and right-hand side for the knot slopes of
    the not-a-knot cubic spline through (x, y)."""
    dx = np.diff(x)
    if dx.min() <= 0:
        raise ValueError("spline knots must be strictly increasing")
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    a = np.concatenate((dx[1:], [d1]))
    b = np.concatenate(([dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]))
    c = np.concatenate(([d0], dx[:-1]))
    rhs = np.concatenate((
        [((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
        3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
        [(dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1],
    ))
    return (a, b, c), rhs


def _periodic_slopes(wrapped, h):
    """Slopes of the periodic cubic spline on knots spaced h through the n
    rows of y, given as wrapped = y[-1], y[0], ..., y[n-1], y[0]: the
    circulant system m_{i-1} + 4 m_i + m_{i+1} = 3 (y_{i+1} - y_{i-1})/h,
    whose eigenvalues are 4 + 2 cos(2 pi j / n)."""
    n = wrapped.shape[0] - 2
    rhs = (3.0 / h) * (wrapped[2:] - wrapped[:-2])
    eig = 4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
    return np.fft.irfft(np.fft.rfft(rhs, axis=0) / eig[:, None], n=n, axis=0)


def _hermite(x, y, m, xq):
    """Cubic with values y and slopes m at the knots x, evaluated at xq."""
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    h = x[i + 1] - x[i]
    t = (xq - x[i]) / h
    if y.ndim > 1:
        t, h = t[:, None], h[:, None]
    t2 = t * t
    t3 = t2 * t
    return ((2.0 * t3 - 3.0 * t2 + 1.0) * y[i] + (t3 - 2.0 * t2 + t) * h * m[i]
            + (3.0 * t2 - 2.0 * t3) * y[i + 1] + (t3 - t2) * h * m[i + 1])


def arclength_resample(curve):
    """Resample a curve to uniform arclength with cubic splines.

    A periodic spline through the samples gives the speed at four points per
    interval; the arclength at those points is the integral of their
    not-a-knot speed spline, and a not-a-knot spline of the parameter against
    arclength picks the new parameters.  Every curve reaches the 1D solvers
    through here, so this is where a dim-1 immersion in R^3 with at least
    MIN_SAMPLES samples is required.  The first sample stays anchored; the
    returned period is the curve length.
    """
    if curve.dim != 1:
        raise ValueError(f"need a dim-1 immersion in R^3, got dim={curve.dim}")
    (n,), (period,) = curve.shape, curve.param_periods
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    h = period / n
    u = np.linspace(0.0, period, n + 1)
    wrapped = dg._halo(np.empty((n + 2, 3)), (0,), 1)(curve.points)   # rows -1 .. n (mod n)
    pts = wrapped[1:]
    m = dg._halo(np.empty((n + 2, 3)), (0,), 1)(_periodic_slopes(wrapped, h))[1:]
    secant = (pts[1:] - pts[:-1]) / h
    w = _QUARTER_WEIGHTS[:, :, None, None]
    tangent = w[:, 0] * secant + w[:, 1] * m[:-1] + w[:, 2] * m[1:]   # (4, N, 3)
    tangent *= tangent
    sq = tangent[..., 0] + tangent[..., 1]
    sq += tangent[..., 2]          # x, y, z in order, as np.linalg.norm sums them
    speed = np.empty(4 * n + 1)    # dense order: interval by interval, then quarter
    np.sqrt(sq.T, out=speed[:-1].reshape(n, 4))
    speed[-1] = speed[0]
    if speed.min() <= 0:
        raise ValueError("curve is not immersed: vanishing tangent")
    dense = np.linspace(0.0, period, 4 * n + 1)
    hd = period / (4 * n)
    _, rhs = _notaknot_system(dense, speed)
    unit, _ = _notaknot_system(np.arange(4.0 * n + 1), speed)  # the matrix at spacing hd, over hd
    ms = _tridiag_solve(*unit, rhs / hd)
    pieces = hd * (speed[:-1] + speed[1:]) / 2.0 + hd * hd * (ms[:-1] - ms[1:]) / 12.0
    s_dense = np.concatenate(([0.0], np.cumsum(pieces)))
    length = float(s_dense[-1])
    matrix, rhs = _notaknot_system(s_dense, dense)
    mu = _tridiag_solve(*matrix, rhs)
    u_new = _hermite(s_dense, dense, mu, np.arange(n) * length / n)
    u_new[0] = 0.0
    return dg.GridImmersion(_hermite(u, pts, m, u_new), (length,))


def curve_length(curve):
    """Total length, Riemann sum of |gamma'| over the parameter."""
    speed = np.linalg.norm(derivative(curve.points, curve.param_periods[0], 1), axis=1)
    return float(np.sum(speed) * curve.spacings[0])


def speed_deviation(curve):
    """max | |gamma'| / mean - 1 | of the order-4 speed: zero on a uniform
    arclength grid that resolves the curve.  A resampled curve reads it well
    above roundoff where the grid is too coarse for its stencils."""
    speed = np.linalg.norm(derivative(curve.points, curve.param_periods[0], 1), axis=1)
    return float(np.max(np.abs(speed / speed.mean() - 1.0)))


def willmore_1d(curve):
    """Bending energy: Riemann sum of kappa^2 ds on the arclength grid."""
    gpp = derivative(curve.points, curve.param_periods[0], 2)
    return float(np.sum(np.einsum("ij,ij->i", gpp, gpp)) * curve.spacings[0])


def min_nonneighbor_distance(points):
    """Smallest distance between samples more than one index apart (mod N).

    Each pair is met at its index offset k = 2 .. N//2, and its squared
    distance is summed over x, y, z in that order, so the value is the
    Euclidean pairwise distance bit for bit.  The offsets are walked upwards
    in blocks, each one (3, block, N) difference, and an offset is skipped
    when the triangle inequality along the curve rules it out: p(i+k+j) lies
    within j e of p(i+k), e the longest edge, so no pair at offset k + j is
    closer than d_k - j e, d_k the closest pair at offset k.  The bound is
    shrunk by _PRUNE_SLACK against rounding, and pruning is off where a
    square could underflow or overflow, so a skipped offset never holds the
    minimum and the value is that of the full search.

    The first block holds _FIRST_BLOCK offsets, and a block that skips no
    more offsets than it computed doubles the next one, up to _GUARD_BLOCK.
    On a round curve at N = 256 four blocks of at most 8 offsets compute 28
    of the 127.  Where little can be skipped (strands in near contact, a
    cloud) the blocks soon reach full width: the call then takes about one
    and a half times one pass over every offset, and its largest temporary
    is under half of that pass's (3, N/2 - 1, N) difference.
    """
    n = points.shape[0]
    if n < 4:
        return math.inf   # no pair is more than one index apart
    xyz = np.ascontiguousarray(points.T, dtype=float)
    ring = np.concatenate((xyz, xyz), axis=1)
    # windows[:, k] = ring[:, k:k + n], built directly: sliding_window_view
    # costs more than a small block's arithmetic
    windows = np.ndarray((3, n + 1, n), float, ring, 0, (ring.strides[0], 8, 8))
    xyz, last, delta = xyz[:, None, :], n // 2, np.empty((3, 0, n))

    def squared(k, stop):
        """Squared distances of the pairs at offsets k .. stop - 1, one row each."""
        nonlocal delta
        if delta.shape[1] < stop - k:
            delta = None   # free the narrower buffer first
            delta = np.empty((3, stop - k, n))
        diff = np.subtract(windows[:, k:stop], xyz, out=delta[:, :stop - k])
        np.multiply(diff, diff, out=diff)
        sq = np.add(diff[0], diff[1], out=diff[0])
        return np.add(sq, diff[2], out=sq)

    edge2 = squared(1, 2).max()   # offset 1 pairs the neighbours: the edges
    prune = _TINY <= edge2 < np.inf
    edge = math.sqrt(edge2) * (1.0 + _PRUNE_SLACK) if prune else 0.0
    best2, k, size = np.inf, 2, _FIRST_BLOCK
    while k <= last:
        start, stop = k, min(k + size, last + 1)
        minima = squared(start, stop).min(axis=1).tolist()   # closest pair per offset
        block_best = math.nan if math.isnan(sum(minima)) else min(minima)
        if block_best < best2 or block_best != block_best:  # a NaN stays, as in one min
            best2 = block_best
        k = stop
        if prune and _TINY <= best2 < np.inf:
            # offset i rules out i + j for j e < gap_i, so up to i + ceil(gap_i / e);
            # the farthest offset of the block reaches furthest
            far2 = max(minima)
            gap = math.sqrt(far2) * (1.0 - _PRUNE_SLACK) - math.sqrt(best2) * (1.0 + _PRUNE_SLACK)
            if 0.0 < gap < np.inf:
                k = max(k, start + minima.index(far2) + math.ceil(gap / edge))
        if k - stop <= stop - start:
            size = min(2 * size, _GUARD_BLOCK)
    return float(np.sqrt(best2))


# ---------------------------------------------------------------------------
# binormal flow
# ---------------------------------------------------------------------------

def _binormal_stage(n, period):
    """rhs(points): the velocity gamma' x gamma'' of the filament equation on
    n arclength samples, as a new array.  The points are padded into one
    (n + 4, 3) buffer whose halo fill (diffgeo._halo) and neighbour views
    are made here, once per run, and both differences are taken into planes
    the stage owns; the velocity is bitwise that of per-call derivatives."""
    h, padded = period / n, np.empty((n + 4, 3))
    fill, at = dg._halo(padded, (0,), 2), dg._neighbour_views(padded, 0, 2)
    gp, gpp, tmp = np.empty((3, n, 3))

    def rhs(points):
        fill(points)
        dg._first(at, h, 4, gp, tmp)
        dg._second(at, h, 4, gpp, tmp)
        return dg.generalised_cross([gp.T], gpp.T).T

    return rhs


def binormal_rhs(points, period):
    """Velocity gamma' x gamma'' of the filament equation (arclength samples),
    as a new array: one call of the stage a filament run keeps."""
    return _binormal_stage(points.shape[0], period)(points)


def stability_limit(n, period):
    """RK4 step bound for the binormal flow's k^2 dispersion at grid scale."""
    h = period / n
    return 2.82 / ((16.0 / 3.0) / (h * h))


def evolve_filament(curve, dt, t_final, stride=None):
    """RK4 evolution under the binormal flow; returns a stepping.Trajectory
    of GridImmersions.

    The input is resampled to uniform arclength once, and the flow runs on
    that grid: its velocity is normal to the curve, so the parametrization
    drifts only by truncation.  The state is the (N, 3) points, and only
    the recorded ones, every `stride` steps (default: initial and final
    only), become GridImmersions.  A step size above the dispersion
    stability bound is rejected up front, before any guard.  The RK4 stages
    and the guard call one _binormal_stage, built here for the run.  The
    guard aborts on non-finite coordinates at any step, and checks the
    self-intersection proxy and the velocity blow-up cap on the input, every
    GUARD_EVERY steps and at the last step.
    """
    c = arclength_resample(curve)
    (n,), (period,) = c.shape, c.param_periods
    d_min = D_MIN_FACTOR * period / n
    nsteps = step_count(dt, t_final, stride)
    dt_max = stability_limit(n, period)
    if dt > dt_max:
        raise ValueError(f"dt={dt:.3e} above the stability bound {dt_max:.3e} at N={n}")
    rhs = _binormal_stage(n, period)

    def guard(pts, i):
        if not dg.all_finite(pts):
            raise BlowUpAbort("non-finite coordinates", i * dt)
        if i % GUARD_EVERY and i != nsteps:
            return
        if np.max(np.abs(rhs(pts))) > BLOWUP_CAP:
            raise BlowUpAbort("binormal velocity exceeded the blow-up cap", i * dt)
        if min_nonneighbor_distance(pts) < d_min:
            raise SelfIntersectionAbort("non-neighbor samples closer than d_min", i * dt)

    return integrate(lambda pts, i: rk4_step(rhs, pts, dt),
                     c.points, dt, t_final, stride, guard=guard,
                     record=lambda pts, t: dg.GridImmersion(pts, c.param_periods))


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


def frenet_data(curve):
    """Curvature kappa = |gamma''| and torsion (gamma' x gamma'', gamma''')/kappa^2.

    Assumes a uniform-arclength curve.  Torsion is masked (set to zero with
    mask True) where kappa < KAPPA_MIN; no regularization is attempted.
    """
    pts, (period,) = curve.points, curve.param_periods
    gp = derivative(pts, period, 1)
    gpp = derivative(pts, period, 2)
    gppp = derivative(gpp, period, 1)
    kappa = np.linalg.norm(gpp, axis=1)
    mask = kappa < KAPPA_MIN
    gp_x_gpp = dg.generalised_cross([gp.T], gpp.T).T
    denom = np.where(mask, 1.0, kappa ** 2)
    tau = np.where(mask, 0.0, np.einsum("ij,ij->i", gp_x_gpp, gppp) / denom)
    s = np.arange(curve.shape[0]) * curve.spacings[0]
    return FrenetData(s=s, kappa=kappa, tau=tau, mask=mask, length=period)


def mass(density, length):
    """Total mass of a density sampled on a periodic grid of the given length,
    the Riemann sum that the wave (|psi|^2) and fluid (rho) runs report."""
    return float(np.sum(density) * length / density.size)


def hasimoto(frenet, s0=0):
    """(psi, holonomy): the wave function kappa e^(i int tau ds) from the
    basepoint index s0, on the curve's grid of length frenet.length, and the
    total torsion angle around the curve.

    psi(s0) is real (= kappa(s0)).  psi is single-valued on the circle only
    when the holonomy is a multiple of 2 pi, otherwise the samples are the
    quasi-periodic representative and the mismatch is exactly the holonomy.
    """
    tau = frenet.tau
    phase = np.concatenate(([0.0], np.cumsum(frenet.ds * (tau[1:] + tau[:-1]) / 2.0)))
    phase = phase - phase[s0]
    return frenet.kappa * np.exp(1j * phase), frenet.total_torsion


def holonomy_defect(angle):
    """Distance of a holonomy angle from the nearest multiple of 2 pi."""
    return float(abs(angle - 2.0 * np.pi * round(angle / (2.0 * np.pi))))


# ---------------------------------------------------------------------------
# focusing cubic Schrodinger equation, Strang split-step
# ---------------------------------------------------------------------------

def nls_evolve(psi, length, dt, t_final, stride=None):
    """i psi_t + psi'' + |psi|^2 psi / 2 = 0 by spectral Strang splitting, for
    the samples psi on a periodic grid of the given length.

    Half-step nonlinear phase, full linear step exp(-i dt k^2) in frequency
    space, half-step nonlinear.  Mass is conserved to roundoff.  Returns a
    stepping.Trajectory of the complex samples.  ValueError unless the grid
    size is a power of two (1 included) and the length is finite and > 0.
    """
    psi = np.asarray(psi, dtype=complex)
    m = psi.size
    if m < 1 or m & (m - 1):
        raise ValueError(f"grid size must be a power of two, got {m}")
    if not (math.isfinite(length) and length > 0):
        raise ValueError(f"domain length L must be finite and > 0, got {length}")
    check_times(dt, t_final)  # before dt enters the linear propagator
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=length / m)
    linear = np.exp(-1j * dt * (k * k))

    def step(psi, i):
        psi = psi * np.exp(0.25j * dt * np.abs(psi) ** 2)
        psi = np.fft.ifft(np.fft.fft(psi) * linear)
        return psi * np.exp(0.25j * dt * np.abs(psi) ** 2)

    def guard(psi, i):
        if not dg.all_finite(psi):
            raise EvolutionAbort("wave function became non-finite", i * dt)

    return integrate(step, psi, dt, t_final, stride, guard=guard)


# ---------------------------------------------------------------------------
# curvature/torsion evolution and its fluid form
# ---------------------------------------------------------------------------

def _padded_rows(n, period):
    """Order-4 differences on padded rows, made once per run with their halo
    fills (diffgeo._halo): level1(a, b, c) pads a, b, c as the rows of one
    buffer, wraps it once and returns a' and b' as one (2, n) array, and c'';
    level2(f) returns f'.  Each result, bitwise derivative's, holds until
    the next call of its level."""
    h, one, two = period / n, np.empty((3, n + 4)), np.empty((1, n + 4))
    wrap_one, fill_two = dg._halo(one, (1,), 2), dg._halo(two, (1,), 2)
    rows = dg.interior(one, 4)
    at_ab, at_c, at_f = (dg._neighbour_views(b, 1, 2) for b in (one[:2], one[2:], two))
    (d_ab, tmp), (d_c, d_f) = np.empty((2, 2, n)), np.empty((2, 1, n))

    def level1(a, b, c):
        rows[0], rows[1], rows[2] = a, b, c
        wrap_one()
        return dg._first(at_ab, h, 4, d_ab, tmp), dg._second(at_c, h, 4, d_c, tmp[:1])[0]

    def level2(f):
        fill_two(f)
        return dg._first(at_f, h, 4, d_f, tmp[:1])[0]

    return level1, level2


def darios_evolve(kappa, tau, length, dt, t_final, stride=None):
    """Method-of-lines RK4 for the curvature/torsion system, on two padded
    rows buffers (_padded_rows).

    Returns a stepping.Trajectory of stacked (kappa, tau) arrays.  The guard
    aborts on non-finite fields, and where kappa touches KAPPA_MIN, the input
    included (the kappa''/kappa term is singular there; the system offers no
    desingularization).
    """
    y0 = np.stack([np.asarray(kappa, dtype=float), np.asarray(tau, dtype=float)])
    level1, level2 = _padded_rows(y0.shape[1], length)

    def rhs(state):
        k, t = state
        (d_kkt, d_t), kpp = level1(k * k * t, t, k)
        return np.array((-d_kkt / k, -2.0 * t * d_t + level2(0.5 * k * k + kpp / k)))

    def guard(y, i):
        if not dg.all_finite(y):
            raise EvolutionAbort("curvature/torsion became non-finite", i * dt)
        if y[0].min() <= KAPPA_MIN:
            raise CurvatureDegeneracyAbort("curvature touched kappa_min", i * dt)

    with np.errstate(all="ignore"):  # blow-ups are caught by the guard
        return integrate(lambda y, i: rk4_step(rhs, y, dt), y0, dt, t_final, stride, guard=guard)


def to_fluid(frenet):
    """(rho, v) = (kappa^2, 2 tau), the fluid variables of the curvature/torsion
    pair, on the curve's grid of length frenet.length.  ValueError where the
    torsion is masked (kappa < KAPPA_MIN), so rho >= KAPPA_MIN^2 > 0."""
    if frenet.mask.any():
        raise ValueError("torsion is masked somewhere; fluid form needs kappa > 0")
    return frenet.kappa ** 2, 2.0 * frenet.tau


def fluid_evolve(rho, v, length, dt, t_final, stride=None):
    """Conservative method-of-lines RK4 for the barotropic pair (rho, v).

    rho_t = -(rho v)' keeps the discrete total mass exact; the velocity
    equation uses the same stencils as the curvature/torsion system, making
    the two solvers exactly conjugate under rho = kappa^2, v = 2 tau.
    Returns a stepping.Trajectory of stacked (rho, v) arrays.  The guard
    aborts on non-finite fields, and where rho touches RHO_MIN, the input
    included.
    """
    y0 = np.stack([np.asarray(rho, dtype=float), np.asarray(v, dtype=float)])
    level1, level2 = _padded_rows(y0.shape[1], length)

    def rhs(y):
        rho, v = y
        sq = np.sqrt(rho)
        (d_rhov, d_v), sqpp = level1(rho * v, v, sq)
        return np.array((-d_rhov, -v * d_v + level2(rho + 2.0 * sqpp / sq)))

    def guard(y, i):
        if not dg.all_finite(y):
            raise EvolutionAbort("fluid state became non-finite", i * dt)
        if y[0].min() <= RHO_MIN:
            raise VacuumAbort("density touched rho_min", i * dt)

    with np.errstate(all="ignore"):  # vacuum crossings are caught by the guard
        return integrate(lambda y, i: rk4_step(rhs, y, dt), y0, dt, t_final, stride, guard=guard)


# ---------------------------------------------------------------------------
# the four corners on one curve
# ---------------------------------------------------------------------------

SQUARE_CORNERS = ("filament", "darios", "nls", "fluid")


def square_profiles(start, filament, dt, t_final, holonomy_tol):
    """Final curvature profiles of the four corners of the square on one curve.

    `start` and `filament` are the first state and the state at t_final of
    one evolve_filament(raw, dt, ...) run: start is arclength_resample(raw),
    and the filament corner reads its profile from `filament`.  The other
    three corners run from the Frenet data of start, on its length: the
    curvature/torsion pair, hasimoto's psi and to_fluid's (rho, v), whose
    final arrays give the profiles kappa, |psi| and sqrt(rho).
    Returns (profiles, status): the final curvature of each corner that ran,
    and for every corner "ok", "singular (<abort>)" or, when the holonomy is
    more than holonomy_tol from a multiple of 2 pi, "skipped (holonomy
    obstruction)".
    """
    fr0 = frenet_data(start)
    profiles = {"filament": frenet_data(filament).kappa}
    status = {"filament": "ok"}
    try:
        profiles["darios"] = darios_evolve(fr0.kappa, fr0.tau, fr0.length, dt, t_final).final[0]
        status["darios"] = "ok"
    except EvolutionAbort as exc:
        status["darios"] = f"singular ({type(exc).__name__})"
    psi0, holonomy = hasimoto(fr0)
    if holonomy_defect(holonomy) > holonomy_tol:
        status["nls"] = "skipped (holonomy obstruction)"
    else:
        profiles["nls"] = np.abs(nls_evolve(psi0, fr0.length, dt, t_final).final)
        status["nls"] = "ok"
    try:
        profiles["fluid"] = np.sqrt(fluid_evolve(*to_fluid(fr0), fr0.length, dt, t_final).final[0])
        status["fluid"] = "ok"
    except (EvolutionAbort, ValueError) as exc:
        status["fluid"] = f"singular ({type(exc).__name__})"
    return profiles, status


def square_gaps(profiles):
    """L_inf gap of every pair of corners, in SQUARE_CORNERS order; None for a
    pair with a corner that did not run."""
    return {
        (u, v): float(np.max(np.abs(profiles[u] - profiles[v])))
        if u in profiles and v in profiles else None
        for i, u in enumerate(SQUARE_CORNERS) for v in SQUARE_CORNERS[i + 1:]
    }
