"""Discrete extrinsic geometry of periodic grid immersions of codimension 2.

An immersion is a map F of an n-torus parameter domain (n = 1 or 2) into
R^(n+2), sampled on a uniform periodic grid.  All derivatives are centered
finite differences (order 2 by default, order 4 selectable); all index
arithmetic wraps.  From the sampled positions we build

    tangents        t_i = dF/dx_i
    metric          g_ij = (t_i, t_j)
    second form     A_ij = normal projection of d^2 F/dx_i dx_j
    mean curvature  H = g^ij A_ij
    quarter turn    J v = -(t_1 x ... x t_n x v) / sqrt(det g)

The metric algebra is closed-form for n <= 2: det g and g^-1 are the
explicit 1x1/2x2 expressions (metric_planes), and normal projection
subtracts (X, t_i) t^i with the dual tangents t^i = g^ij t_j
(project_planes).  shape_field evaluates all of it as elementwise
arithmetic on contiguous (d, *s) component planes, with no per-point LAPACK
call; each grid axis gives its first and second differences from one set
of neighbours (diff_pair).  The generalised cross product on the same
planes (generalised_cross) is the 3D cross product for curves and, for
membranes in R^4, the Hodge dual of the six Pluecker coordinates
t1_a t2_b - t1_b t2_a of the tangent plane paired with v.  apply_j uses it,
and so do the flow's stage kernel membrane.smc_rhs, which builds no
ShapeField, and the filament velocity filament.binormal_rhs.

J is the quarter-turn of the normal plane.  Its direction is fixed by the
sign convention det[t_1, ..., t_n, v, Jv] < 0 in ambient coordinates; this
is the convention under which a curve's binormal velocity is -J(kappa n) =
kappa b, and under which a product of circles S^1(a) x S^1(b) drifts with
radial rates (-1/b, +1/a).  Flip the convention and every flow runs
backwards in time, nothing else changes.

Integrals are plain Riemann sums over the parameter grid, which are
spectrally accurate for smooth periodic integrands.
"""

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateImmersionError,
    FrameDegeneracyError,
    UnsupportedDimensionError,
)

G_MIN = 1e-10          # det(g) floor below which the immersion is degenerate
H_MIN = 1e-8           # |H| floor below which the torsion form is masked
TOL_PERP_FACTOR = 1e-6  # normality tolerance, scaled by the local |d2F|
MIN_GRID = 8
SNAPSHOT_HEADER = ("dim", "shape", "param_periods", "ambient")


# ---------------------------------------------------------------------------
# grid containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridImmersion:
    """Uniformly sampled periodic immersion of an n-torus into R^(n+2).

    points has shape (*grid_shape, n+2); param_periods gives the parameter
    period of each grid axis (2*pi unless stated otherwise).
    """

    points: np.ndarray
    param_periods: tuple

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "param_periods", tuple(float(p) for p in self.param_periods))
        n = pts.ndim - 1
        if n not in (1, 2):
            raise UnsupportedDimensionError(f"intrinsic dimension must be 1 or 2, got {n}")
        if pts.shape[-1] != n + 2:
            raise ValueError(
                f"codimension must be 2: ambient dim {pts.shape[-1]} != {n} + 2"
            )
        if len(self.param_periods) != n:
            raise ValueError("need one parameter period per grid axis")
        if not all(np.isfinite(p) and p > 0 for p in self.param_periods):
            raise ValueError(f"param_periods must be finite and > 0, got {self.param_periods}")
        if any(N < MIN_GRID for N in pts.shape[:-1]):
            raise ValueError(f"grid sizes must be >= {MIN_GRID}, got {pts.shape[:-1]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("immersion contains non-finite points")

    @property
    def dim(self):
        return self.points.ndim - 1

    @property
    def shape(self):
        return self.points.shape[:-1]

    @property
    def ambient_dim(self):
        return self.points.shape[-1]

    @property
    def spacings(self):
        return tuple(p / N for p, N in zip(self.param_periods, self.shape))


@dataclass
class ShapeField:
    """Per-grid-point geometry bundle derived from a GridImmersion."""

    immersion: GridImmersion
    order: int
    tangents: np.ndarray        # (*s, n, d)
    metric: np.ndarray          # (*s, n, n)
    metric_inv: np.ndarray      # (*s, n, n)
    det_g: np.ndarray           # (*s,)
    sqrt_det_g: np.ndarray      # (*s,)
    second_form: np.ndarray     # (*s, n, n, d), normal-valued
    mean_curvature: np.ndarray  # (*s, d)
    rho: np.ndarray             # (*s,), |H|^2
    tol_perp: np.ndarray        # (*s,)
    tau: np.ndarray | None = field(default=None)      # (*s, n), set by torsion_form
    tau_mask: np.ndarray | None = field(default=None)  # True where |H| < H_MIN


# ---------------------------------------------------------------------------
# immersion builders
# ---------------------------------------------------------------------------

def _param_grid(shape):
    axes = [np.arange(N) * (2.0 * np.pi / N) for N in shape]
    return np.meshgrid(*axes, indexing="ij")


def torus_immersion(a, b, shape):
    """Product of circles S^1(a) x S^1(b) in R^4: (a cos, a sin, b cos, b sin)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"torus radii must be positive, got a={a}, b={b}")
    theta, phi = _param_grid(shape)
    pts = np.stack(
        [a * np.cos(theta), a * np.sin(theta), b * np.cos(phi), b * np.sin(phi)],
        axis=-1,
    )
    return GridImmersion(pts, (2.0 * np.pi, 2.0 * np.pi))


def perturbed_torus_immersion(a, b, eps, k1, k2, shape):
    """Product torus displaced by eps*cos(k1 t + k2 p) n1 + eps*sin(k1 t - k2 p) n2.

    The displacement breaks both circle symmetries while staying within a
    sqrt(2)*eps tube of the torus; eps must stay below min(a, b)/2.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"torus radii must be positive, got a={a}, b={b}")
    if eps >= min(a, b) / 2:
        raise ValueError(f"perturbation eps={eps} too large for radii ({a}, {b})")
    theta, phi = _param_grid(shape)
    n1 = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta), np.zeros_like(theta)], axis=-1)
    n2 = np.stack([np.zeros_like(phi), np.zeros_like(phi), np.cos(phi), np.sin(phi)], axis=-1)
    base = torus_immersion(a, b, shape).points
    c = eps * np.cos(k1 * theta + k2 * phi)
    s = eps * np.sin(k1 * theta - k2 * phi)
    return GridImmersion(base + c[..., None] * n1 + s[..., None] * n2, (2.0 * np.pi, 2.0 * np.pi))


def build_immersion(kind, shape, **params):
    """Dispatch on a surface kind name; see the individual builders.  Curves
    are built by filament.build_curve."""
    if kind == "torus_product":
        return torus_immersion(params.pop("a"), params.pop("b"), shape)
    if kind == "perturbed_torus":
        return perturbed_torus_immersion(
            params.pop("a"), params.pop("b"), params.pop("eps"),
            params.pop("k1"), params.pop("k2"), shape,
        )
    raise ValueError(f"unknown surface kind {kind!r}")


# ---------------------------------------------------------------------------
# periodic finite differences
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _pad_index(n, w):
    """Read-only indices i mod n for i = -w .. n + w - 1."""
    idx = np.arange(-w, n + w) % n
    idx.flags.writeable = False
    return idx


def _neighbours(f, axis, order):
    """at(k) = f(i + k) along a periodic grid axis, for |k| <= order/2; see `diff`."""
    if order not in (2, 4):
        raise ValueError(f"finite-difference order must be 2 or 4, got {order}")
    w = order // 2
    if f.ndim <= 2 and axis == 0:
        n = f.shape[0]
        padded = f.take(_pad_index(n, w), axis=0)
        return lambda k: padded[w + k:w + k + n]
    return lambda k: f if k == 0 else np.roll(f, -k, axis)


def _first(at, h, order):
    if order == 2:
        return (at(1) - at(-1)) / (2.0 * h)
    return (-at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2)) / (12.0 * h)


def _second(at, h, order):
    if order == 2:
        return (at(1) - 2.0 * at(0) + at(-1)) / (h * h)
    return (-at(2) + 16.0 * at(1) - 30.0 * at(0) + 16.0 * at(-1) - at(-2)) / (12.0 * h * h)


def diff(f, axis, h, order=2):
    """Centered first derivative along a periodic grid axis.

    A 1D-grid field, f.ndim <= 2 along axis 0 ((N,), (N, 3), or an (n1, n2)
    scalar), takes its neighbours as slices of one wrapped, padded copy.
    Every other axis keeps np.roll, which measured about twice as fast there
    at (4, 64, 64).  The two give bitwise identical results.
    """
    return _first(_neighbours(f, axis, order), h, order)


def diff2(f, axis, h, order=2):
    """Centered second derivative along a periodic grid axis; neighbours as in
    `diff`."""
    return _second(_neighbours(f, axis, order), h, order)


def diff_pair(f, axis, h, order=2):
    """(diff, diff2) of f along one axis, both from one set of neighbours;
    bitwise equal to the two separate calls."""
    at = _neighbours(f, axis, order)
    shifted = {k: at(k) for k in range(-(order // 2), order // 2 + 1)}
    return _first(shifted.get, h, order), _second(shifted.get, h, order)


# ---------------------------------------------------------------------------
# shape field
# ---------------------------------------------------------------------------

def project_normal(sf, X):
    """Normal-plane projection of an ambient vector field X, one vector per point.

    Projection is with respect to the discrete tangent span (contraction with
    the inverse metric), so it is defined wherever the metric is, including
    where |H| is small.
    """
    b = np.einsum("...id,...d->...i", sf.tangents, X)
    alpha = np.einsum("...ij,...j->...i", sf.metric_inv, b)
    return X - np.einsum("...i,...id->...d", alpha, sf.tangents)


def tangential_defect(sf, X):
    """Max-norm of the tangential component of X, for normality checks."""
    return np.linalg.norm(X - project_normal(sf, X), axis=-1)


def _require_normal(sf, X, what):
    defect = tangential_defect(sf, X)
    bad = defect > sf.tol_perp
    if bad.any():
        idx = np.unravel_index(np.argmax(defect - sf.tol_perp), defect.shape)
        raise ValueError(
            f"{what} is not normal to the immersion: tangential defect "
            f"{defect[idx]:.3e} > tol {sf.tol_perp[idx]:.3e} at grid index {idx}"
        )


def _dot(u, v):
    """Pointwise inner product of two (d, *s) stacks of component planes."""
    acc = u[0] * v[0]
    for k in range(1, len(u)):
        acc += u[k] * v[k]
    return acc


def _planes(a, k):
    """View of a per-point array (*s, *tail) with k tail axes as (*tail, *s)."""
    return np.moveaxis(a, tuple(range(-k, 0)), tuple(range(k)))


def metric_planes(t):
    """Closed-form metric algebra of n <= 2 tangent planes t[i], each (d, *s).

    Returns (g, det_g, g_inv, dual) with g and g_inv as nested n x n lists of
    (*s,) planes and the dual tangents t^i = g^ij t_j.  Raises
    DegenerateImmersionError when det(g) falls below G_MIN, naming the
    offending grid index.
    """
    n = len(t)
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = _dot(t[i], t[j])
    if n == 1:
        det_g = g[0][0]
    else:
        det_g = g[0][0] * g[1][1] - g[0][1] * g[0][1]
    if det_g.min() <= G_MIN:
        idx = np.unravel_index(np.argmin(det_g), det_g.shape)
        raise DegenerateImmersionError(idx, det_g[idx])
    if n == 1:
        g_inv = [[1.0 / det_g]]
        dual = [g_inv[0][0] * t[0]]
    else:
        off = -g[0][1] / det_g
        g_inv = [[g[1][1] / det_g, off], [off, g[0][0] / det_g]]
        dual = [g_inv[i][0] * t[0] + g_inv[i][1] * t[1] for i in range(2)]
    return g, det_g, g_inv, dual


def project_planes(x, t, dual):
    """Normal projection x - sum_k (x, t_k) t^k of a (d, *s) field, in place."""
    coeffs = [_dot(x, tk) for tk in t]
    for c, dk in zip(coeffs, dual):
        x -= c * dk
    return x


def shape_field(imm, order=2):
    """Compute the full geometry bundle of an immersion.

    The per-point algebra is elementwise arithmetic on contiguous component
    planes: one (d, *s) copy of the points is differenced along the grid
    axes (first and second differences from one set of neighbours per
    axis), det g and g^-1 are the closed-form 1x1/2x2 expressions of
    `metric_planes`, and each second derivative X_ij is projected with the
    dual tangents t^k = g^kl t_l as A_ij = X_ij - sum_k (X_ij, t_k) t^k.
    Results are written straight into the per-point arrays of the returned
    ShapeField.

    Raises DegenerateImmersionError when det(g) falls below G_MIN, naming the
    offending grid index.
    """
    n, d, s, hs = imm.dim, imm.ambient_dim, imm.shape, imm.spacings
    pts = np.ascontiguousarray(_planes(imm.points, 1))

    t, xx = zip(*(diff_pair(pts, i + 1, hs[i], order) for i in range(n)))
    g, det_g, g_inv, dual = metric_planes(t)

    tangents = np.empty(s + (n, d))
    metric = np.empty(s + (n, n))
    metric_inv = np.empty(s + (n, n))
    for i in range(n):
        _planes(tangents, 2)[i] = t[i]
        for j in range(n):
            _planes(metric, 2)[i, j] = g[i][j]
            _planes(metric_inv, 2)[i, j] = g_inv[i][j]

    second_form = np.empty(s + (n, n, d))
    h = np.zeros((d,) + s)
    norm_sq = None
    for i in range(n):
        for j in range(i, n):
            x = xx[i] if i == j else diff(t[i], j + 1, hs[j], order)
            x_sq = _dot(x, x)
            norm_sq = x_sq if norm_sq is None else np.maximum(norm_sq, x_sq)
            project_planes(x, t, dual)
            _planes(second_form, 3)[i, j] = x
            _planes(second_form, 3)[j, i] = x
            h += (g_inv[i][j] if i == j else 2.0 * g_inv[i][j]) * x
    H = np.empty(s + (d,))
    _planes(H, 1)[...] = h

    tol_perp = np.maximum(TOL_PERP_FACTOR * np.sqrt(norm_sq), TOL_PERP_FACTOR)

    return ShapeField(
        immersion=imm,
        order=order,
        tangents=tangents,
        metric=metric,
        metric_inv=metric_inv,
        det_g=det_g,
        sqrt_det_g=np.sqrt(det_g),
        second_form=second_form,
        mean_curvature=H,
        rho=_dot(h, h),
        tol_perp=tol_perp,
    )


# ---------------------------------------------------------------------------
# quarter turn J
# ---------------------------------------------------------------------------

def generalised_cross(t, v):
    """t_1 x ... x t_n x v for (d, *s) component planes, d = n + 2.

    Component l is det[t_1, ..., t_n, v, e_l].  For n = 1 this is the cross
    product of R^3.  For n = 2 it pairs v with the Hodge dual of the six
    Pluecker coordinates p_ab = t1_a t2_b - t1_b t2_a of the tangent plane.
    """
    out = np.empty_like(v)
    if len(t) == 1:
        (a,) = t
        out[0] = a[1] * v[2] - a[2] * v[1]
        out[1] = a[2] * v[0] - a[0] * v[2]
        out[2] = a[0] * v[1] - a[1] * v[0]
        return out
    a, b = t
    p01, p02, p03 = (a[0] * b[k] - a[k] * b[0] for k in (1, 2, 3))
    p12, p13, p23 = (a[i] * b[j] - a[j] * b[i] for i, j in ((1, 2), (1, 3), (2, 3)))
    out[0] = p13 * v[2] - p23 * v[1] - p12 * v[3]
    out[1] = p23 * v[0] - p03 * v[2] + p02 * v[3]
    out[2] = p03 * v[1] - p13 * v[0] - p01 * v[3]
    out[3] = p12 * v[0] - p02 * v[1] + p01 * v[2]
    return out


def apply_j(sf, v):
    """Quarter-turn J of a normal vector field, Jv = -(t_1 x ... x t_n x v) / sqrt(det g)."""
    t = [_planes(sf.tangents, 2)[i] for i in range(sf.immersion.dim)]
    jv = generalised_cross(t, _planes(v, 1))
    jv /= -sf.sqrt_det_g
    return np.moveaxis(jv, 0, -1)


# ---------------------------------------------------------------------------
# derived operators
# ---------------------------------------------------------------------------

def normal_derivative(sf, X, axis):
    """Normal connection applied to a normal field: project(dX/dx_axis)."""
    h = sf.immersion.spacings[axis]
    return project_normal(sf, diff(X, axis, h, sf.order))


def grid_integral(imm, values):
    """Riemann sum of a per-point scalar over the parameter grid."""
    cell = float(np.prod(imm.spacings))
    return float(np.sum(values) * cell)


def integrate_density(sf, values):
    """Integral of a scalar against the Riemannian volume, sum(v sqrt(g)) h^n."""
    return grid_integral(sf.immersion, values * sf.sqrt_det_g)


def willmore_energy(sf):
    """Total squared mean curvature, integral of |H|^2 dvol."""
    return integrate_density(sf, sf.rho)


def torsion_form(sf):
    """Torsion 1-form of the normalized mean-curvature frame, chi = 2 tau^sharp.

    tau_i measures the rotation rate of (h, Jh), h = H/|H|, along the i-th
    coordinate: tau_i = -(D_i h, J h), i.e. the pairing uses the transpose
    rotation -J.  This is the sign under which tau reduces to the classical
    torsion of a space curve (and the curvature-density transport below runs
    the right way); pairing with +J instead negates tau and chi.

    Points with |H| < H_MIN are masked (NaN components, mask returned on the
    shape field as tau_mask); the frame rotation rate is undefined there.
    """
    absH = np.sqrt(sf.rho)
    mask = absH < H_MIN
    safe = np.where(mask, 1.0, absH)
    h_sec = sf.mean_curvature / safe[..., None]
    jh = apply_j(sf, h_sec)
    n = sf.immersion.dim
    tau = np.stack(
        [-np.einsum("...d,...d->...", normal_derivative(sf, h_sec, i), jh) for i in range(n)],
        axis=-1,
    )
    if mask.any():
        tau[mask] = np.nan
    chi = 2.0 * np.einsum("...ij,...j->...i", sf.metric_inv, tau)
    sf.tau = tau
    sf.tau_mask = mask
    return tau, chi


def normal_laplacian(sf, V):
    """Connection Laplacian in the normal bundle with the metric correction.

    Delta_perp V = g^ij (D_i D_j V - Gamma^k_ij D_k V), where D is the
    normal-projected coordinate derivative.  Dropping the Christoffel term
    breaks the energy-gradient identity on non-flat parameter metrics.
    """
    _require_normal(sf, V, "normal_laplacian input")
    n = sf.immersion.dim
    first = [normal_derivative(sf, V, j) for j in range(n)]
    second = np.empty(sf.metric.shape + V.shape[-1:])
    for i in range(n):
        for j in range(n):
            second[..., i, j, :] = normal_derivative(sf, first[j], i)
    gamma = _christoffel(sf)
    corr = np.einsum("...kij,...kd->...ijd", gamma, np.stack(first, axis=-2))
    return np.einsum("...ij,...ijd->...d", sf.metric_inv, second - corr)


def _christoffel(sf):
    """Gamma^k_ij = 0.5 g^kl (d_i g_lj + d_j g_li - d_l g_ij), (*s, k, i, j)."""
    n, hs = sf.immersion.dim, sf.immersion.spacings
    dg = np.stack([diff(sf.metric, l, hs[l], sf.order) for l in range(n)], axis=-3)
    # dg[..., l, i, j] = d_l g_ij
    t1 = np.einsum("...ilj->...lij", dg)   # d_i g_lj
    t2 = np.einsum("...jli->...lij", dg)   # d_j g_li
    t3 = dg                                 # d_l g_ij
    return 0.5 * np.einsum("...kl,...lij->...kij", sf.metric_inv, t1 + t2 - t3)


def willmore_gradient(sf):
    """L2 gradient of the Willmore energy with respect to normal variations.

    Returns the full gradient; half of it is
        Delta_perp H + g^ik g^jl (A_ij, H) A_kl - 0.5 |H|^2 H.
    """
    lap = normal_laplacian(sf, sf.mean_curvature)
    s = np.einsum("...ijd,...d->...ij", sf.second_form, sf.mean_curvature)
    quad = np.einsum("...ik,...jl,...ij,...kld->...d", sf.metric_inv, sf.metric_inv,
                     s, sf.second_form)
    half = lap + quad - 0.5 * sf.rho[..., None] * sf.mean_curvature
    return 2.0 * half


def source_term(sf):
    """Source of the curvature-density continuity equation at every grid point,
    -2 g^ik g^jl (A_ij, H)(A_kl, JH)."""
    jh = apply_j(sf, sf.mean_curvature)
    s = np.einsum("...ijd,...d->...ij", sf.second_form, sf.mean_curvature)
    p = np.einsum("...ijd,...d->...ij", sf.second_form, jh)
    return -2.0 * np.einsum("...ik,...jl,...ij,...kl->...", sf.metric_inv, sf.metric_inv, s, p)


def energy_derivative_integrand(sf):
    """Density whose integral is d/dt of the Willmore energy under the flow.

    Returns (source_term * sqrt(det g), integral): the integrand is the
    continuity source itself, so the two quadratures agree identically.
    """
    density = source_term(sf) * sf.sqrt_det_g
    return density, grid_integral(sf.immersion, density)


# ---------------------------------------------------------------------------
# normal-bundle curvature vs the torsion form
# ---------------------------------------------------------------------------

def _edge_integrals(tau, spacings):
    """Trapezoid edge integrals of a point-sampled 1-form on the 2D grid."""
    h1, h2 = spacings
    e1 = 0.5 * h1 * (tau[..., 0] + np.roll(tau[..., 0], -1, axis=0))
    e2 = 0.5 * h2 * (tau[..., 1] + np.roll(tau[..., 1], -1, axis=1))
    return e1, e2


def _plaquette_curl(e1, e2, spacings):
    """Discrete exterior derivative on plaquettes from edge integrals.

    Exactly annihilates edge-level differences phi[i+1]-phi[i], i.e. d(d phi)
    = 0 holds to machine precision at this level.
    """
    h1, h2 = spacings
    circ = (
        e1 + np.roll(e2, -1, axis=0) - np.roll(e1, -1, axis=1) - e2
    )
    return circ / (h1 * h2)


def normal_curvature_check(sf):
    """Compare d(tau) with the normal-bundle curvature on grid plaquettes.

    The curvature side is read off from the commutator of normal-projected
    derivatives applied to h = H/|H|, against Jh, with the sign for which the two
    fields cancel: returns (dtau, r_perp, max |dtau + r_perp|).
    """
    imm = sf.immersion
    if imm.dim != 2:
        raise UnsupportedDimensionError("plaquette 2-forms need a 2D grid")
    if sf.tau is None:
        torsion_form(sf)
    if sf.tau_mask is not None and sf.tau_mask.any():
        raise FrameDegeneracyError("torsion form is masked; curvature check unavailable")

    e1, e2 = _edge_integrals(sf.tau, imm.spacings)
    dtau = _plaquette_curl(e1, e2, imm.spacings)

    h = sf.mean_curvature / np.sqrt(sf.rho)[..., None]
    d0d1 = normal_derivative(sf, normal_derivative(sf, h, 1), 0)
    d1d0 = normal_derivative(sf, normal_derivative(sf, h, 0), 1)
    r_perp_pts = np.einsum("...d,...d->...", d0d1 - d1d0, apply_j(sf, h))
    # interpolate the point values to plaquette centers
    r_perp = 0.25 * (
        r_perp_pts
        + np.roll(r_perp_pts, -1, axis=0)
        + np.roll(r_perp_pts, -1, axis=1)
        + np.roll(np.roll(r_perp_pts, -1, axis=0), -1, axis=1)
    )
    resid = float(np.max(np.abs(dtau + r_perp)))
    return dtau, r_perp, resid


# ---------------------------------------------------------------------------
# Marsden-Weinstein pairing
# ---------------------------------------------------------------------------

def mw_pairing(sf, u, v):
    """Pairing of two ambient vector fields: integral of det[u, v, t_1..t_n] dx."""
    cols = np.concatenate(
        [u[..., None], v[..., None], np.moveaxis(sf.tangents, -2, -1)], axis=-1
    )
    return grid_integral(sf.immersion, np.linalg.det(cols))


# ---------------------------------------------------------------------------
# scalar Laplace-Beltrami and metric divergence (used by the membrane module)
# ---------------------------------------------------------------------------

def metric_divergence(sf, vec):
    """(1/sqrt g) d_i (sqrt g X^i) for contravariant components vec (*s, n)."""
    n, hs = sf.immersion.dim, sf.immersion.spacings
    acc = np.zeros_like(sf.sqrt_det_g)
    for i in range(n):
        acc = acc + diff(sf.sqrt_det_g * vec[..., i], i, hs[i], sf.order)
    return acc / sf.sqrt_det_g


def laplace_beltrami(sf, scalar):
    """Scalar Laplacian of the induced metric in divergence form."""
    n, hs = sf.immersion.dim, sf.immersion.spacings
    grad = np.stack([diff(scalar, i, hs[i], sf.order) for i in range(n)], axis=-1)
    flux = np.einsum("...ij,...j->...i", sf.metric_inv, grad)
    return metric_divergence(sf, flux)


# ---------------------------------------------------------------------------
# snapshot I/O
# ---------------------------------------------------------------------------

def atomic_write(path, text):
    """Write text to a `.part` file and move it onto path, so path never
    holds a partial file."""
    tmp = f"{path}.part"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_immersion(imm, path):
    """Write the text snapshot: header lines, then one row per grid point.

    Rows are in row-major multi-index order, columns are the ambient
    coordinates at 17 significant digits.
    """
    lines = [
        f"dim {imm.dim}",
        "shape " + " ".join(str(N) for N in imm.shape),
        "param_periods " + " ".join(f"{p:.17g}" for p in imm.param_periods),
        f"ambient {imm.ambient_dim}",
    ]
    flat = imm.points.reshape(-1, imm.ambient_dim)
    row = " ".join(["%.17g"] * imm.ambient_dim)
    lines.append("\n".join([row] * len(flat)) % tuple(flat.ravel().tolist()))
    atomic_write(path, "\n".join(lines) + "\n")


def load_immersion(path):
    """Read a snapshot written by save_immersion; ValueError names a missing header key."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header, data_start = {}, 0
    for k, line in enumerate(lines):
        words = line.split()
        if not words or words[0] not in SNAPSHOT_HEADER:
            break
        header[words[0]] = words[1:]
        data_start = k + 1
    for key in SNAPSHOT_HEADER:
        if not header.get(key):
            raise ValueError(f"snapshot {path}: header line {key!r} missing or empty")
    dim = int(header["dim"][0])
    shape = tuple(int(x) for x in header["shape"])
    periods = tuple(float(x) for x in header["param_periods"])
    ambient = int(header["ambient"][0])
    if len(shape) != dim or ambient != dim + 2:
        raise ValueError(f"inconsistent snapshot header: {header}")
    rows = np.array([[float(x) for x in line.split()] for line in lines[data_start:]])
    pts = rows.reshape(shape + (ambient,))
    return GridImmersion(pts, periods)
