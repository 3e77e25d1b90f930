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
explicit 1x1/2x2 expressions (metric_planes).  The one normal projection,
project_planes, subtracts sum_i (sum_j g^ij (X, t_j)) t_i in place: shape_field
applies it to the X_ij, project_normal to a copy and normal_derivative to its
fresh difference; the stage skips it.  All of it is elementwise
arithmetic on (d, *s) component planes, with no per-point LAPACK call.  The
positions are held as padded planes: wrapped order/2 entries past both ends
of every grid axis, so the halo is the periodic wrap.  One helper, _halo,
pads every periodic stencil input this way, from slab views of the
interior, and every stencil reads its +-k neighbours as views of a padded
buffer (_neighbour_views), with no np.roll copy.  plane_derivatives takes
its differences as band planes: the interior rows, halo columns included,
one contiguous stretch of memory per component, so every stencil and
product is one pass over it.  The halo columns of a band plane hold no
geometry; every reduction (the det g floor, a finiteness check) reads the
interior alone.  The membrane RK4 state stays in this layout from stage to
stage (membrane.smc_rhs returns its velocity with the halo wrapped), and a
snapshot is the interior copied out.  The generalised cross product on the
same planes (generalised_cross) is the 3D cross product for curves and, for
membranes in R^4, the Hodge dual of the six Pluecker coordinates
t1_a t2_b - t1_b t2_a of the tangent plane paired with v.  apply_j uses it,
and so do the flow's stage kernel membrane.smc_rhs, which builds no
ShapeField, and the filament velocity filament.binormal_rhs.

The stage's plane kernels (plane_derivatives, metric_planes,
generalised_cross) fill their intermediate planes with out= ufuncs in a
workspace ws: a Workspace of named arrays, made once and reused, or by
default a fresh array per request.  evolve_membrane keeps one per run, for
its RK4 steps, stages and stability estimates (the stage's first half,
under the same names); its planes and the stage's velocity start on a
cache line (_aligned), and shape_field allocates fresh arrays.  The 1D
stages own plain arrays made once per run: the filament's padded points,
and the Da Rios and fluid fields as padded rows, each buffer's halo fill
and neighbour views made once.  Every stencil,
product and sum keeps the operation order of the plain expression, so the
results are bitwise those of allocating code.

A ShapeField holds its fields as read-only contiguous component planes,
index axes first: t (n, d, *s), g and g_inv (n, n, *s), A (n, n, d, *s) and
H (d, *s).  Component planes are the one layout of the operators on a field
and of the membrane residuals: they take and return vectors as (d, *s),
covectors as (n, *s) and 2-tensors as (n, n, *s) planes.  They sum over
planes with _dot, difference them along grid axis i + 1 and make no einsum
or gather: an index is contracted by a plane sum (inner_product, which is
_dot, raise_index, raise_indices for both indices of an n x n field,
second_form_pairing), the Willmore gradient and its Christoffel symbols
included.  Points (*s, d) appear only at the edge of the layer: a
GridImmersion's points, pad_planes/interior_points and snapshot I/O.  J H
(jh), the continuity source (source) and the torsion form (tau) are each
computed on first use and kept read-only, so a field computes each once
however many residuals read it.

J is the quarter-turn of the normal plane.  Its direction is fixed by the
sign convention det[t_1, ..., t_n, v, Jv] < 0 in ambient coordinates; this
is the convention under which a curve's binormal velocity is -J(kappa n) =
kappa b, and under which a product of circles S^1(a) x S^1(b) drifts with
radial rates (-1/b, +1/a).  Flip the convention and every flow runs
backwards in time, nothing else changes.

Integrals are plain Riemann sums over the parameter grid, which are
spectrally accurate for smooth periodic integrands.
"""

import contextlib
import functools
import math
import os
from dataclasses import dataclass

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
        if not all(math.isfinite(p) and p > 0 for p in self.param_periods):
            raise ValueError(f"param_periods must be finite and > 0, got {self.param_periods}")
        check_grid_sizes(pts.shape[:-1])
        if not all_finite(pts):
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
    """Geometry bundle of a GridImmersion, as read-only C-contiguous component
    planes, index axes first: t[i] is the tangent t_i as (d, *s) planes,
    g[i, j] the (*s,) plane of g_ij, A[i, j] is A_ij as (d, *s) planes.  The
    operators take and return fields in this layout."""

    immersion: GridImmersion
    order: int
    t: np.ndarray               # (n, d, *s)
    g: np.ndarray               # (n, n, *s)
    g_inv: np.ndarray           # (n, n, *s)
    sqrt_det_g: np.ndarray      # (*s,)
    A: np.ndarray               # (n, n, d, *s), normal-valued
    H: np.ndarray               # (d, *s)
    rho: np.ndarray             # (*s,), |H|^2
    tol_perp: np.ndarray        # (*s,)

    @functools.cached_property
    def jh(self):
        """J H, (d, *s): computed on first use and kept, read-only."""
        return _read_only(apply_j(self, self.H))

    @functools.cached_property
    def source(self):
        """source_term of this field, (*s,): computed on first use and kept,
        read-only."""
        return _read_only(source_term(self))

    @functools.cached_property
    def tau(self):
        """torsion_form of this field, (n, *s): computed on first use and
        kept, read-only."""
        return _read_only(torsion_form(self))


def all_finite(a):
    """np.isfinite(a).all(): one pass over a, a strided view too, with no copy
    and no BLAS call (whose threads can stall a loaded host)."""
    return bool(np.isfinite(a).all())


def _read_only(a):
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# immersion builders
# ---------------------------------------------------------------------------

def check_grid_sizes(shape):
    """ValueError, naming the sizes given, unless every grid size in shape is
    at least MIN_GRID.  The builders check the sizes they are asked for before
    they divide by them."""
    if any(N < MIN_GRID for N in shape):
        raise ValueError(f"grid sizes must be >= {MIN_GRID}, got {tuple(shape)}")


def _param_grid(shape):
    check_grid_sizes(shape)
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

_ALIGN = 64  # bytes: a cache line, and the width of an AVX-512 store


def _aligned(shape):
    """np.empty(shape) whose data starts on a _ALIGN-byte boundary.

    numpy's own arrays start 16-byte aligned, at any of the four offsets mod
    64; a ufunc writing to an output that starts off a cache line splits its
    stores and runs about 2x slower on L2-resident planes.  Misaligned
    inputs cost far less, so only the buffers the stage writes most are made
    here: Workspace planes and smc_rhs's velocity."""
    n = math.prod(shape)
    buf = np.empty(n + _ALIGN // 8 - 1)
    start = (-buf.ctypes.data % _ALIGN) // 8
    return buf[start:start + n].reshape(shape)


class Workspace:
    """Named float arrays, made on the first request for a name and handed
    out again on every later one: ws(name, shape).  Each is made by
    _aligned, so it starts on a 64-byte boundary.

    evolve_membrane keeps one per run for its RK4 steps (stepping.rk4_step's
    three planes), stages and stability estimates, so a step allocates only
    the four velocities smc_rhs returns.  An array a kernel returns from here
    holds its values until the next request under the same name; "tmp" and
    "scalar_tmp" are scratch that any kernel may overwrite.
    """

    def __init__(self):
        self._arrays = {}

    def __call__(self, name, shape):
        a = self._arrays.get(name)
        if a is None or a.shape != shape:
            a = self._arrays[name] = _aligned(shape)
        return a


def _fresh(name, shape):
    """Workspace stand-in that allocates a new array on every request."""
    return np.empty(shape)


def _check_order(order):
    if order not in (2, 4):
        raise ValueError(f"finite-difference order must be 2 or 4, got {order}")


@functools.lru_cache(maxsize=64)
def _halo_slabs(shape, axes, w):
    """The interior index of a buffer of this shape padded by w on each of
    axes, and the (halo, source) slab index pairs that wrap it: axis by axis,
    so the corners wrap too; one slab per side, or one per halo entry on an
    axis of n < w entries, which wraps more than once."""
    inner = tuple(slice(w, N - w) if a in axes else slice(None) for a, N in enumerate(shape))
    slabs = []
    for axis in axes:
        n, lead = shape[axis] - 2 * w, (slice(None),) * axis
        if n >= w:
            spans = ((0, n, w), (n + w, w, w))   # (halo start, source start, width)
        else:
            spans = tuple((j, w + (j - w) % n, 1) for j in (*range(w), *range(n + w, n + 2 * w)))
        slabs += [(lead + (slice(h, h + k),), lead + (slice(s, s + k),)) for h, s, k in spans]
    return inner, tuple(slabs)


def _halo(padded, axes, w):
    """fill(f=None) of a buffer padded by w on each of axes: copies f, if
    given, into the interior, then fills the halo with the periodic wrap of
    the interior, in place, and returns padded.  Its slab views are made
    here once, so a buffer that lives for a run keeps its fill."""
    inner, slabs = _halo_slabs(padded.shape, tuple(axes), w)
    interior_view = padded[inner]
    copies = [(padded[h], padded[s]) for h, s in slabs]

    def fill(f=None):
        if f is not None:
            interior_view[...] = f
        for halo, source in copies:
            halo[...] = source
        return padded

    return fill


def _neighbour_views(padded, axis, w):
    """at(k), |k| <= w: views, made once, of the entries k places along axis
    from the interior of a buffer padded by w there."""
    n = padded.shape[axis] - 2 * w
    lead = (slice(None),) * axis
    return {k: padded[lead + (slice(w + k, w + k + n),)] for k in range(-w, w + 1)}.__getitem__


def _neighbours(f, axis, order):
    """at(k) = f(i + k) along a periodic grid axis, for |k| <= order/2; see `diff`."""
    _check_order(order)
    w, shape = order // 2, list(f.shape)
    shape[axis] += order
    return _neighbour_views(_halo(np.empty(shape), (axis,), w)(f), axis, w)


def _first(at, h, order, out=None, tmp=None):
    """Centered first difference from the neighbours at(k), written into out
    if given (tmp: scratch of out's shape).  Terms are taken left to right as in
    -f(2) + 8 f(1) - 8 f(-1) + f(-2); b - a equals -a + b exactly, so the
    result is bitwise that of the plain expression."""
    if order == 2:
        out = np.subtract(at(1), at(-1), out=out)
        out /= 2.0 * h
        return out
    out = np.multiply(at(1), 8.0, out=out)
    out -= at(2)
    out -= np.multiply(at(-1), 8.0, out=tmp)
    out += at(-2)
    out /= 12.0 * h
    return out


def _second(at, h, order, out=None, tmp=None):
    """Centered second difference from the neighbours at(k), written into out;
    terms left to right as in -f(2) + 16 f(1) - 30 f(0) + 16 f(-1) - f(-2)."""
    if order == 2:
        out = np.subtract(at(1), np.multiply(at(0), 2.0, out=tmp), out=out)
        out += at(-1)
        out /= h * h
        return out
    out = np.multiply(at(1), 16.0, out=out)
    out -= at(2)
    out -= np.multiply(at(0), 30.0, out=tmp)
    out += np.multiply(at(-1), 16.0, out=tmp)
    out -= at(-2)
    out /= 12.0 * h * h
    return out


def diff(f, axis, h, order=2):
    """Centered first derivative along a periodic grid axis.

    The neighbours are views of one copy of f padded order/2 entries past
    both ends of the axis (_halo).  The membrane stage and shape_field
    difference the positions through plane_derivatives instead, which reads
    views of padded (d, *s) planes; both give results bitwise equal to the
    np.roll form of the same stencil.
    """
    return _first(_neighbours(f, axis, order), h, order)


def diff2(f, axis, h, order=2):
    """Centered second derivative along a periodic grid axis; neighbours as in
    `diff`."""
    return _second(_neighbours(f, axis, order), h, order)


def pad_planes(points, order):
    """The (d, *s) component planes of points (*s, d), padded: wrapped
    order/2 entries past both ends of every grid axis (_halo), as a new
    array.  This is the layout plane_derivatives and
    membrane.smc_rhs read; interior_points undoes it.  The order is checked
    here, before it sizes the halo, for every reader of the planes."""
    _check_order(order)
    padded = np.empty(points.shape[-1:] + tuple(N + order for N in points.shape[:-1]))
    return _halo(padded, range(1, padded.ndim), order // 2)(np.moveaxis(points, -1, 0))


def interior(padded, order):
    """The (d, *s) interior of planes padded by order/2, as a view."""
    return padded[_halo_slabs(padded.shape, tuple(range(1, padded.ndim)), order // 2)[0]]


def interior_points(padded, order):
    """The points (*s, d) whose padded planes these are, as a new C-ordered
    array."""
    return np.ascontiguousarray(np.moveaxis(interior(padded, order), 0, -1))


def plane_derivatives(padded, spacings, order, ws=_fresh, tangents_only=False):
    """Differences of the positions, from their padded planes (pad_planes).

    Returns (t, xx, mixed, inner): the tangents t_i = dF/dx_i, the second
    derivatives X_ii and, for n = 2, X_12 = d t_1/dx_2 (None for n = 1), as
    band planes held in ws, and the index of a band plane's interior.  The
    band is padded[:, w:-w] (w = order/2): the interior rows of the grid,
    halo columns included, one contiguous stretch of each flattened
    component plane.  Grid axis 1 reads its neighbours as _neighbour_views
    of the padded planes; axis 2 as those of the flattened band, w entries
    wider at each end, into flattened outputs, so each stencil pass runs over
    one contiguous run of memory per component.  t_1 is kept with w spare
    entries at both ends of its flat planes, so the mixed difference reads
    its neighbours the same way.

    A band plane's halo columns hold differences taken across the ends of
    rows: they are no geometry, may hold any value, and whatever reads the
    band reduces over band[inner] alone.  On the interior the results are
    bitwise diff/diff2 of the unpadded planes.  The order is the one the
    planes were padded with, which pad_planes has checked.  tangents_only
    takes t alone, for membrane.stability_limit; xx and mixed are then None.
    """
    w, d, n = order // 2, padded.shape[0], padded.ndim - 1
    band = (d, padded.shape[1] - 2 * w) + padded.shape[2:]
    size = math.prod(band[1:])
    tmp = ws("tmp", band)
    t1_flat = ws("t1", (d, size + 2 * w))
    t = [t1_flat[:, w:w + size].reshape(band)] + [ws(f"t{a}", band) for a in range(2, n + 1)]
    xx = None if tangents_only else [ws(f"xx{a}", band) for a in range(1, n + 1)]
    at = _neighbour_views(padded, 1, w)
    _first(at, spacings[0], order, t[0], tmp)
    if xx:
        _second(at, spacings[0], order, xx[0], tmp)
    if n == 1:
        return t, xx, None, (Ellipsis,)
    start = w * padded.shape[2]  # the band's first entry in a flattened plane
    at = _neighbour_views(padded.reshape(d, -1)[:, start - w:start + size + w], 1, w)
    flat_tmp, inner = tmp.reshape(d, size), (Ellipsis, slice(w, padded.shape[2] - w))
    _first(at, spacings[1], order, t[1].reshape(d, size), flat_tmp)
    if tangents_only:
        return t, None, None, inner
    mixed = ws("mixed", band)
    _second(at, spacings[1], order, xx[1].reshape(d, size), flat_tmp)
    # the spare entries feed only halo columns; keep them finite
    t1_flat[:, :w] = t1_flat[:, -w:] = 0.0
    _first(_neighbour_views(t1_flat, 1, w), spacings[1], order, mixed.reshape(d, size), flat_tmp)
    return t, xx, mixed, inner


# ---------------------------------------------------------------------------
# shape field
# ---------------------------------------------------------------------------

def project_normal(sf, X):
    """Normal-plane projection X - g^ij (t_j, X) t_i of an ambient vector field
    X (d, *s): project_planes on a copy of X.  Bitwise the projection
    shape_field applies to the X_ij.

    Projection is with respect to the discrete tangent span (contraction with
    the inverse metric), so it is defined wherever the metric is, including
    where |H| is small.
    """
    return project_planes(X.copy(), sf.t, sf.g_inv)


def tangential_defect(sf, X):
    """Pointwise norm (*s,) of the tangential component of X (d, *s), for
    normality checks."""
    return np.linalg.norm(X - project_normal(sf, X), axis=0)


def _require_normal(sf, X, what):
    defect = tangential_defect(sf, X)
    bad = defect > sf.tol_perp
    if bad.any():
        idx = np.unravel_index(np.argmax(defect - sf.tol_perp), defect.shape)
        raise ValueError(
            f"{what} is not normal to the immersion: tangential defect "
            f"{defect[idx]:.3e} > tol {sf.tol_perp[idx]:.3e} at grid index {idx}"
        )


def _dot(u, v, out=None, tmp=None):
    """sum_k u[k] v[k], terms in order of k, into out (tmp: scratch of out's
    shape, made if not given): for (d, *s) planes the pointwise inner product.
    u[k] and v[k] broadcast against each other."""
    acc = np.multiply(u[0], v[0], out=out)
    for k in range(1, len(u)):
        tmp = np.multiply(u[k], v[k], out=tmp)
        acc += tmp
    return acc


def _dot_rows(rows, v, k):
    """_dot(rows[idx], v) for every index idx of the k leading axes of rows,
    as one (*rows.shape[:k], *s) array of planes."""
    out = np.empty(rows.shape[:k] + v.shape[1:])
    tmp = np.empty(v.shape[1:])
    for idx in np.ndindex(rows.shape[:k]):
        _dot(rows[idx], v, out[idx], tmp)
    return out


inner_product = _dot   # the pointwise inner product (u, v) of two (d, *s) fields


def raise_index(sf, v):
    """g^ij v_j of a covector field v (n, *s), as (n, *s) planes."""
    return _dot_rows(sf.g_inv, v, 1)


def raise_indices(sf, m):
    """g^ik m_kl g^lj of an (n, n, *s) field m, as (n, n, *s) planes: g^-1
    against m's rows, then the result against g^-1."""
    return _dot_rows(_dot_rows(sf.g_inv, m, 1), sf.g_inv, 1)


def second_form_pairing(sf, v):
    """(A_ij, v) of a field v (d, *s), as (n, n, *s) planes."""
    return _dot_rows(sf.A, v, 2)


def metric_planes(t, ws=_fresh, inner=(Ellipsis,)):
    """Closed-form metric algebra of n <= 2 tangent planes t[i], each (d, *s).

    Returns (g, det_g, g_inv) with g and g_inv as nested n x n lists of
    (*s,) planes, all held in the workspace ws.  For the band planes of
    plane_derivatives, inner is the index it returns: the det g floor reads
    the interior alone, and the band's halo columns, which hold no geometry,
    raise no floating-point warning.  Raises DegenerateImmersionError when
    det(g) falls below G_MIN, naming the offending grid index of the interior.
    """
    n, s = len(t), t[0].shape[1:]
    tmp = ws("scalar_tmp", s)
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = _dot(t[i], t[j], ws(f"g_{i + 1}{j + 1}", s), tmp)
    if n == 1:
        det_g = g[0][0]
    else:
        det_g = np.multiply(g[0][0], g[1][1], out=ws("det_g", s))
        det_g -= np.multiply(g[0][1], g[0][1], out=tmp)
    det_inner = det_g[inner]
    if det_inner.min() <= G_MIN:
        idx = np.unravel_index(np.argmin(det_inner), det_inner.shape)
        raise DegenerateImmersionError(idx, det_inner[idx])
    with np.errstate(all="ignore"):
        if n == 1:
            return g, det_g, [[np.divide(1.0, det_g, out=ws("g^11", s))]]
        off = np.negative(g[0][1], out=ws("g^12", s))
        off /= det_g
        g_inv = [[np.divide(g[1][1], det_g, out=ws("g^11", s)), off],
                 [off, np.divide(g[0][0], det_g, out=ws("g^22", s))]]
    return g, det_g, g_inv


def project_planes(x, t, g_inv):
    """Normal projection x - sum_i (sum_j g^ij (x, t_j)) t_i of a (d, *s) field,
    in place: the one normal projection.  t holds the n tangent planes t_j,
    g_inv the n x n planes of g^-1 (nested lists or an array).  alpha t_i is
    subtracted a component at a time through one scalar plane, bitwise the
    whole-field product, so the projection allocates no (d, *s) temporary,
    which would set validate's peak memory (check 11's 384² fields)."""
    tmp = np.empty(x.shape[1:])
    b = [_dot(x, tj, tmp=tmp) for tj in t]
    for i, ti in enumerate(t):
        alpha = _dot(g_inv[i], b, tmp=tmp)
        for xc, tc in zip(x, ti):
            xc -= np.multiply(alpha, tc, out=tmp)
    return x


def shape_field(imm, order=2):
    """Compute the full geometry bundle of an immersion.

    The per-point algebra is elementwise arithmetic on component planes:
    the points are padded once (`pad_planes`) and differenced along the grid
    axes (`plane_derivatives`), det g and g^-1 are the closed-form 1x1/2x2
    expressions of `metric_planes`, and each second derivative X_ij is
    projected in place with that g^-1 as
    A_ij = X_ij - sum_k (sum_l g^kl (X_ij, t_l)) t_k (`project_planes`, the
    projection project_normal applies to a copy).  All of it runs
    on the band planes of plane_derivatives, each a fresh array; the
    returned ShapeField holds planes of its own, copied from the interior.

    Raises DegenerateImmersionError when det(g) falls below G_MIN, naming the
    offending grid index.
    """
    n, d, s, hs = imm.dim, imm.ambient_dim, imm.shape, imm.spacings
    t, xx, mixed, inner = plane_derivatives(pad_planes(imm.points, order), hs, order)
    g, det_g, g_inv = metric_planes(t, inner=inner)

    A = np.empty((n, n, d) + s)
    h = np.zeros(t[0].shape)
    norm_sq = None
    with np.errstate(all="ignore"):  # the band's halo columns hold no geometry
        for i in range(n):
            for j in range(i, n):
                x = xx[i] if i == j else mixed
                x_sq = _dot(x, x)
                norm_sq = x_sq if norm_sq is None else np.maximum(norm_sq, x_sq)
                project_planes(x, t, g_inv)
                A[i, j] = A[j, i] = x[inner]
                h += (g_inv[i][j] if i == j else 2.0 * g_inv[i][j]) * x
    h = h[inner]
    del xx, mixed, x  # copied out: their planes are freed here
    H = h.copy()

    return ShapeField(
        immersion=imm,
        order=order,
        t=_read_only(np.array([ti[inner] for ti in t])),
        g=_read_only(np.array([[gij[inner] for gij in row] for row in g])),
        g_inv=_read_only(np.array([[gij[inner] for gij in row] for row in g_inv])),
        sqrt_det_g=np.sqrt(det_g[inner]),
        A=_read_only(A),
        H=_read_only(H),
        rho=_dot(H, H),
        tol_perp=np.maximum(TOL_PERP_FACTOR * np.sqrt(norm_sq[inner]), TOL_PERP_FACTOR),
    )


# ---------------------------------------------------------------------------
# quarter turn J
# ---------------------------------------------------------------------------

def generalised_cross(t, v, out=None, ws=_fresh):
    """t_1 x ... x t_n x v for (d, *s) component planes, d = n + 2, into out.

    Component l is det[t_1, ..., t_n, v, e_l].  For n = 1 this is the cross
    product of R^3.  For n = 2 it pairs v with the Hodge dual of the six
    Pluecker coordinates p_ab = t1_a t2_b - t1_b t2_a of the tangent plane,
    which are held in the workspace ws.
    """
    out = np.empty_like(v) if out is None else out
    s = v.shape[1:]
    tmp = ws("scalar_tmp", s)

    def minor(x, y, z, u, into):
        """x y - z u into `into`."""
        np.multiply(x, y, out=into)
        into -= np.multiply(z, u, out=tmp)
        return into

    o = list(out)  # views of the component planes
    if len(t) == 1:
        (a,) = t
        minor(a[1], v[2], a[2], v[1], o[0])
        minor(a[2], v[0], a[0], v[2], o[1])
        minor(a[0], v[1], a[1], v[0], o[2])
        return out
    a, b = t
    p01, p02, p03 = (minor(a[0], b[k], a[k], b[0], ws(f"p0{k}", s)) for k in (1, 2, 3))
    p12, p13, p23 = (minor(a[i], b[j], a[j], b[i], ws(f"p{i}{j}", s))
                     for i, j in ((1, 2), (1, 3), (2, 3)))
    minor(p13, v[2], p23, v[1], o[0])
    o[0] -= np.multiply(p12, v[3], out=tmp)
    minor(p23, v[0], p03, v[2], o[1])
    o[1] += np.multiply(p02, v[3], out=tmp)
    minor(p03, v[1], p13, v[0], o[2])
    o[2] -= np.multiply(p01, v[3], out=tmp)
    minor(p12, v[0], p02, v[1], o[3])
    o[3] += np.multiply(p01, v[2], out=tmp)
    return out


def apply_j(sf, v):
    """Quarter-turn J of a normal vector field v (d, *s),
    Jv = -(t_1 x ... x t_n x v) / sqrt(det g), as (d, *s) planes."""
    jv = generalised_cross(sf.t, v)
    jv /= -sf.sqrt_det_g
    return jv


# ---------------------------------------------------------------------------
# derived operators
# ---------------------------------------------------------------------------

def normal_derivative(sf, X, axis):
    """Normal connection applied to a normal field X (d, *s): project(dX/dx_axis),
    the fresh difference along grid axis axis + 1 of the planes, projected in
    place (project_planes)."""
    h = sf.immersion.spacings[axis]
    return project_planes(diff(X, axis + 1, h, sf.order), sf.t, sf.g_inv)


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
    """Torsion 1-form tau of the normalized mean-curvature frame.

    tau_i measures the rotation rate of (h, Jh), h = H/|H|, along the i-th
    coordinate: tau_i = -(D_i h, J h), i.e. the pairing uses the transpose
    rotation -J.  This is the sign under which tau reduces to the classical
    torsion of a space curve (and the curvature-density transport below runs
    the right way); pairing with +J instead negates tau.

    Points with |H| < H_MIN are masked with NaN components; the frame
    rotation rate is undefined there.  J h is the field's kept J H over |H|
    (sf.jh), with the division by |H| taken after the pairing, so J h is
    never a field of its own.  Returns (n, *s) planes; sf.tau keeps them per
    shape field.
    """
    absH = np.sqrt(sf.rho)
    mask = absH < H_MIN
    safe = np.where(mask, 1.0, absH)
    h_sec = sf.H / safe
    tau = np.stack([-_dot(normal_derivative(sf, h_sec, i), sf.jh) / safe
                    for i in range(sf.immersion.dim)])
    tau[:, mask] = np.nan
    return tau


def normal_laplacian(sf, V):
    """Connection Laplacian in the normal bundle with the metric correction,
    of a normal field V (d, *s), as (d, *s) planes.

    Delta_perp V = sum_ij g^ij (D_i D_j V - Gamma^k_ij D_k V), where D is the
    normal-projected coordinate derivative.  Dropping the Christoffel term
    breaks the energy-gradient identity on non-flat parameter metrics.
    """
    _require_normal(sf, V, "normal_laplacian input")
    n = sf.immersion.dim
    first = [normal_derivative(sf, V, j) for j in range(n)]
    gamma = _christoffel(sf)
    lap = np.zeros(V.shape)
    for i in range(n):
        for j in range(n):
            d_ij = normal_derivative(sf, first[j], i)   # D_i D_j V
            lap += sf.g_inv[i, j] * (d_ij - _dot(gamma[:, i, j], first))
    return lap


def _christoffel(sf):
    """Gamma^k_ij = 0.5 g^kl (d_i g_lj + d_j g_li - d_l g_ij), as (k, i, j, *s)
    planes."""
    n, hs = sf.immersion.dim, sf.immersion.spacings
    dg = [diff(sf.g, l + 2, hs[l], sf.order) for l in range(n)]   # dg[l][i, j] = d_l g_ij
    lower = np.array([[[dg[i][l, j] + dg[j][l, i] - dg[l][i, j] for j in range(n)]
                       for i in range(n)] for l in range(n)])
    return 0.5 * _dot_rows(sf.g_inv, lower, 1)


def willmore_gradient(sf):
    """L2 gradient of the Willmore energy with respect to normal variations,
    as (d, *s) planes.

    Returns the full gradient; half of it is
        Delta_perp H + g^ik g^jl (A_ij, H) A_kl - 0.5 |H|^2 H.
    """
    n = sf.immersion.dim
    raised = raise_indices(sf, second_form_pairing(sf, sf.H))   # g^ik g^jl (A_ij, H)
    quad = sum(_dot(raised[k], sf.A[k]) for k in range(n))
    return 2.0 * (normal_laplacian(sf, sf.H) + quad - 0.5 * sf.rho * sf.H)


def source_term(sf):
    """Source of the curvature-density continuity equation at every grid point,
    -2 g^ik g^jl (A_ij, H)(A_kl, JH).  sf.source keeps it per shape field."""
    s = second_form_pairing(sf, sf.H)
    p = raise_indices(sf, second_form_pairing(sf, sf.jh))
    return -2.0 * sum(_dot(s[i], p[i]) for i in range(sf.immersion.dim))


def energy_derivative_integrand(sf):
    """Density whose integral is d/dt of the Willmore energy under the flow.

    Returns (source_term * sqrt(det g), integral): the integrand is the
    continuity source itself, so the two quadratures agree identically.
    """
    density = sf.source * sf.sqrt_det_g
    return density, grid_integral(sf.immersion, density)


# ---------------------------------------------------------------------------
# normal-bundle curvature vs the torsion form
# ---------------------------------------------------------------------------

def _edge_integrals(tau, spacings):
    """Trapezoid edge integrals of a point-sampled 1-form (2, *s) on the 2D
    grid."""
    h1, h2 = spacings
    e1 = 0.5 * h1 * (tau[0] + np.roll(tau[0], -1, axis=0))
    e2 = 0.5 * h2 * (tau[1] + np.roll(tau[1], -1, axis=1))
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
    fields cancel: returns (dtau, r_perp, max |dtau + r_perp|).  J h is the
    field's kept J H over |H| (sf.jh), divided after the pairing as in
    torsion_form.
    """
    imm = sf.immersion
    if imm.dim != 2:
        raise UnsupportedDimensionError("plaquette 2-forms need a 2D grid")
    if np.isnan(sf.tau).any():
        raise FrameDegeneracyError("torsion form is masked; curvature check unavailable")

    # the edge integrals are freed here, before the first derivatives are made
    dtau = _plaquette_curl(*_edge_integrals(sf.tau, imm.spacings), imm.spacings)

    h = sf.H / np.sqrt(sf.rho)
    first = [normal_derivative(sf, h, axis) for axis in (0, 1)]
    del h  # h and each first derivative are dropped once used: they set the peak memory
    commutator = normal_derivative(sf, first.pop(1), 0)    # D_0 D_1 h
    commutator -= normal_derivative(sf, first.pop(0), 1)   # - D_1 D_0 h
    r_perp_pts = _dot(commutator, sf.jh) / np.sqrt(sf.rho)
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
# scalar Laplace-Beltrami and metric divergence (used by the membrane module)
# ---------------------------------------------------------------------------

def metric_divergence(sf, vec):
    """(1/sqrt g) d_i (sqrt g X^i) for contravariant components vec (n, *s)."""
    n, hs = sf.immersion.dim, sf.immersion.spacings
    acc = np.zeros_like(sf.sqrt_det_g)
    for i in range(n):
        acc = acc + diff(sf.sqrt_det_g * vec[i], i, hs[i], sf.order)
    return acc / sf.sqrt_det_g


def laplace_beltrami(sf, scalar):
    """Scalar Laplacian (*s,) of the induced metric in divergence form."""
    n, hs = sf.immersion.dim, sf.immersion.spacings
    grad = np.stack([diff(scalar, i, hs[i], sf.order) for i in range(n)])
    return metric_divergence(sf, raise_index(sf, grad))


# ---------------------------------------------------------------------------
# snapshot I/O
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _atomic_file(path, mode):
    """The file `path.part`, open in mode and moved onto path when the block
    ends; if the block raises, the .part file is removed, so path never holds
    a partial file."""
    tmp = f"{path}.part"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def atomic_write(path, text):
    """Write text to a `.part` file and move it onto path, so path never
    holds a partial file."""
    with _atomic_file(path, "w") as fh:
        fh.write(text)


# _format_g17 writes a value of decimal exponent E in [_E_LO, 16] from its
# class E - _E_LO, which indexes every table below; log10 can place the
# smallest value it writes, 1e-30, one decade low.
_E_LO = -31
_N_CLASS = 16 - _E_LO + 1
_SPLIT = 134217729.0   # 2^27 + 1: Veltkamp's split of a double into two halves


@functools.cache
def _g17_tables():
    """The tables of _format_g17, made on its first call from Python numbers
    and bytes (numpy array arithmetic here would keep more of numpy's code
    resident than the tables take)."""
    exponents = range(_E_LO, 17)
    # 10^(16 - E) = hi + lo, hi split as hi_hi + hi_lo; lo is 0 while 10^(16 - E) is a double
    powers = [10 ** (16 - e) for e in exponents]
    hi = [float(p) for p in powers]
    hi_hi = [_SPLIT * h - (_SPLIT * h - h) for h in hi]
    scaling = np.array([hi, hi_hi, [h - g for h, g in zip(hi, hi_hi)],
                        [float(p - int(h)) for p, h in zip(powers, hi)]])
    # each 4-digit group as four (digit, '.') cells: pair a + pair b, for a
    # row of 100 groups sharing a as a + a.join(pairs)
    pairs = [b"%c.%c." % (48 + i // 10, 48 + i % 10) for i in range(100)]
    quad = b"".join(a + a.join(pairs) for a in pairs)
    # the significant digits of D if group j (after the leading digit) is its
    # last nonzero one, from 1 + the index of a group's last nonzero digit (0 if none)
    last2 = [0] + [1 if i % 10 == 0 else 2 for i in range(1, 100)]
    last4 = [b + 2 if b else a for a in last2 for b in last2]
    significant = bytes(n + 4 * j - 3 if n else 1 for j in range(1, 5) for n in last4)
    # per (digits kept, class): a mask keeping the significant digits (fixed
    # notation keeps its E + 1 integer digits) and the point after digit E
    # (digit 0 in exponential notation) when a digit follows it
    mask = []
    for digits in range(18):
        for e in exponents:
            kept = max(digits, e + 1)
            point = e if e >= 0 else 0 if e < -4 else 17
            mask += [(0xFF if j < kept else 0) | (0xFF00 if j == point < kept - 1 else 0)
                     for j in range(17)]
    # the sign, and "0." and zeros for -4 <= E < 0 (8 bytes); the exponent for E < -4
    prefix = b"".join((sign + (b"0." + b"0" * (-1 - e) if -4 <= e < 0 else b"")).ljust(8, b"\0")
                      for e in exponents for sign in (b"", b"-"))
    suffix = b"".join(b"e-%02d" % -e if e < -4 else b"\0" * 4 for e in exponents)
    return (*scaling, np.frombuffer(quad, np.uint64),
            np.frombuffer(significant, np.uint8).reshape(4, -1),
            np.array(mask, np.uint16).reshape(-1, 17),
            np.frombuffer(prefix, np.uint64), np.frombuffer(suffix, np.uint32))


def _scaled(ax, cls):
    """ax 10^(16 - E) as h + l: h = fl(ax hi) and its exact error (Dekker's
    TwoProduct over Veltkamp splits), plus ax lo rounded."""
    p_hi, p_hi_hi, p_hi_lo, p_lo = _g17_tables()[:4]
    h = ax * p_hi.take(cls)
    c = _SPLIT * ax
    a_hi = c - (c - ax)
    a_lo = ax - a_hi
    b_hi, b_lo = p_hi_hi.take(cls), p_hi_lo.take(cls)
    l = ((a_hi * b_hi - h) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    l += ax * p_lo.take(cls)
    return h, l


def _decimal17(x):
    """(D, cls, slow): |x| rounded half to even to 17 digits is D 10^(E - 16),
    D in [1e16, 1e17) (0 for a zero), E = cls + _E_LO; slow marks the values
    whose digits are left to Python.

    A value with 1e-30 <= |x| < 1e17 is scaled to v = |x| 10^(16 - E) = h + l,
    with E from log10 and corrected by one where h + l falls outside
    [1e16, 1e17).  While 10^(16 - E) is a double (E >= -6), h + l is v
    exactly, and so are that test and the rounding, ties included.  Below
    that, 10^(16 - E) is a double-double and l is within 1e-14 of the truth:
    a value that close to a bound of the range rounds to the same digits on
    either side of it, and a value whose fraction lies within 1e-9 of one
    half is slow.  D = 10^17 is a carry into E + 1.  Values out of that
    range, NaN and inf are slow."""
    ax = np.abs(x)
    fast = (ax >= 1e-30) & (ax < 1e17)
    zero = ax == 0
    ax = np.where(fast, ax, 1.0)
    cls = np.minimum(np.floor(np.log10(ax)), 16).astype(np.intp) - _E_LO
    h, l = _scaled(ax, cls)
    below = (h < 1e16) | ((h == 1e16) & (l < 0))
    above = (h > 1e17) | ((h == 1e17) & (l >= 0))
    off = np.flatnonzero(below | above)
    if off.size:
        cls[off] += above[off].astype(np.intp) - below[off]
        h[off], l[off] = _scaled(ax[off], cls[off])
    fl = np.floor(l)
    d = l - (fl + 0.5)
    D = h.astype(np.int64) + fl.astype(np.int64)
    D += (d > 0) | ((d == 0) & (D & 1).astype(bool))
    inexact = cls < -6 - _E_LO
    slow = ~(fast | zero) | (inexact & (np.abs(d) < 1e-9))
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    cls += carry
    D[zero] = 0
    return D, cls, slow


def _digit_groups(D):
    """The leading digit and the four 4-digit groups of each D, as (n, 5)."""
    groups = np.empty((D.size, 5), np.int64)
    groups[:, 0] = D // 10 ** 16
    rest = D - groups[:, 0] * 10 ** 16
    hi = rest // 10 ** 8
    lo = rest - hi * 10 ** 8
    groups[:, 1] = hi // 10 ** 4
    groups[:, 2] = hi - groups[:, 1] * 10 ** 4
    groups[:, 3] = lo // 10 ** 4
    groups[:, 4] = lo - groups[:, 3] * 10 ** 4
    return groups


def _format_g17(values, seps):
    """The bytes of "%.17g" % x followed by seps[j], for each x in column j of
    the 2D float array values, in row-major order.

    Each value gets a row of 48 byte cells, laid out from tables by its
    class and its count of significant digits (trailing zeros stripped after
    the point only): its sign and "0.000" prefix (bytes 0-5), 17 pairs
    (digit, point) (bytes 6-39), its exponent (40-43) and its separator (44).
    Unused cells hold NUL, and one translate deletes them.  The values
    _decimal17 marks slow are written by Python's "%.17g" into their rows."""
    quad, significant, mask, prefix, suffix = _g17_tables()[4:]
    x = np.asarray(values, dtype=float)
    m, ncol = x.shape
    x = x.ravel()
    D, cls, slow = _decimal17(x)
    groups = _digit_groups(D)
    kept = np.maximum(
        np.maximum(significant[0].take(groups[:, 1]), significant[1].take(groups[:, 2])),
        np.maximum(significant[2].take(groups[:, 3]), significant[3].take(groups[:, 4])),
    )
    cells = np.zeros((x.size, 48), np.uint8)
    cells.view(np.uint64)[:, 0] = prefix.take(cls * 2 + np.signbit(x))
    np.bitwise_and(quad.take(groups).view(np.uint16)[:, 3:],
                   mask.take(kept.astype(np.intp) * _N_CLASS + cls, axis=0),
                   out=cells.view(np.uint16)[:, 3:20])
    cells.view(np.uint32)[:, 10] = suffix.take(cls)
    cells.reshape(m, ncol, 48)[:, :, 44] = np.frombuffer(seps, np.uint8)
    if slow.any():
        i = np.flatnonzero(slow)
        text = b"".join((b"%.17g" % v).ljust(44, b"\0") for v in x[i].tolist())
        cells[i, :44] = np.frombuffer(text, np.uint8).reshape(-1, 44)
    return cells.tobytes().translate(None, b"\0")


SNAPSHOT_BLOCK = 4096   # values per _format_g17 call while a snapshot is written


def save_immersion(imm, path):
    """Write the text snapshot: header lines, then one row per grid point.

    Rows are in row-major multi-index order, columns are the ambient
    coordinates at 17 significant digits, each exactly Python's "%.17g".
    The rows go through _format_g17 in blocks of at most SNAPSHOT_BLOCK
    values into path's .part file, which is moved onto path once complete
    and removed if a block fails.
    """
    header = (
        f"dim {imm.dim}\n"
        f"shape {' '.join(str(N) for N in imm.shape)}\n"
        f"param_periods {' '.join(f'{p:.17g}' for p in imm.param_periods)}\n"
        f"ambient {imm.ambient_dim}\n"
    )
    flat = imm.points.reshape(-1, imm.ambient_dim)
    seps = b" " * (imm.ambient_dim - 1) + b"\n"
    rows = SNAPSHOT_BLOCK // imm.ambient_dim
    with _atomic_file(path, "wb") as fh:
        fh.write(header.encode())
        for i in range(0, len(flat), rows):
            fh.write(_format_g17(flat[i:i + rows], seps))


def load_immersion(path):
    """Read a snapshot written by save_immersion; ValueError names a missing
    header key, and is raised for a row count other than the shape's product
    or rows of unequal length.  np.loadtxt parses the rows in one call and
    gives the values of Python's float() bit for bit."""
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
    data = lines[data_start:]
    if len(data) != math.prod(shape) or not data:
        raise ValueError(f"snapshot {path}: {len(data)} data rows for shape {shape}")
    try:
        rows = np.loadtxt(data, dtype=float, comments=None, ndmin=2)
    except ValueError as exc:  # ragged rows or a token that is not a number
        raise ValueError(f"snapshot {path}: {exc}") from exc
    pts = rows.reshape(shape + (ambient,))
    return GridImmersion(pts, periods)
