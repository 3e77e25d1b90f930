"""Output checks made apart from the program.

Geometry here is spectral (numpy FFT on the periodic sample grid) and shares
no code with `skewflow.diffgeo`; the readers parse the CLI's CSV and snapshot
text formats directly.  Every check returns (passed, detail).
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def read_csv(path):
    """Numeric CSV with a header row -> {column: float array}."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def read_snapshot(path):
    """Snapshot text file -> (points of shape (*grid, ambient), parameter periods)."""
    header = {}
    with open(path) as fh:
        for _ in range(4):
            key, *rest = fh.readline().split()
            header[key] = rest
        rows = np.loadtxt(fh, ndmin=2)
    shape = tuple(int(x) for x in header["shape"])
    periods = tuple(float(x) for x in header["param_periods"])
    return rows.reshape(shape + (int(header["ambient"][0]),)), periods


def frames(table, column_names):
    """Split a long-format CSV (t, index, ...) into per-time arrays of the given columns."""
    t = table["t"]
    starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    ends = np.r_[starts[1:], t.size]
    return [
        (float(t[a]), np.stack([table[c][a:b] for c in column_names], axis=-1))
        for a, b in zip(starts, ends)
    ]


# ---------------------------------------------------------------------------
# spectral geometry
# ---------------------------------------------------------------------------

def spectral_derivative(f, axis, period, nu=1):
    """nu-th derivative of samples periodic along `axis` (odd orders drop Nyquist)."""
    n = f.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)
    mult = (1j * k) ** nu
    if nu % 2 == 1 and n % 2 == 0:
        mult[n // 2] = 0.0
    shape = [1] * f.ndim
    shape[axis] = n
    return np.real(np.fft.ifft(np.fft.fft(f, axis=axis) * mult.reshape(shape), axis=axis))


def surface_area_willmore(points, periods):
    """(area, integral of |H|^2 dA) of a periodic grid surface in R^4, H = g^ij A_ij."""
    du, dv = periods
    fu = spectral_derivative(points, 0, du)
    fv = spectral_derivative(points, 1, dv)
    tangents = np.stack([fu, fv], axis=-2)
    second = np.stack([
        np.stack([spectral_derivative(points, 0, du, 2), spectral_derivative(fu, 1, dv)], axis=-2),
        np.stack([spectral_derivative(fv, 0, du), spectral_derivative(points, 1, dv, 2)], axis=-2),
    ], axis=-3)
    g = np.einsum("...id,...jd->...ij", tangents, tangents)
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    ginv = np.stack([
        np.stack([g[..., 1, 1], -g[..., 0, 1]], axis=-1),
        np.stack([-g[..., 1, 0], g[..., 0, 0]], axis=-1),
    ], axis=-2) / det[..., None, None]
    # tangential part of each second derivative: t_k g^kl (F_ij, t_l)
    coeff = np.einsum("...kl,...ijd,...ld->...ijk", ginv, second, tangents)
    normal = second - np.einsum("...ijk,...kd->...ijd", coeff, tangents)
    h = np.einsum("...ij,...ijd->...d", ginv, normal)
    cell = du * dv / (points.shape[0] * points.shape[1])
    dA = np.sqrt(det) * cell
    return float(np.sum(dA)), float(np.sum(np.einsum("...d,...d->...", h, h) * dA))


def curve_geometry(points):
    """(length, curvature per sample, integral of kappa^2 ds) of a closed curve in R^3."""
    period = 2.0 * np.pi
    d1 = spectral_derivative(points, 0, period)
    d2 = spectral_derivative(points, 0, period, 2)
    speed = np.linalg.norm(d1, axis=-1)
    kappa = np.linalg.norm(np.cross(d1, d2), axis=-1) / speed ** 3
    du = period / points.shape[0]
    return float(np.sum(speed) * du), kappa, float(np.sum(kappa ** 2 * speed) * du)


def exact_torus_radii(a, b, t):
    """Radii of the product torus S^1(a) x S^1(b) under the flow: a e^(-t/ab), b e^(t/ab)."""
    rate = t / (a * b)
    return a * math.exp(-rate), b * math.exp(rate)


def exact_torus_willmore(a, b):
    return 4.0 * math.pi ** 2 * (b / a + a / b)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def relative_drift(values):
    values = np.asarray(values, dtype=float)
    return float(np.max(np.abs(values / values[0] - 1.0)))


def check_volume_drift(areas, tol=1e-5):
    drift = relative_drift(areas)
    return drift <= tol, f"spectral volume drift {drift:.2e} (tol {tol:.0e})"


def check_willmore_agreement(reported, spectral, tol=1e-4):
    gap = float(np.max(np.abs(np.asarray(reported) / np.asarray(spectral) - 1.0)))
    return gap <= tol, f"CSV willmore vs spectral relative gap {gap:.2e} (tol {tol:.0e})"


def check_willmore_change(spectral, minimum=0.05):
    change = abs(spectral[-1] / spectral[0] - 1.0)
    return change > minimum, f"Willmore change {change:.1%} (> {minimum:.0%} required)"


def check_identical(straight, restarted):
    same = straight == restarted
    return same, "restarted final snapshot " + ("byte-identical" if same else "differs")


def check_torus_radii(snapshots, a, b, tol=1e-6):
    """snapshots: [(t, points)]; every point's two circle radii against the exact ones."""
    worst = 0.0
    for t, pts in snapshots:
        ea, eb = exact_torus_radii(a, b, t)
        ra = np.hypot(pts[..., 0], pts[..., 1])
        rb = np.hypot(pts[..., 2], pts[..., 3])
        worst = max(worst, float(np.max(np.abs(ra / ea - 1.0))), float(np.max(np.abs(rb / eb - 1.0))))
    return worst <= tol, f"worst radius gap {worst:.2e} (tol {tol:.0e})"


def check_torus_willmore(times, reported, a, b, tol=1e-5):
    exact = [exact_torus_willmore(*exact_torus_radii(a, b, t)) for t in times]
    gap = float(np.max(np.abs(np.asarray(reported) / np.asarray(exact) - 1.0)))
    return gap <= tol, f"Willmore vs 4pi^2(b/a + a/b) relative gap {gap:.2e} (tol {tol:.0e})"


def check_profiles(profiles, tol=5e-3):
    names = list(profiles)
    worst, pair = 0.0, ""
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            gap = float(np.max(np.abs(profiles[u] - profiles[v])))
            if gap >= worst:
                worst, pair = gap, f"{u}/{v}"
    return worst <= tol, f"worst pairwise curvature gap {worst:.2e} ({pair}, tol {tol:.0e})"


def check_conserved(name, values, tol):
    drift = relative_drift(values)
    return drift <= tol, f"{name} drift {drift:.2e} (tol {tol:.0e})"
