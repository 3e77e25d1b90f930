"""Grid evolution of 2D membranes in R^4 under the skew-mean-curvature flow.

Markers move with velocity -J H (purely normal), so marker labels double as
surface coordinates for the whole run: marker-time derivatives of geometric
fields ARE normal-time derivatives up to truncation, and no tangential
correction is applied.  There is no remeshing; the solver is only warranted
for the short horizons where analytic oracles exist.

Besides the flow itself, this module assembles the diagnostic residuals of
the membrane analogues of the 1D curvature/torsion system:

    continuity   d/dt rho + div(rho chi) = -2 g^ik g^jl (A_ij, H)(A_kl, JH)
    contracted   d/dt_perp H + 2 g^ij tau_i D_j H + (div tau^sharp) H
                     = -g^ik g^jl (A_kl, JH) A_ij
    momentum     d/dt tau_i + grad_i |tau|^2 - grad_i(Lap|H| / |H|)
                     = +grad_i( g^mk g^jl (A_mj,JH)(A_kl,JH) / |H|^2 )
                       + g^kl/|H|^2 [ (A_ik,H)(D_l JH, JH) - (A_il,JH)(D_k JH, H) ]
    energy rate  d/dt W = -2 int g^ik g^jl (A_ij,H)(A_kl,JH) dvol

Time derivatives in the residuals are centered 3-point differences across
consecutive snapshots, matching the O(dt^2) budget of the RK4 snapshots.
"""

from dataclasses import dataclass, field

import numpy as np

from . import diffgeo as dg
from .errors import EvolutionAbort
from .stepping import Trajectory, integrate, rk4_step, step_count

RK4_IMAG_STABILITY = 2.0   # conservative fraction of the RK4 imaginary-axis limit
_FD_SECOND_MAX = {2: 4.0, 4: 16.0 / 3.0}
FIELD_WINDOW = 3           # shape fields a MembraneTrajectory keeps: one residual triple


@dataclass
class MembraneTrajectory(Trajectory):
    """Snapshot times (strictly increasing) and a GridImmersion per time.

    fields(i) builds the shape field of snapshot i on demand and keeps the
    FIELD_WINDOW most recently built ones, so a forward pass over the
    snapshots (diagnostics) builds each field once and holds at most three.
    """

    order: int = 2               # finite-difference order used throughout
    _window: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        if len(self.states) != self.times.size:
            raise ValueError("one snapshot per time required")

    @property
    def snapshots(self):
        return self.states

    def fields(self, i):
        i = range(len(self.states))[i]  # fields(-1) and fields(m - 1) share a slot
        sf = self._window.get(i)
        if sf is None:
            if len(self._window) == FIELD_WINDOW:  # drop the oldest before building
                del self._window[next(iter(self._window))]
            sf = self._window[i] = dg.shape_field(self.snapshots[i], order=self.order)
        return sf


def smc_rhs(points, spacings, order=2, ws=None):
    """Marker velocity -J H = (t_1 x ... x t_n x H) / sqrt(det g) per grid point.

    The RK4 stage kernel: it works on (d, *s) component planes of the
    positions and builds no GridImmersion or ShapeField.  Each grid axis takes
    its first and second differences from one set of padded-slice neighbours
    (dg.plane_derivatives); H is one normal projection of g^ij X_ij, which
    equals g^ij A_ij up to roundoff because the projection is linear.  Every
    intermediate plane lives in the workspace ws, which evolve_membrane keeps
    for all stages of a run; without one the call starts a fresh workspace.
    The returned velocity is always a new array.  Raises
    DegenerateImmersionError where det g <= G_MIN.
    """
    ws = dg.Workspace() if ws is None else ws
    t, xx, mixed = dg.plane_derivatives(points, spacings, order, ws)
    _, det_g, g_inv, dual = dg.metric_planes(t, ws)
    scalar_tmp = ws("scalar_tmp", det_g.shape)
    y = xx[0]  # g^ij X_ij, summed in the buffer of X_11
    y *= g_inv[0][0]
    if len(t) == 2:
        y += np.multiply(g_inv[1][1], xx[1], out=xx[1])
        y += np.multiply(np.multiply(2.0, g_inv[0][1], out=scalar_tmp), mixed, out=mixed)
    v = np.empty(points.shape)
    planes = np.moveaxis(v, -1, 0)
    dg.generalised_cross(t, dg.project_planes(y, t, dual, ws), planes, ws)
    planes /= np.sqrt(det_g, out=scalar_tmp)
    return v


def stability_limit(imm, order=2, ws=None):
    """Estimated RK4 step bound for the dispersive (Schrodinger-like) flow.

    The stiffest linearized mode oscillates at roughly
    c_ord * sum_i max(g^ii) / h_i^2 with c_ord the peak symbol of the second
    difference; the usable step is a conservative fraction of 2.83 over that.
    g^ii is read from the metric planes of the immersion (plane_derivatives
    and metric_planes, in the workspace ws), the planes shape_field copies
    into metric_inv, so the bound is bitwise that of the full shape field.
    Raises DegenerateImmersionError where det g <= G_MIN.
    """
    ws = dg.Workspace() if ws is None else ws
    t, _, _ = dg.plane_derivatives(imm.points, imm.spacings, order, ws)
    _, _, g_inv, _ = dg.metric_planes(t, ws)
    lam = sum(
        _FD_SECOND_MAX[order] * g_inv[i][i].max() / imm.spacings[i] ** 2
        for i in range(imm.dim)
    )
    return RK4_IMAG_STABILITY / lam


def evolve_membrane(imm, dt, t_final, stride=1, order=2):
    """RK4 Lagrangian-marker evolution, snapshots every `stride` steps.

    Raises ValueError for a step size above the stability estimate, and
    EvolutionAbort on metric degeneration, non-finite coordinates,
    or a snapshot whose stability estimate has dropped below dt.  The
    estimates read the metric planes alone, so the run builds no shape field:
    the returned trajectory, and the one an abort carries, hold snapshots,
    whose fields MembraneTrajectory.fields builds on demand.
    """
    nsteps = step_count(dt, t_final, stride)
    ws = dg.Workspace()  # every stage and stability estimate of this run works in it
    dt_max = stability_limit(imm, order, ws)
    if dt > dt_max:
        raise ValueError(f"dt={dt:.3e} above the stability estimate {dt_max:.3e}")
    periods, spacings = imm.param_periods, imm.spacings

    def step(snap, i):
        pts = rk4_step(lambda p: smc_rhs(p, spacings, order, ws), snap.points, dt)
        if not np.all(np.isfinite(pts)):
            raise EvolutionAbort("non-finite coordinates", i * dt)
        snap = dg.GridImmersion(pts, periods)
        if ((stride and i % stride == 0) or i == nsteps) and dt > stability_limit(snap, order, ws):
            raise EvolutionAbort("dt no longer within the stability estimate", i * dt)
        return snap

    def as_membrane(traj):
        return MembraneTrajectory(traj.times, traj.states, order=order)

    try:
        with np.errstate(all="ignore"):  # a non-finite stage is caught by the step-end check
            return as_membrane(integrate(step, imm, dt, t_final, stride))
    except EvolutionAbort as exc:
        exc.trajectory = as_membrane(exc.trajectory)
        raise


def extract_radii(imm):
    """Mean norms of the two coordinate pairs; exact radii on torus-like data."""
    pts = imm.points
    a = float(np.mean(np.hypot(pts[..., 0], pts[..., 1])))
    b = float(np.mean(np.hypot(pts[..., 2], pts[..., 3])))
    return a, b


def _triple(traj, i):
    if not 0 < i < len(traj.snapshots) - 1:
        raise IndexError("residuals need snapshots on both sides of i")
    span = traj.times[i + 1] - traj.times[i - 1]
    return (traj.fields(i - 1), traj.fields(i), traj.fields(i + 1)), span


def continuity_residual(traj, i):
    """Pointwise residual of the curvature-density continuity equation at
    snapshot i: centered d/dt of rho + div(rho chi) - source, with the
    transport velocity chi = 2 tau^sharp = 2 g^-1 tau.

    Points where |H| is masked (and their stencil neighbors) carry NaN in the
    returned field and are excluded from the max norm.
    """
    (sfm, sf0, sfp), span = _triple(traj, i)
    d_rho = (sfp.rho - sfm.rho) / span
    chi = 2.0 * np.einsum("...ij,...j->...i", sf0.metric_inv, sf0.tau)
    div = dg.metric_divergence(sf0, sf0.rho[..., None] * chi)
    resid = d_rho + div - sf0.source
    return resid, float(np.nanmax(np.abs(resid)))


def corollary_residual(traj, i):
    """Normal-vector residual of the contracted continuity form at snapshot i."""
    (sfm, sf0, sfp), span = _triple(traj, i)
    dH = dg.project_normal(sf0, (sfp.mean_curvature - sfm.mean_curvature) / span)
    gradH = np.stack(
        [dg.normal_derivative(sf0, sf0.mean_curvature, j) for j in range(2)], axis=-2
    )
    advect = 2.0 * np.einsum("...ij,...i,...jd->...d", sf0.metric_inv, sf0.tau, gradH)
    div_tau = dg.metric_divergence(
        sf0, np.einsum("...ij,...j->...i", sf0.metric_inv, sf0.tau)
    )
    p = np.einsum("...ijd,...d->...ij", sf0.second_form, sf0.jh)
    quad = np.einsum(
        "...ik,...jl,...kl,...ijd->...d",
        sf0.metric_inv, sf0.metric_inv, p, sf0.second_form,
    )
    resid = dH + advect + div_tau[..., None] * sf0.mean_curvature + quad
    return resid, float(np.nanmax(np.linalg.norm(resid, axis=-1)))


def momentum_residual(traj, i):
    """Covector residual of the torsion momentum equation at snapshot i.

    The equation checked is

        d/dt tau_i + grad_i |tau|^2 - grad_i(Lap|H|/|H|)
            = +grad_i( g^mk g^jl (A_mj,JH)(A_kl,JH) / |H|^2 )
              + g^kl/|H|^2 [ (A_ik,H)(D_l JH, JH) - (A_il,JH)(D_k JH, H) ],

    derived from the time-space curvature of the normal bundle along the
    flow.  Note the plus sign on the squared-form gradient: with a minus
    sign the residual stops converging on evolved non-symmetric data while
    still vanishing on products of circles (where that scalar is constant),
    which is how the sign was pinned; see tests/test_membrane.py.
    """
    (sfm, sf0, sfp), span = _triple(traj, i)
    imm = sf0.immersion
    n, hs = imm.dim, imm.spacings

    d_tau = (sfp.tau - sfm.tau) / span

    def grad(scalar):
        return np.stack([dg.diff(scalar, k, hs[k], sf0.order) for k in range(n)], axis=-1)

    tau_sq = dg.plane_einsum("...ij,...i,...j->...", sf0.metric_inv, sf0.tau, sf0.tau)
    absH = np.sqrt(sf0.rho)
    lap_term = grad(dg.laplace_beltrami(sf0, absH) / absH)

    jh = sf0.jh
    p = np.einsum("...ijd,...d->...ij", sf0.second_form, jh)      # (A_ij, JH)
    s = np.einsum("...ijd,...d->...ij", sf0.second_form, sf0.mean_curvature)
    q = dg.plane_einsum("...mk,...jl,...mj,...kl->...", sf0.metric_inv, sf0.metric_inv, p, p)
    grad_q = grad(q / sf0.rho)

    djh = np.stack([dg.normal_derivative(sf0, jh, k) for k in range(n)], axis=-2)
    u = np.einsum("...ld,...d->...l", djh, jh)                    # (D_l JH, JH)
    w = np.einsum("...kd,...d->...k", djh, sf0.mean_curvature)    # (D_k JH, H)
    frame_term = (
        dg.plane_einsum("...kl,...ik,...l->...i", sf0.metric_inv, s, u)
        - dg.plane_einsum("...kl,...il,...k->...i", sf0.metric_inv, p, w)
    ) / sf0.rho[..., None]

    resid = d_tau + grad(tau_sq) - lap_term - grad_q - frame_term
    return resid, float(np.nanmax(np.abs(resid)))


def energy_identity_check(traj, i):
    """(lhs, rhs, gap): centered d/dt of the Willmore energy vs the rate integral."""
    (sfm, sf0, sfp), span = _triple(traj, i)
    lhs = (dg.willmore_energy(sfp) - dg.willmore_energy(sfm)) / span
    _, rhs = dg.energy_derivative_integrand(sf0)
    return lhs, rhs, lhs - rhs


def diagnostics(traj):
    """Per-snapshot table: t, willmore, volume, extracted radii, max residuals.

    One forward pass: it builds the shape field of snapshot i, fills that
    snapshot's columns, then the residual columns of snapshot i - 1, whose
    triple is then complete.  traj.fields keeps the last three fields, so
    each is built once and at most three are alive.  Residual columns need
    both neighbors and are NaN at the endpoints.
    """
    m = len(traj.snapshots)
    cols = {
        key: np.full(m, np.nan)
        for key in (
            "t", "willmore", "volume", "a_extracted", "b_extracted",
            "max_continuity_residual", "max_momentum_residual", "energy_gap",
        )
    }
    for i in range(m):
        sf = traj.fields(i)
        cols["t"][i] = traj.times[i]
        cols["willmore"][i] = dg.willmore_energy(sf)
        cols["volume"][i] = dg.integrate_density(sf, np.ones_like(sf.rho))
        a, b = extract_radii(sf.immersion)
        cols["a_extracted"][i] = a
        cols["b_extracted"][i] = b
        if i >= 2:
            cols["max_continuity_residual"][i - 1] = continuity_residual(traj, i - 1)[1]
            cols["max_momentum_residual"][i - 1] = momentum_residual(traj, i - 1)[1]
            cols["energy_gap"][i - 1] = energy_identity_check(traj, i - 1)[2]
    return cols
