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

Each residual is a function of the shape fields of three consecutive
snapshots (i - 1, i, i + 1) and the time span between the outer two; the
energy identity needs only the Willmore energies on either side of i, that
span and the rate at i.  Time derivatives are centered 3-point differences
across the triple, matching the O(dt^2) budget of the RK4 snapshots.
diagnostics builds the fields of a trajectory's snapshots in one forward
pass, each once, and holds at most three.
"""

import numpy as np

from . import diffgeo as dg
from .errors import EvolutionAbort
from .stepping import integrate, rk4_step, step_count

RK4_IMAG_STABILITY = 2.0   # conservative fraction of the RK4 imaginary-axis limit
_FD_SECOND_MAX = {2: 4.0, 4: 16.0 / 3.0}


def smc_rhs(padded, spacings, order=2, ws=dg._fresh):
    """Marker velocity -J H = (t_1 x ... x t_n x H) / sqrt(det g) per grid point.

    The RK4 stage kernel.  It takes the positions as padded (d, *s) component
    planes whose halo is the periodic wrap (dg.pad_planes), and returns the
    velocity in the same layout, halo wrapped by the same dg._halo, so
    y + c dt k of two such arrays is one as well; it builds no GridImmersion
    or ShapeField.  The input is differenced where it lies, each neighbour a
    view of it (dg.plane_derivatives), and all arithmetic runs over the band
    of interior rows; the det g floor reads the interior alone.  H enters
    unprojected, as g^ij X_ij: the wedge vanishes on tangent vectors, so the
    result is that of g^ij A_ij up to roundoff.  Every intermediate plane
    lives in ws, which evolve_membrane keeps for all stages of a run; by
    default each is a fresh array.  The returned velocity is always a new
    array.  Raises DegenerateImmersionError where det g <= G_MIN.
    """
    t, xx, mixed, inner = dg.plane_derivatives(padded, spacings, order, ws)
    _, det_g, g_inv = dg.metric_planes(t, ws, inner)
    scalar_tmp = ws("scalar_tmp", det_g.shape)
    v, w = np.empty(padded.shape), order // 2
    with np.errstate(all="ignore"):  # the band's halo columns hold no geometry
        y = xx[0]  # g^ij X_ij, summed in the buffer of X_11
        y *= g_inv[0][0]
        if len(t) == 2:
            y += np.multiply(g_inv[1][1], xx[1], out=xx[1])
            y += np.multiply(np.multiply(2.0, g_inv[0][1], out=scalar_tmp), mixed, out=mixed)
        band = v[:, w:-w]
        dg.generalised_cross(t, y, band, ws)
        band /= np.sqrt(det_g, out=scalar_tmp)
    return dg._halo(v, range(1, v.ndim), w)()


def stability_limit(padded, spacings, order=2, ws=dg._fresh):
    """Estimated RK4 step bound for the dispersive (Schrodinger-like) flow.

    The stiffest linearized mode oscillates at roughly
    c_ord * sum_i max(g^ii) / h_i^2 with c_ord the peak symbol of the second
    difference; the usable step is a conservative fraction of 2.83 over that.
    It is the first half of smc_rhs on the same padded (d, *s) planes, a
    curve's or a membrane's: the tangents of dg.plane_derivatives, then
    dg.metric_planes, under the stage's names in ws; max g^ii reads the
    band's interior, bitwise the full shape field's g_inv.  Raises
    DegenerateImmersionError where det g <= G_MIN.
    """
    t, _, _, inner = dg.plane_derivatives(padded, spacings, order, ws, tangents_only=True)
    _, _, g_inv = dg.metric_planes(t, ws, inner)
    lam = sum(_FD_SECOND_MAX[order] * g_inv[i][i][inner].max() / spacings[i] ** 2
              for i in range(len(t)))
    return RK4_IMAG_STABILITY / lam


def evolve_membrane(imm, dt, t_final, stride=1, order=2):
    """RK4 Lagrangian-marker evolution, snapshots every `stride` steps.

    The RK4 state is the padded planes of smc_rhs, so a stage needs no copy
    in, wrap or transpose out; no guard, as the loop checks them whole for
    finiteness (the halo wraps the interior).  The input is padded once; the
    stability estimate, in the stages' workspace, reads that state up front
    and each recorded state before its snapshot, a GridImmersion of the
    interior (imm itself at t = 0), is built.  Raises ValueError for a
    non-membrane input or a step above the estimate, and EvolutionAbort on
    metric degeneration, non-finite coordinates or a state whose estimate
    fell below dt.  No shape field is built: the returned
    stepping.Trajectory, and the one an abort carries, hold snapshots only.
    """
    if imm.dim != 2:
        raise ValueError(f"need a dim-2 immersion in R^4, got dim={imm.dim}")
    step_count(dt, t_final, stride)  # its ValueErrors before the stability estimate's
    periods, spacings = imm.param_periods, imm.spacings
    ws = dg.Workspace()  # every stage and stability estimate of this run works in it
    y0 = dg.pad_planes(imm.points, order)
    dt_max = stability_limit(y0, spacings, order, ws)
    if dt > dt_max:
        raise ValueError(f"dt={dt:.3e} above the stability estimate {dt_max:.3e}")

    def record(y, t):
        if t == 0.0:
            return imm
        if dt > stability_limit(y, spacings, order, ws):
            raise EvolutionAbort("dt no longer within the stability estimate", t)
        return dg.GridImmersion(dg.interior_points(y, order), periods)

    return integrate(lambda y, i: rk4_step(lambda p: smc_rhs(p, spacings, order, ws), y, dt),
                     y0, dt, t_final, stride, record=record)


def extract_radii(imm):
    """Mean norms of the two coordinate pairs; exact radii on torus-like data."""
    pts = imm.points
    a = float(np.mean(np.hypot(pts[..., 0], pts[..., 1])))
    b = float(np.mean(np.hypot(pts[..., 2], pts[..., 3])))
    return a, b


def continuity_residual(fields, span):
    """Pointwise residual of the curvature-density continuity equation at the
    middle of the shape fields (i - 1, i, i + 1), span apart end to end:
    centered d/dt of rho + div(rho chi) - source, with the transport
    velocity chi = 2 tau^sharp = 2 g^-1 tau.  The field is (*s,).

    Points where |H| is masked (and their stencil neighbors) carry NaN in the
    returned field and are excluded from the max norm.
    """
    sfm, sf0, sfp = fields
    d_rho = (sfp.rho - sfm.rho) / span
    chi = 2.0 * dg.raise_index(sf0, sf0.tau)
    div = dg.metric_divergence(sf0, sf0.rho * chi)
    resid = d_rho + div - sf0.source
    return resid, float(np.nanmax(np.abs(resid)))


def momentum_residual(fields, span):
    """Covector residual of the torsion momentum equation at the middle of the
    shape fields (i - 1, i, i + 1), span apart end to end, as (n, *s) planes.

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
    sfm, sf0, sfp = fields
    n, hs = sf0.immersion.dim, sf0.immersion.spacings

    d_tau = (sfp.tau - sfm.tau) / span

    def grad(scalar):
        return np.stack([dg.diff(scalar, k, hs[k], sf0.order) for k in range(n)])

    def paired(a, b):  # a_ij b^ij of two (n, n, *s) fields, summed row by row
        return sum(dg.inner_product(a[i], b[i]) for i in range(n))

    # ordered for peak memory: the D JH planes are dropped once paired, and
    # (A_ij, H) is made only once q's raised planes are freed
    jh = sf0.jh
    djh = [dg.normal_derivative(sf0, jh, k) for k in range(n)]
    # g^kl (D_l JH, JH) and g^kl (D_l JH, H)
    u_up = dg.raise_index(sf0, np.stack([dg.inner_product(d, jh) for d in djh]))
    w_up = dg.raise_index(sf0, np.stack([dg.inner_product(d, sf0.H) for d in djh]))
    del djh

    tau_sq = dg.inner_product(sf0.tau, dg.raise_index(sf0, sf0.tau))
    absH = np.sqrt(sf0.rho)
    lap_term = grad(dg.laplace_beltrami(sf0, absH) / absH)

    p = dg.second_form_pairing(sf0, jh)                    # (A_ij, JH)
    grad_q = grad(paired(p, dg.raise_indices(sf0, p)) / sf0.rho)
    s = dg.second_form_pairing(sf0, sf0.H)                 # (A_ij, H)
    frame_term = np.stack([
        dg.inner_product(s[i], u_up) - dg.inner_product(p[i], w_up) for i in range(n)
    ]) / sf0.rho

    resid = d_tau + grad(tau_sq) - lap_term - grad_q - frame_term
    return resid, float(np.nanmax(np.abs(resid)))


def energy_identity_check(w_before, w_after, span, rate):
    """(lhs, rhs, gap): the centered d/dt of the Willmore energy, from its
    values w_before and w_after at snapshots i - 1 and i + 1, span apart,
    against the rate integral at i (dg.energy_derivative_integrand)."""
    lhs = (w_after - w_before) / span
    return lhs, rate, lhs - rate


def diagnostics(traj, order):
    """Per-snapshot table: t, willmore, volume, extracted radii, max residuals.

    One forward pass over the snapshots of traj, differenced at the given
    finite-difference order: it builds the shape field of snapshot i, fills
    that snapshot's columns, then the residual columns of snapshot i - 1,
    whose triple is then complete.  The last three fields are a local list
    that drops the oldest before the next is built, so each field is built
    once, at most three are alive, and none outlives the call.  The energy
    gap reads the Willmore column.  Residual columns need both neighbors and
    are NaN at the endpoints.
    """
    m = len(traj.states)
    cols = {
        key: np.full(m, np.nan)
        for key in (
            "t", "willmore", "volume", "a_extracted", "b_extracted",
            "max_continuity_residual", "max_momentum_residual", "energy_gap",
        )
    }
    willmore, fields = cols["willmore"], []
    for i, snap in enumerate(traj.states):
        del fields[:-2]  # drop the oldest before the next is built
        sf = dg.shape_field(snap, order=order)
        fields.append(sf)
        cols["t"][i] = traj.times[i]
        willmore[i] = dg.willmore_energy(sf)
        cols["volume"][i] = dg.integrate_density(sf, np.ones_like(sf.rho))
        cols["a_extracted"][i], cols["b_extracted"][i] = extract_radii(snap)
        if i >= 2:
            span = traj.times[i] - traj.times[i - 2]
            cols["max_continuity_residual"][i - 1] = continuity_residual(fields, span)[1]
            cols["max_momentum_residual"][i - 1] = momentum_residual(fields, span)[1]
            rate = dg.energy_derivative_integrand(fields[1])[1]
            cols["energy_gap"][i - 1] = energy_identity_check(
                willmore[i - 2], willmore[i], span, rate)[2]
    return cols
