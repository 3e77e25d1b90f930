"""Oracle and acceptance suite.

Each check reproduces one analytic target at a stated tolerance and returns a
CheckResult; run_all executes them in order and is the single implementation
behind both `skewflow validate` and tests/test_acceptance.py.  The strict
tolerance profile halves every tolerance.  A ValidationContext makes each
solve that several checks share once per suite, so the checks read one
membrane run, one filament run and one run per sphere product.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import diffgeo as dg
from . import filament as fl
from . import membrane as mb
from . import sphereprod as sp

MEMBRANE_ORDER = 4  # finite-difference order of the shared membrane run


@dataclass
class CheckResult:
    check_id: str
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.check_id:<22s} {self.details}"


class ValidationContext:
    """Makes each shared solve once per suite and keeps it:

    - the membrane run of checks 3, 4 and 9, and the volume, Willmore energy
      and energy rate of each of its snapshots (membrane_series: numbers
      only, no shape fields);
    - the filament run of checks 5 and 6;
    - the sphere-product runs of checks 2 and 3.
    """

    def __init__(self, tol_scale=1.0):
        self.tol_scale = tol_scale
        self._cache = {}

    def tol(self, value):
        return value * self.tol_scale

    def membrane_run(self):
        """torus(1,2) at 64x64, order 4, dt=1e-3, T=0.2, snapshots every 10 steps."""
        if "membrane" not in self._cache:
            imm = dg.torus_immersion(1.0, 2.0, (64, 64))
            self._cache["membrane"] = mb.evolve_membrane(
                imm, 1e-3, 0.2, stride=10, order=MEMBRANE_ORDER
            )
        return self._cache["membrane"]

    def membrane_series(self):
        """Volume, Willmore energy and energy rate (the integral of
        dg.energy_derivative_integrand) of every membrane_run snapshot.

        One forward pass builds each snapshot's shape field once and drops
        it; only the three lists of floats are kept.
        """
        if "membrane_series" not in self._cache:
            series = {"volume": [], "willmore": [], "rate": []}
            for snap in self.membrane_run().states:
                sf = dg.shape_field(snap, order=MEMBRANE_ORDER)
                series["volume"].append(dg.integrate_density(sf, np.ones_like(sf.rho)))
                series["willmore"].append(dg.willmore_energy(sf))
                series["rate"].append(dg.energy_derivative_integrand(sf)[1])
            self._cache["membrane_series"] = series
        return self._cache["membrane_series"]

    def filament_run(self):
        """The acceptance curve under the binormal flow at dt=1e-4 to T=1, a
        snapshot every 2000 steps: t = 0, 0.2, ..., 1.  It resamples only its
        input, so its t = 0.2 snapshot is bit for bit the curve that a run to
        0.2 alone ends on."""
        if "filament" not in self._cache:
            self._cache["filament"] = fl.evolve_filament(
                self.acceptance_curve(), 1e-4, 1.0, stride=2000
            )
        return self._cache["filament"]

    def made_filament_run(self):
        """filament_run's trajectory if this suite has made it, else None."""
        return self._cache.get("filament")

    def sphere_run(self, s0):
        """RK4 run of a sphere product at dt=5e-4 to 0.8 of its collapse time
        (to t=2 when it never collapses)."""
        if s0 not in self._cache:
            t_star = sp.collapse_time(s0)
            horizon = 0.8 * t_star if math.isfinite(t_star) else 2.0
            self._cache[s0] = sp.evolve_numeric(s0, 5e-4, horizon)
        return self._cache[s0]

    def acceptance_curve(self):
        """Planar perturbed circle with kappa bounded well away from zero."""
        return fl.perturbed_circle(1.0, 0.05, 3, 256)


def check_collapse_time(ctx):
    """Run-to-collapse stop times for (1,2,1,1) and (2,3,2,3)."""
    tr1 = sp.run_to_collapse(sp.SphereProductState(1, 2, 1.0, 1.0), 1e-4, a_stop=1e-10)
    gap1 = abs(tr1.times[-1] - 1.0)
    tr2 = sp.run_to_collapse(sp.SphereProductState(2, 3, 2.0, 3.0), 1e-3, a_stop=1e-10)
    gap2 = abs(tr2.times[-1] - 6.0)
    tol1, tol2 = ctx.tol(1e-3), ctx.tol(1e-3 * 6.0)
    ok = gap1 <= tol1 and gap2 <= tol2
    return ok, f"stop-time gaps {gap1:.2e} (tol {tol1:.0e}), {gap2:.2e} (tol {tol2:.0e})"


def check_closed_form_agreement(ctx):
    """RK4 vs closed forms for four (m,l) pairs, both radii to 1e-8."""
    worst = 0.0
    for (m, l, a, b) in [(1, 1, 1.0, 2.0), (1, 2, 1.0, 1.0), (2, 1, 1.0, 1.0), (2, 3, 2.0, 3.0)]:
        s0 = sp.SphereProductState(m, l, a, b)
        traj = ctx.sphere_run(s0)
        for i in range(0, traj.times.size, max(1, traj.times.size // 16)):
            ex = sp.closed_form(s0, traj.times[i])
            worst = max(worst, abs(traj.a[i] - ex.a), abs(traj.b[i] - ex.b))
    tol = ctx.tol(1e-8)
    return worst <= tol, f"worst radius gap {worst:.2e} (tol {tol:.0e})"


def check_conservation(ctx):
    """ln(a^m b^l) along RK4 runs; membrane volume drift over T=0.2."""
    worst_h = 0.0
    for (m, l, a, b) in [(1, 1, 1.0, 2.0), (1, 2, 1.0, 1.0), (2, 3, 2.0, 3.0)]:
        traj = ctx.sphere_run(sp.SphereProductState(m, l, a, b))
        ham = [sp.hamiltonian(traj.state(i)) for i in range(traj.times.size)]
        worst_h = max(worst_h, max(ham) - min(ham))
    vols = ctx.membrane_series()["volume"]
    vol_drift = max(abs(v / vols[0] - 1.0) for v in vols)
    tol_h, tol_v = ctx.tol(1e-8), ctx.tol(2e-3)
    ok = worst_h <= tol_h and vol_drift <= tol_v
    return ok, f"hamiltonian drift {worst_h:.2e} (tol {tol_h:.0e}), volume drift {vol_drift:.2e} (tol {tol_v:.0e})"


def check_willmore_noninvariance(ctx):
    """Membrane Willmore series vs 4pi^2(b/a e^(2t/ab) + a/b e^(-2t/ab)); >5% change."""
    traj = ctx.membrane_run()
    willmore = ctx.membrane_series()["willmore"]
    s0 = sp.SphereProductState(1, 1, 1.0, 2.0)
    worst_w = worst_r = 0.0
    for t, snap, w in zip(traj.times, traj.states, willmore):
        ex = sp.closed_form(s0, t)
        worst_w = max(worst_w, abs(w / sp.willmore(ex) - 1.0))
        a, b = mb.extract_radii(snap)
        worst_r = max(worst_r, abs(a / ex.a - 1.0), abs(b / ex.b - 1.0))
    change = abs(willmore[-1] / willmore[0] - 1.0)
    tol_w, tol_r = ctx.tol(1e-2), ctx.tol(1e-2)
    ok = worst_w <= tol_w and worst_r <= tol_r and change > 0.05
    return ok, (
        f"W gap {worst_w:.2e} (tol {tol_w:.0e}), radii gap {worst_r:.2e}, "
        f"W change {change:.1%} (> 5% required)"
    )


def check_willmore_1d(ctx):
    """Bending-energy drift of the binormal flow over T=1 at N=256, dt=1e-4."""
    traj = ctx.filament_run()
    w0 = fl.willmore_1d(traj.states[0])
    wT = fl.willmore_1d(traj.final)
    drift = abs(wT / w0 - 1.0)
    tol = ctx.tol(1e-10)
    return drift <= tol, f"bending-energy drift {drift:.2e} (tol {tol:.0e})"


def check_hasimoto_square(ctx):
    """Filament / curvature-torsion / wave / fluid curvature profiles at t=0.2."""
    # check 5's run, whose second state is its t = 0.2 snapshot; without it
    # the filament runs to 0.2 alone
    run = ctx.made_filament_run() or fl.evolve_filament(ctx.acceptance_curve(), 1e-4, 0.2)
    profiles, status = fl.square_profiles(run.states[0], run.states[1], 1e-4, 0.2,
                                          holonomy_tol=1e-10)
    if len(profiles) < len(fl.SQUARE_CORNERS):
        return False, "; ".join(f"{c} {s}" for c, s in status.items() if s != "ok")
    worst = max(fl.square_gaps(profiles).values())
    tol = ctx.tol(5e-3)
    return worst <= tol, f"worst pairwise L_inf gap {worst:.2e} (tol {tol:.0e})"


def check_willmore_gradient(ctx):
    """Hand values on both tori plus the eps-central-difference oracle, which
    fails unless it accepted its 3 directions."""
    tol = ctx.tol(1e-3)
    imm1 = dg.torus_immersion(1.0, 1.0, (64, 64))
    err_equal = float(np.max(np.abs(0.5 * dg.willmore_gradient(dg.shape_field(imm1, order=4)))))

    imm2 = dg.torus_immersion(1.0, 2.0, (64, 64))
    th = np.arange(64) * 2.0 * np.pi / 64
    TH, PH = np.meshgrid(th, th, indexing="ij")
    n1 = np.stack([np.cos(TH), np.sin(TH), 0 * TH, 0 * TH])
    n2 = np.stack([0 * PH, 0 * PH, np.cos(PH), np.sin(PH)])
    target = -(3.0 / 8.0) * n1 + (3.0 / 16.0) * n2
    half = 0.5 * dg.willmore_gradient(dg.shape_field(imm2, order=4))
    err_hand = float(np.max(np.linalg.norm(half - target, axis=0)))

    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 1, 2, (64, 64))
    sf = dg.shape_field(imm, order=4)

    def energy(pts):
        return dg.willmore_energy(dg.shape_field(dg.GridImmersion(pts, imm.param_periods), order=4))

    grad = dg.willmore_gradient(sf)
    gnorm = math.sqrt(dg.integrate_density(sf, dg.inner_product(grad, grad)))
    h = sf.H / np.sqrt(sf.rho)
    jh = dg.apply_j(sf, h)
    rng = np.random.default_rng(20240817)
    worst_rel = 0.0
    accepted = 0
    for _ in range(20):
        if accepted == 3:
            break
        coef = rng.normal(size=(2, 3, 3, 2))
        f1 = sum(
            coef[0, i, j, 0] * np.cos(i * TH + j * PH) + coef[0, i, j, 1] * np.sin(i * TH - j * PH)
            for i in range(3) for j in range(3)
        )
        f2 = sum(
            coef[1, i, j, 0] * np.cos(i * TH - j * PH) + coef[1, i, j, 1] * np.sin(i * TH + j * PH)
            for i in range(3) for j in range(3)
        )
        v = f1 * h + f2 * jh
        vnorm = math.sqrt(dg.integrate_density(sf, dg.inner_product(v, v)))
        pair = dg.integrate_density(sf, dg.inner_product(grad, v))
        if abs(pair) < 0.05 * gnorm * vnorm:
            # direction nearly orthogonal to the gradient: the relative
            # comparison is ill-conditioned, redraw
            continue
        accepted += 1
        eps = 1e-5
        step = eps * np.moveaxis(v, 0, -1)  # v as points, to perturb the immersion
        fd = (energy(imm.points + step) - energy(imm.points - step)) / (2.0 * eps)
        worst_rel = max(worst_rel, abs(pair - fd) / abs(fd))
    ok = err_equal <= tol and err_hand <= tol and worst_rel <= tol and accepted == 3
    details = (f"equal-radii grad {err_equal:.2e}, hand value gap {err_hand:.2e}, "
               f"oracle rel gap {worst_rel:.2e} (tol {tol:.0e})")
    if accepted < 3:  # the oracle compared fewer directions than it needs
        details += f", oracle accepted {accepted} of 3 directions"
    return ok, details


def _exact_torus_fields(a, b, t_center, dt, shape, order):
    """Shape fields of the exact torus(a, b) at t_center - dt, t_center and
    t_center + dt, and the span between the outer two."""
    s0 = sp.SphereProductState(1, 1, a, b)
    times = [t_center - dt, t_center, t_center + dt]
    fields = [dg.shape_field(sp.embed(sp.closed_form(s0, t), shape), order=order)
              for t in times]
    return fields, times[2] - times[0]


def check_continuity_source(ctx):
    """Continuity residual on the exact torus(1,2) trajectory; d rho/dt = 0.75."""
    fields, span = _exact_torus_fields(1.0, 2.0, 0.0, 1e-4, (64, 64), order=4)
    _, worst = mb.continuity_residual(fields, span)
    sfm, _, sfp = fields
    drho = (sfp.rho - sfm.rho) / span
    hand = float(np.max(np.abs(drho - 0.75)))
    tol = ctx.tol(1e-3)
    ok = worst <= tol and hand <= tol
    return ok, f"max residual {worst:.2e}, d(rho)/dt vs 0.75 gap {hand:.2e} (tol {tol:.0e})"


def check_energy_identity(ctx):
    """Centered dW/dt vs -2 int (A,H)(A,JH) dvol along the membrane run."""
    times = ctx.membrane_run().times
    series = ctx.membrane_series()
    w, rate = series["willmore"], series["rate"]
    worst_rel = 0.0
    for i in range(1, len(times) - 1):
        _, _, gap = mb.energy_identity_check(w[i - 1], w[i + 1], times[i + 1] - times[i - 1],
                                             rate[i])
        worst_rel = max(worst_rel, abs(gap) / abs(rate[i]))
    hand = abs(rate[0] / (8.0 * math.pi ** 2 * 0.75) - 1.0)
    tol_rel, tol_hand = ctx.tol(1e-2), ctx.tol(5e-3)
    ok = worst_rel <= tol_rel and hand <= tol_hand
    return ok, (
        f"worst |dW/dt - rate|/|rate| {worst_rel:.2e} (tol {tol_rel:.0e}), "
        f"rate(0) vs 8pi^2*3/4 rel gap {hand:.2e} (tol {tol_hand:.0e})"
    )


def _evolved_momentum_residual(n):
    """Momentum residual after one step on an n x n perturbed torus, from the
    fields of its first three snapshots; the trajectory and its shape fields
    are dropped before the next grid runs."""
    imm = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (n, n))
    dt = 0.25 * mb.stability_limit(dg.pad_planes(imm.points, 2), imm.spacings, 2)
    traj = mb.evolve_membrane(imm, dt, 2 * dt, stride=1, order=2)
    fields = [dg.shape_field(snap, order=2) for snap in traj.states]
    return mb.momentum_residual(fields, traj.times[2] - traj.times[0])[1]


def check_momentum(ctx):
    """Torsion momentum residual: ~0 on the exact torus, order >= 1 decay on
    evolved perturbed tori."""
    _, torus_resid = mb.momentum_residual(
        *_exact_torus_fields(1.0, 2.0, 0.0, 1e-4, (64, 64), order=4))

    resids = [_evolved_momentum_residual(n) for n in (48, 96, 192)]
    orders = [math.log2(resids[i] / resids[i + 1]) for i in range(len(resids) - 1)]
    tol_torus = ctx.tol(1e-3)
    ok = torus_resid <= tol_torus and min(orders) >= 1.0
    return ok, (
        f"torus residual {torus_resid:.2e} (tol {tol_torus:.0e}), "
        f"refinement orders {[round(o, 2) for o in orders]} (>= 1 required)"
    )


def check_normal_curvature(ctx):
    """d(tau) + normal curvature: zero on tori, order >= 1.8 on perturbed tori."""
    imm = dg.torus_immersion(1.0, 2.0, (64, 64))
    _, _, torus_resid = dg.normal_curvature_check(dg.shape_field(imm, order=2))

    resids = []
    for n in (96, 192, 384):
        im = dg.perturbed_torus_immersion(1.0, 2.0, 0.05, 2, 3, (n, n))
        resids.append(dg.normal_curvature_check(dg.shape_field(im, order=2))[2])
    orders = [math.log2(resids[i] / resids[i + 1]) for i in range(len(resids) - 1)]
    ok = torus_resid <= ctx.tol(1e-8) and min(orders) >= 1.8
    return ok, (
        f"torus residual {torus_resid:.2e} (tol {ctx.tol(1e-8):.0e}), "
        f"refinement orders {[round(o, 2) for o in orders]} (>= 1.8 required)"
    )


def check_nls_invariants(ctx):
    """Plane-wave phase omega = A^2/2 and mass conservation to 1e-10."""
    length = 2.0 * np.pi
    out = fl.nls_evolve(np.full(256, 1.0, dtype=complex), length, 1e-3, 1.0).final
    phase_err = float(np.max(np.abs(out - np.exp(0.5j))))

    rng = np.random.default_rng(11)
    spec = np.exp(-np.abs(np.fft.fftfreq(256, 1 / 256)) / 4.0)
    psi0 = np.fft.ifft(spec * rng.normal(size=256) * np.exp(2j * np.pi * rng.random(256)))
    out2 = fl.nls_evolve(psi0, length, 1e-3, 1.0).final
    mass_drift = abs(fl.mass(np.abs(out2) ** 2, length) / fl.mass(np.abs(psi0) ** 2, length) - 1.0)
    tol = ctx.tol(1e-10)
    ok = phase_err <= tol and mass_drift <= tol
    return ok, f"plane-wave phase gap {phase_err:.2e}, mass drift {mass_drift:.2e} (tol {tol:.0e})"


CHECKS = [
    ("1-collapse-time", "finite-time collapse stop times", check_collapse_time),
    ("2-closed-forms", "RK4 vs closed-form radii", check_closed_form_agreement),
    ("3-conservation", "Hamiltonian and volume conservation", check_conservation),
    ("4-willmore-2d", "Willmore non-conservation on torus(1,2)", check_willmore_noninvariance),
    ("5-willmore-1d", "1D bending-energy conservation", check_willmore_1d),
    ("6-hasimoto-square", "four-corner curvature agreement", check_hasimoto_square),
    ("7-willmore-gradient", "Willmore gradient values and oracle", check_willmore_gradient),
    ("8-continuity", "continuity-with-source residual", check_continuity_source),
    ("9-energy-identity", "energy rate identity", check_energy_identity),
    ("10-momentum", "torsion momentum residual", check_momentum),
    ("11-normal-curvature", "d(tau) vs normal curvature", check_normal_curvature),
    ("12-nls-invariants", "wave invariants", check_nls_invariants),
]


def run_all(tol_scale=1.0, only=None):
    """Run the acceptance checks; `only` filters by check id prefix.  Raises
    ValueError, naming it, for an id in `only` that names no check."""
    known = [check_id.split("-", 1)[0] for check_id, _, _ in CHECKS]
    wanted = set(known) if only is None else {str(o).split("-", 1)[0] for o in only}
    unknown = sorted(wanted - set(known))
    if unknown:
        raise ValueError(f"no check has the id {', '.join(map(repr, unknown))}; "
                         f"the ids are {', '.join(known)}")
    ctx = ValidationContext(tol_scale=tol_scale)
    results = []
    for key, (check_id, name, fn) in zip(known, CHECKS):
        if key not in wanted:
            continue
        start = time.perf_counter()
        try:
            passed, details = fn(ctx)
        except Exception as exc:  # a crash is a failure, not an abort of the suite
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(check_id, name, passed, details, time.perf_counter() - start))
    return results
