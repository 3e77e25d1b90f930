"""Acceptance gate: every criterion at its stated tolerance.

Runs the shared validation suite once and asserts each criterion separately,
printing one PASS/FAIL line per criterion (visible with pytest -s / -rA).

 1. finite-time collapse stop times within 1e-3 (absolute / relative to t*)
 2. RK4 vs closed-form radii <= 1e-8 for (1,1), (1,2), (2,1), (2,3)
 3. ln(a^m b^l) drift <= 1e-8; membrane volume drift <= 0.2% over T=0.2
 4. Willmore non-conservation: torus(1,2) tracks the analytic series to 1%
    and changes by > 5% over t in [0, 0.2]
 5. 1D bending energy drift <= 1e-10 over T=1 (N=256, dt=1e-4)
 6. four-corner curvature agreement L_inf <= 5e-3 at t=0.2
 7. Willmore gradient: zero at equal radii, hand value at (1,2), and the
    central-difference oracle, all <= 1e-3 at 64x64; the oracle must
    accept all 3 of its directions
 8. continuity-with-source residual <= 1e-3 at 64x64; d(rho)/dt = 0.75 at t=0
 9. energy rate identity within 1%; rate = 8 pi^2 * 3/4 at (1,2) within 0.5%
10. momentum residual ~ 0 on tori; refinement order >= 1 on perturbed tori
11. d(tau) + normal curvature ~ 0 on tori; order >= 1.8 on perturbed tori
12. plane-wave phase omega = A^2/2 and mass conservation to 1e-10
"""

import gc

import pytest

from skewflow import diffgeo as dg
from skewflow import filament as fl
from skewflow import membrane as mb
from skewflow import sphereprod as sp
from skewflow import validate
from skewflow.errors import SelfIntersectionAbort


@pytest.fixture(scope="module")
def results():
    out = {r.check_id: r for r in validate.run_all()}
    print()
    for r in out.values():
        print(f"{r.line()}   [{r.seconds:.1f}s]")
    return out


def _assert(results, check_id):
    r = results[check_id]
    print(r.line())
    assert r.passed, r.details


def test_criterion_01_collapse_time(results):
    _assert(results, "1-collapse-time")


def test_criterion_02_closed_form_agreement(results):
    _assert(results, "2-closed-forms")


def test_criterion_03_hamiltonian_volume_conservation(results):
    _assert(results, "3-conservation")


def test_criterion_04_willmore_nonconservation(results):
    _assert(results, "4-willmore-2d")


def test_criterion_05_willmore_1d_conservation(results):
    _assert(results, "5-willmore-1d")


def test_criterion_06_hasimoto_square(results):
    _assert(results, "6-hasimoto-square")


def test_criterion_07_willmore_gradient(results):
    _assert(results, "7-willmore-gradient")


def test_criterion_08_continuity_with_source(results):
    _assert(results, "8-continuity")


def test_criterion_09_energy_identity(results):
    _assert(results, "9-energy-identity")


def test_criterion_10_momentum_equation(results):
    _assert(results, "10-momentum")


def test_criterion_11_normal_bundle_curvature(results):
    _assert(results, "11-normal-curvature")


def test_criterion_12_nls_invariants(results):
    _assert(results, "12-nls-invariants")


def test_checks_2_and_3_run_each_sphere_product_once(monkeypatch):
    runs = []
    evolve_numeric = sp.evolve_numeric
    monkeypatch.setattr(sp, "evolve_numeric",
                        lambda s0, *args: runs.append(s0) or evolve_numeric(s0, *args))
    ctx = validate.ValidationContext()
    small = mb.evolve_membrane(dg.torus_immersion(1.0, 2.0, (16, 16)), 1e-3, 0.01, stride=5)
    monkeypatch.setattr(ctx, "membrane_run", lambda: small)
    assert validate.check_closed_form_agreement(ctx)[0]
    assert validate.check_conservation(ctx)[0]
    assert len(runs) == len(set(runs)) == 4


def test_membrane_series_leaves_no_shape_field_alive(monkeypatch):
    def live_shape_fields():
        gc.collect()
        return sum(isinstance(obj, dg.ShapeField) for obj in gc.get_objects())

    ctx = validate.ValidationContext()
    small = mb.evolve_membrane(dg.torus_immersion(1.0, 2.0, (16, 16)), 1e-3, 0.01, stride=5,
                               order=validate.MEMBRANE_ORDER)
    monkeypatch.setattr(ctx, "membrane_run", lambda: small)
    live = live_shape_fields()
    series = ctx.membrane_series()
    assert {key: len(values) for key, values in series.items()} == {
        "volume": 3, "willmore": 3, "rate": 3}
    assert live_shape_fields() == live  # the run is kept, its fields are not


def test_check_6_alone_runs_the_filament_only_to_its_own_horizon(results, monkeypatch):
    horizons = []
    evolve_filament = fl.evolve_filament
    monkeypatch.setattr(fl, "evolve_filament",
                        lambda c, dt, t, **kw: horizons.append(t) or evolve_filament(c, dt, t, **kw))
    (alone,) = validate.run_all(only=["6"])
    assert alone.details == results["6-hasimoto-square"].details
    assert horizons == [0.2]


def test_check_6_runs_its_own_filament_when_check_5s_run_aborts(results, monkeypatch):
    evolve_filament = fl.evolve_filament

    def aborting(c, dt, t, **kw):
        if t > 0.2:
            raise SelfIntersectionAbort("injected", 0.0)
        return evolve_filament(c, dt, t, **kw)

    monkeypatch.setattr(fl, "evolve_filament", aborting)
    five, six = validate.run_all(only=["5", "6"])
    assert not five.passed and "SelfIntersectionAbort" in five.details
    assert six.details == results["6-hasimoto-square"].details


def test_checks_3_4_and_9_build_each_membrane_field_once(results, monkeypatch):
    built = []
    shape_field = dg.shape_field
    monkeypatch.setattr(dg, "shape_field",
                        lambda imm, **kw: built.append(imm) or shape_field(imm, **kw))
    out = validate.run_all(only=["3", "4", "9"])
    assert [r.details for r in out] == [
        results[c].details for c in ("3-conservation", "4-willmore-2d", "9-energy-identity")
    ]
    assert len(built) == 21  # one per snapshot of the shared run
