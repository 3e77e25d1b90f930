"""Tests of the benchmark's own output checks: each passes on analytic inputs
and fails on a corrupted output.

    python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest collection, so the
package's test command runs exactly what it ran before.
"""

import math
import os
import sys
import tempfile
import unittest

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

A, B = 1.0, 2.0


def torus(a, b, n=32):
    u = np.arange(n) * 2.0 * np.pi / n
    th, ph = np.meshgrid(u, u, indexing="ij")
    return np.stack([a * np.cos(th), a * np.sin(th), b * np.cos(ph), b * np.sin(ph)], axis=-1)


def torus_series(times, direction=1.0):
    """Exact torus snapshots; direction=-1 moves the radii the wrong way."""
    out = []
    for t in times:
        a, b = checks.exact_torus_radii(A, B, direction * t)
        out.append((t, torus(a, b)))
    return out


def snapshot_text(points, periods=(2.0 * math.pi, 2.0 * math.pi)):
    lines = [
        f"dim {points.ndim - 1}",
        "shape " + " ".join(str(n) for n in points.shape[:-1]),
        "param_periods " + " ".join(f"{p:.17g}" for p in periods),
        f"ambient {points.shape[-1]}",
    ]
    lines += [" ".join(f"{x:.17g}" for x in row) for row in points.reshape(-1, points.shape[-1])]
    return "\n".join(lines) + "\n"


def planar_curve(eps, k, n=256):
    """r(u) = 1 + eps cos(k u) with its exact curvature per sample."""
    u = np.arange(n) * 2.0 * np.pi / n
    r = 1.0 + eps * np.cos(k * u)
    r1 = -eps * k * np.sin(k * u)
    r2 = -eps * k * k * np.cos(k * u)
    kappa = np.abs(r * r + 2 * r1 * r1 - r * r2) / (r * r + r1 * r1) ** 1.5
    pts = np.stack([r * np.cos(u), r * np.sin(u), np.zeros_like(u)], axis=-1)
    return pts, kappa


class GeometryTest(unittest.TestCase):
    def test_torus_area_and_willmore(self):
        area, willmore = checks.surface_area_willmore(torus(A, B), (2 * math.pi, 2 * math.pi))
        self.assertAlmostEqual(area / (4 * math.pi ** 2 * A * B), 1.0, places=12)
        self.assertAlmostEqual(willmore / checks.exact_torus_willmore(A, B), 1.0, places=12)

    def test_curve_geometry(self):
        pts, kappa = planar_curve(0.05, 3)
        length, k, bending = checks.curve_geometry(pts)
        self.assertLess(np.max(np.abs(k - kappa)), 1e-10)
        circle_length, circle_kappa, _ = checks.curve_geometry(planar_curve(0.0, 3)[0] * 2.0)
        self.assertAlmostEqual(circle_length, 4 * math.pi, places=12)
        self.assertLess(np.max(np.abs(circle_kappa - 0.5)), 1e-12)

    def test_read_snapshot_and_frames(self):
        pts = torus(A, B, n=16)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snapshot_0000.txt")
            with open(path, "w") as fh:
                fh.write(snapshot_text(pts))
            back, periods = checks.read_snapshot(path)
        self.assertTrue(np.array_equal(back, pts))
        self.assertEqual(periods, (2 * math.pi, 2 * math.pi))
        table = {"t": np.array([0.0, 0.0, 0.5, 0.5]), "v": np.arange(4.0)}
        split = checks.frames(table, ["v"])
        self.assertEqual([t for t, _ in split], [0.0, 0.5])
        self.assertEqual(split[1][1][:, 0].tolist(), [2.0, 3.0])


class MembraneChecksTest(unittest.TestCase):
    times = [0.02 * i for i in range(11)]

    def geometry(self, series):
        return [checks.surface_area_willmore(p, (2 * math.pi, 2 * math.pi)) for _, p in series]

    def test_volume_drift(self):
        series = torus_series(self.times)
        self.assertTrue(checks.check_volume_drift([g[0] for g in self.geometry(series)])[0])
        series[-1] = (series[-1][0], 1.001 * series[-1][1])
        self.assertFalse(checks.check_volume_drift([g[0] for g in self.geometry(series)])[0])

    def test_willmore_agreement_and_change(self):
        spectral = [g[1] for g in self.geometry(torus_series(self.times))]
        exact = [checks.exact_torus_willmore(*checks.exact_torus_radii(A, B, t)) for t in self.times]
        self.assertTrue(checks.check_willmore_agreement(exact, spectral)[0])
        self.assertFalse(checks.check_willmore_agreement(np.array(exact) * 1.001, spectral)[0])
        self.assertTrue(checks.check_willmore_change(spectral)[0])
        self.assertFalse(checks.check_willmore_change(spectral[:2])[0])

    def test_restart_identical(self):
        text = snapshot_text(torus(A, B)).encode()
        self.assertTrue(checks.check_identical(text, text)[0])
        scaled = snapshot_text(1.001 * torus(A, B)).encode()
        self.assertFalse(checks.check_identical(text, scaled)[0])

    def test_torus_radii(self):
        self.assertTrue(checks.check_torus_radii(torus_series(self.times), A, B)[0])
        self.assertFalse(checks.check_torus_radii(torus_series(self.times, -1.0), A, B)[0])

    def test_torus_willmore(self):
        exact = [checks.exact_torus_willmore(*checks.exact_torus_radii(A, B, t)) for t in self.times]
        self.assertTrue(checks.check_torus_willmore(self.times, exact, A, B)[0])
        backwards = [checks.exact_torus_willmore(*checks.exact_torus_radii(A, B, -t)) for t in self.times]
        self.assertFalse(checks.check_torus_willmore(self.times, backwards, A, B)[0])


class FilamentChecksTest(unittest.TestCase):
    def test_profiles(self):
        pts, kappa = planar_curve(0.05, 3)
        measured = checks.curve_geometry(pts)[1]
        profiles = {"filament": measured, "darios": kappa, "nls": kappa.copy(), "fluid": kappa.copy()}
        self.assertTrue(checks.check_profiles(profiles)[0])
        profiles["nls"] = np.roll(kappa, 1)
        passed, detail = checks.check_profiles(profiles)
        self.assertFalse(passed)
        self.assertIn("nls", detail)

    def test_conserved(self):
        self.assertTrue(checks.check_conserved("mass", [6.75, 6.75, 6.75], 1e-10)[0])
        self.assertFalse(checks.check_conserved("mass", [6.75, 6.75 * (1 + 1e-9)], 1e-10)[0])


if __name__ == "__main__":
    unittest.main()
