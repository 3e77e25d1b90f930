"""Exception types shared across the package."""


class DegenerateImmersionError(ValueError):
    """Raised when det(g) drops below the g_min guard at some grid point."""

    def __init__(self, grid_index, det_value):
        self.grid_index = tuple(int(i) for i in grid_index)
        self.det_value = float(det_value)
        super().__init__(
            f"degenerate immersion: det(g)={det_value:.3e} at grid index {self.grid_index}"
        )


class FrameDegeneracyError(ValueError):
    """Raised when the torsion form is masked (|H| below h_min at some point), so the
    normal-curvature check, which needs H/|H| everywhere, is unavailable."""


class UnsupportedDimensionError(ValueError):
    """Raised when an operation needs a different intrinsic dimension."""


class CollapseError(ValueError):
    """Closed-form evaluation requested at or past the collapse time."""

    def __init__(self, t_requested, t_star):
        self.t_requested = float(t_requested)
        self.t_star = float(t_star)
        super().__init__(
            f"state collapses at t*={t_star:.6g}; cannot evaluate at t={t_requested:.6g}"
        )


class EvolutionAbort(RuntimeError):
    """A time integration stopped before reaching its final time.

    Carries the time reached and, where available, the trajectory recorded before it.
    """

    def __init__(self, message, t, trajectory=None):
        self.t = float(t)
        self.trajectory = trajectory
        super().__init__(f"{message} (aborted at t={t:.6g})")


class SelfIntersectionAbort(EvolutionAbort):
    """Minimum non-neighbor sample distance fell below the d_min proxy."""


class BlowUpAbort(EvolutionAbort):
    """Right-hand side exceeded the blow-up cap."""


class VacuumAbort(EvolutionAbort):
    """Fluid density touched the rho_min guard."""


class CurvatureDegeneracyAbort(EvolutionAbort):
    """Curvature touched the kappa_min guard (singular kappa''/kappa term)."""
