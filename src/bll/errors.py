"""Exception types shared across the package, and the time-parameter check."""


class DomainError(ValueError):
    """Inputs outside the physical domain (non-finite, or rho/theta <= 0)."""


class StabilityError(ValueError):
    """Thermodynamic stability (p_rho > 0, e_theta > 0) violated at a reference point."""


class ShapeError(ValueError):
    """Field shape or staggering incompatible with the requested operation."""


class CompatibilityError(ValueError):
    """Initial or boundary data incompatible with the boundary conditions."""


class ClosureError(RuntimeError):
    """Degenerate scalar closure in the non-local implicit solve."""


class DivergenceError(RuntimeError):
    """A solver produced non-finite or non-positive fields."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class AlignmentError(ValueError):
    """Trajectories do not share grid or snapshot cadence."""


class ConfigError(ValueError):
    """Scenario configuration is malformed; carries a location when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def require_positive(value, name):
    """Raise DomainError unless value is a finite number > 0 (NaN and inf fail)."""
    if not 0.0 < value < float("inf"):
        raise DomainError(f"{name} must be finite and positive, got {value}")
