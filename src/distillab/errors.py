"""Exception types shared across the package."""

__all__ = ["ValidationError", "NumericalError"]


class ValidationError(ValueError):
    """Raised when inputs violate a documented contract (bad shapes,
    out-of-range parameters, infeasible configurations)."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine fails to meet its accuracy or
    convergence contract (diverging solver, residual out of tolerance)."""
