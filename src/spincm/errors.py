"""Exception types shared across the package."""

import numpy as np

# Decorator: a numpy divide-by-zero, overflow or invalid result inside the
# call raises FloatingPointError instead of leaving an inf or nan behind.
raise_on_fp_fault = np.errstate(divide="raise", invalid="raise", over="raise")


class SpincmError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedAlgebraError(SpincmError, ValueError):
    """Requested Lie algebra family or rank is not implemented."""


class StructuralError(SpincmError, ValueError):
    """Objects built over mismatched root systems, or malformed algebraic data."""


class PoleError(SpincmError, ArithmeticError):
    """Evaluation requested at (or too close to) a pole of a special function
    or of an r-matrix coefficient."""


class GaugeDomainError(SpincmError, ValueError):
    """Point lies outside the open set where the gauge map g(xi) is defined
    (some simple-root spin coordinate vanishes); ``index`` is the position
    of the first such point in a stack, None for a single point."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ConstraintError(SpincmError, ValueError):
    """Operation requires a point on the constraint set Sigma and the supplied
    point violates it beyond tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ConfigError(SpincmError, ValueError):
    """Invalid run configuration (unknown keys, missing fields, bad values)."""
