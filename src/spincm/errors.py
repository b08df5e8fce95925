"""Exception types and the fault checks shared across the package."""

import numpy as np

# Decorator: a numpy divide-by-zero, overflow or invalid result inside the
# call raises FloatingPointError instead of leaving an inf or nan behind.
# Each entry of spincm.__all__ that does floating-point work holds it once
# (the public evaluations of Lattice and the arithmetic operators of
# AlgElement included), and so does cli.main; no other function does, so
# every private core runs under the guard of the entry that called it.
raise_on_fp_fault = np.errstate(divide="raise", invalid="raise", over="raise")


def finite(value, what: str):
    """value, or FloatingPointError naming ``what`` if it holds an inf or a
    nan: the check for results that set no numpy flag past the float range
    (an einsum, np.abs of a complex)."""
    if not np.isfinite(value).all():
        raise FloatingPointError(f"{what} is out of floating-point range")
    return value


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


class ConfigError(SpincmError, ValueError):
    """Invalid run configuration (unknown keys, missing fields, bad values)."""
