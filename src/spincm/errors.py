"""Exception types and the fault checks shared across the package."""

import numpy as np

# Decorator: a numpy divide-by-zero, overflow or invalid result inside the
# call raises FloatingPointError instead of leaving an inf or nan behind.
# Each entry of spincm.__all__ that does floating-point work holds it once
# (the public evaluations of Lattice included), and so does cli.main; no
# other function does, so every private core runs under the guard of the
# entry that called it.
raise_on_fp_fault = np.errstate(divide="raise", invalid="raise", over="raise")


def finite(value, what: str):
    """value, or FloatingPointError naming ``what`` if it holds an inf or a
    nan: the check for results that set no numpy flag past the float range
    (an einsum, np.abs of a complex)."""
    if not np.isfinite(value).all():
        raise FloatingPointError(f"{what} is out of floating-point range")
    return value


def coords(value, what: str, *shape, nonempty: bool = False) -> np.ndarray:
    """value as a complex array of the given shape, the one cast of every
    entry: an int fixes an axis, a str allows any length, and a leading
    ``...`` allows any leading axes.  A value numpy cannot read as complex,
    one of another shape, or one with no entry where ``nonempty`` asks for
    one raises StructuralError naming ``what`` and the expected shape."""
    want = str(shape).replace("Ellipsis", "...").replace("'", "")
    try:
        v = np.asarray(value, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"expected {what} of shape {want} as complex "
                              f"numbers: {exc}") from None
    if nonempty and not v.size:
        raise StructuralError(f"expected at least one sample of {what}, got "
                              f"none")
    lead = shape[:1] == (...,)
    fixed = shape[lead:]
    if v.ndim < len(fixed) or v.ndim > len(fixed) and not lead or any(
            n != w for n, w in zip(v.shape[v.ndim - len(fixed):], fixed)
            if not isinstance(w, str)):
        raise StructuralError(f"expected {what} of shape {want}, got "
                              f"{v.shape}")
    return v


def scalar(values):
    """The Python float or complex of a 0-d array, else the array: the one
    way an entry returns a single value."""
    return values.item() if values.ndim == 0 else values


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
