"""Exception types shared across the package, and the one rule for counts.

The CLI maps these onto exit codes: validation errors exit 1, numerical
failures exit 2, I/O problems exit 3.
"""

from numbers import Integral


class LevelflowError(Exception):
    """Base class for all package errors."""


class ValidationError(LevelflowError, ValueError):
    """Invalid parameters, configuration, or input data."""


class NumericalError(LevelflowError, RuntimeError):
    """A computation could not be completed reliably."""


class StencilCrossingError(NumericalError):
    """Level ordering is inconsistent across a finite-difference stencil."""


class DegenerateSpectrumError(NumericalError):
    """A spectral gap fell below the configured floor mid-computation."""


class EigensolverError(NumericalError):
    """The dense symmetric eigensolver failed to converge."""


def check_count(name: str, value, least: int = 1) -> None:
    """Refuse a count that is not an integer (numpy integers are, bool is not) or is below least."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
