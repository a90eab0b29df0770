"""Exception hierarchy, and the real-number and count checks, shared across the package."""

import math
import numbers


class ScmdistError(Exception):
    """Base class for all scmdist-specific errors."""


class ValidationError(ScmdistError, ValueError):
    """Invalid data, graph, or configuration input."""


class NumericalError(ScmdistError, ArithmeticError):
    """Numerical breakdown (failed factorization, negative squared distance)."""


def _real(value, what: str) -> float:
    """``value`` as a float if it is a finite real number; ValidationError naming ``what``."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return float(value)


def _count(value, what: str, low: int) -> int:
    """``value`` as an int if it is an integer (not a bool) >= ``low``; ValidationError if not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)
