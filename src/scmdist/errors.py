"""Exception hierarchy, and the real-number check, shared across the package."""

import numbers


class ScmdistError(Exception):
    """Base class for all scmdist-specific errors."""


class ValidationError(ScmdistError, ValueError):
    """Invalid data, graph, or configuration input."""


class NumericalError(ScmdistError, ArithmeticError):
    """Numerical breakdown (failed factorization, negative squared distance)."""


def _real(value, what: str) -> float:
    """``value`` as a float if it is a real number; ValidationError naming ``what`` if not."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    return float(value)
