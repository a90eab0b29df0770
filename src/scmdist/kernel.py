"""Gaussian kernel evaluation, Gram arrays and the median heuristic.

The kernel family is fixed to the Gaussian kernel

    k(x, y) = exp(-(x - y)^2 / (2 * sigma_sq)),

parameterized by its variance ``sigma_sq`` (squared data units).  Joint
kernels over several variables are Hadamard (entrywise) products of the
per-variable Grams (see :meth:`scmdist.cache.GramCache.gram`), which
realizes the product kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "KernelConfig",
    "gaussian_kernel",
    "median_heuristic",
]

# Cap on the number of points used by the median heuristic.
MEDIAN_HEURISTIC_MAX_POINTS = 1000


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel variance sigma_sq (must be > 0)."""

    bandwidth_sq: float

    def __post_init__(self):
        b = self.bandwidth_sq
        if not np.isfinite(b) or b <= 0:
            raise ValidationError(f"bandwidth_sq must be positive and finite, got {b!r}")


def _as_clean_column(values, what: str) -> np.ndarray:
    col = np.asarray(values, dtype=float).ravel()
    if col.size == 0:
        raise ValidationError(f"{what} is empty")
    if not np.all(np.isfinite(col)):
        raise ValidationError(f"{what} contains non-finite values")
    return col


def gaussian_kernel(x: float, y: float, cfg: KernelConfig) -> float:
    """Evaluate k(x, y) = exp(-(x - y)^2 / (2 sigma_sq)); symmetric, in (0, 1]."""
    if not (np.isfinite(x) and np.isfinite(y)):
        raise ValidationError(f"kernel inputs must be finite, got ({x!r}, {y!r})")
    d = float(x) - float(y)
    return float(np.exp(-(d * d) / (2.0 * cfg.bandwidth_sq)))


def gram_entries(col_a, col_b, cfg: KernelConfig) -> np.ndarray:
    """Raw Gram array between two 1-D sample columns.

    Entry (s, t) is ``gaussian_kernel(col_a[s], col_b[t], cfg)``.
    """
    a = _as_clean_column(col_a, "first column")
    b = _as_clean_column(col_b, "second column")
    return _gaussian_of_differences(np.subtract.outer(a, b), cfg.bandwidth_sq)


def _gaussian_of_differences(diff: np.ndarray, bandwidth_sq: float) -> np.ndarray:
    """exp(-diff^2 / (2 sigma_sq)), in place.  Full Grams and single Gram
    rows both go through this one sequence of operations, so a row built on
    its own equals the same row of the full Gram bit for bit."""
    np.square(diff, out=diff)
    diff *= -1.0 / (2.0 * bandwidth_sq)
    return np.exp(diff, out=diff)


def kernel_vector(col, value: float, cfg: KernelConfig) -> np.ndarray:
    """Vector of kernel evaluations k(col[n], value) for a single query point."""
    a = _as_clean_column(col, "column")
    if not np.isfinite(value):
        raise ValidationError(f"query value must be finite, got {value!r}")
    d = a - float(value)
    return np.exp(-(d * d) / (2.0 * cfg.bandwidth_sq))


def median_heuristic(col, max_points: int = MEDIAN_HEURISTIC_MAX_POINTS) -> KernelConfig:
    """Default bandwidth: median of squared pairwise differences.

    Uses a deterministic evenly strided subsample of at most ``max_points``
    points so the cost stays quadratic in ``max_points`` only.  Raises when
    every value is identical (no usable scale; pass an explicit bandwidth).
    """
    a = _as_clean_column(col, "column")
    if a.size < 2:
        raise ValidationError("median heuristic needs at least 2 values")
    if a.size > max_points:
        idx = np.linspace(0, a.size - 1, max_points).round().astype(int)
        a = a[idx]
    # upper-triangle squared differences, row by row (the order of triu_indices)
    n = a.size
    pair_vals = np.empty(n * (n - 1) // 2)
    start = 0
    for s in range(n - 1):
        stop = start + n - 1 - s
        np.subtract(a[s + 1:], a[s], out=pair_vals[start:stop])
        start = stop
    np.square(pair_vals, out=pair_vals)
    med = float(np.median(pair_vals))
    if med <= 0.0:
        raise ValidationError(
            "median heuristic degenerate (all subsampled values identical); "
            "supply an explicit bandwidth_sq"
        )
    return KernelConfig(bandwidth_sq=med)
