"""Gaussian kernel evaluation, Gram arrays and the median heuristic.

The kernel family is fixed to the Gaussian kernel

    k(x, y) = exp(-(x - y)^2 / (2 * sigma_sq)),

parameterized by its variance ``sigma_sq`` (squared data units).  Joint
kernels over several variables are Hadamard (entrywise) products of the
per-variable Grams (see :meth:`scmdist.cache.GramCache.gram`), which
realizes the product kernel; the per-variable Grams are cached, their
product is formed on each call.

The default bandwidth is the median heuristic: the median squared
difference over the pairs of an evenly strided subsample of at most 1000
points.  It is selected exactly from the sorted subsample, by counting and
bracketing, instead of from all 499,500 differences.
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
# About this many evenly spaced sorted points bracket the median heuristic's
# middle ranks with their pairwise differences.
_BRACKET_POINTS = 128


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
    points.  The median is selected exactly, without forming all
    n(n - 1)/2 differences of the n subsampled points.  Sorted, the points
    make each row of differences ``b[j] - b[i]`` (j > i) nondecreasing, so
    the pairs below a threshold are counted row by row with binary
    searches.  The differences among about 128 evenly spaced sorted points
    bracket the middle ranks; only the pairs inside the bracket are
    gathered and partitioned, and a bracket that misses the ranks is
    widened, at most to all pairs.  The cost is a sort, about 10k sample
    differences, a few O(n log n) counting passes and the bracket: about 2%
    of all pairs on continuous data (10k of 499,500 at n = 1000), more
    when ties crowd the middle ranks.  The value equals ``np.median`` of all
    the squared differences bit for bit.  Raises when the median is 0 (no
    usable scale; pass an explicit bandwidth).
    """
    if max_points < 2:
        raise ValidationError(f"max_points must be at least 2, got {max_points!r}")
    a = _as_clean_column(col, "column")
    if a.size < 2:
        raise ValidationError("median heuristic needs at least 2 values")
    if a.size > max_points:
        idx = np.linspace(0, a.size - 1, max_points).round().astype(int)
        a = a[idx]
    b = np.sort(a)
    n_pairs = b.size * (b.size - 1) // 2
    x0, x1 = _middle_differences(b, (n_pairs - 1) // 2, n_pairs // 2)
    # combined as np.median combines the middle squares of an even count
    med = float(x0 * x0) if n_pairs % 2 else float((x0 * x0 + x1 * x1) / 2.0)
    if med <= 0.0:
        counts = np.unique(b, return_counts=True)[1]
        equal = int((counts * (counts - 1) // 2).sum())
        raise ValidationError(
            f"median heuristic degenerate: the median squared difference over "
            f"{n_pairs} subsampled pairs is 0 ({equal} of them are pairs of equal "
            "values); supply an explicit bandwidth_sq"
        )
    return KernelConfig(bandwidth_sq=med)


def _middle_differences(b: np.ndarray, k0: int, k1: int) -> tuple[float, float]:
    """Order statistics k0 <= k1 (0-based) of the differences b[j] - b[i],
    j > i, of the sorted array ``b``, each computed as that one subtraction.

    Rounding is sign-symmetric, so these are the magnitudes of the
    differences of the unsorted points, and it is monotone, so each row i
    is nondecreasing in j.
    """
    n = b.size
    grid = np.arange(0, n, max(1, n // _BRACKET_POINTS))
    sample = (b[grid] - b[grid, None])[grid > grid[:, None]]
    n_pairs = n * (n - 1) // 2
    centre = (k0 + k1) / 2.0 * sample.size / n_pairs
    margin = np.sqrt(sample.size) + 1.0
    first = np.arange(1, n + 1)
    while True:
        i_lo, i_hi = int(centre - margin), int(np.ceil(centre + margin))
        part = np.partition(sample, [max(i_lo, 0), min(i_hi, sample.size - 1)])
        lo = part[i_lo] if i_lo >= 0 else 0.0
        hi = part[i_hi] if i_hi < sample.size else np.inf
        start, stop = _first_failing(b, lo, np.less), _first_failing(b, hi, np.less_equal)
        below, upto = int((start - first).sum()), int((stop - first).sum())
        if below <= k0 and k1 < upto:
            break
        margin *= 4.0  # ends at the bracket [0, inf], which holds every pair
    if lo == hi:  # every pair inside the bracket equals lo
        return lo, hi
    # the pairs lo <= b[j] - b[i] <= hi: j in [start[i], stop[i]) for row i
    width = stop - start
    j = np.repeat(start - (np.cumsum(width) - width), width)
    j += np.arange(j.size)
    inside = b[j]
    del j  # at most two pair-length arrays alive: 8 MB when the bracket is all pairs
    inside -= np.repeat(b, width)
    inside.partition([k0 - below, k1 - below])
    return inside[k0 - below], inside[k1 - below]


def _first_failing(b: np.ndarray, t: float, keep) -> np.ndarray:
    """For every row i of the sorted array ``b``, the first j > i whose
    computed difference ``b[j] - b[i]`` fails ``keep(d, t)`` (``np.less`` or
    ``np.less_equal``), or ``b.size``.

    A binary search for ``b + t`` gives a first guess.  Since ``b + t``
    rounds, the guess is moved, one run of equal values at a time, until
    the computed differences on both sides of it agree with ``keep``.
    """
    n = b.size
    lowest = np.arange(1, n + 1)
    p = np.maximum(np.searchsorted(b, b + t, side="left" if keep is np.less else "right"),
                   lowest)
    while True:
        r = np.flatnonzero(p < n)
        r = r[keep(b[p[r]] - b[r], t)]
        if not r.size:
            break
        p[r] = np.searchsorted(b, b[p[r]], side="right")
    while True:
        r = np.flatnonzero(p > lowest)
        r = r[~keep(b[p[r] - 1] - b[r], t)]
        if not r.size:
            break
        p[r] = np.maximum(np.searchsorted(b, b[p[r] - 1], side="left"), lowest[r])
    return p
