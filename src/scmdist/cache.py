"""Memoized Gram matrices and Cholesky factors.

Gram construction is the dominant repeated cost when the same dataset and
variables are queried at many intervention values or across many variable
pairs.  A :class:`GramCache` keys Grams by (row dataset, column dataset,
variable tuple, bandwidth) and Cholesky factors additionally by the total
ridge.

The Gaussian Gram of one variable is numerically low-rank, so with a
positive ridge its factor is an adaptive pivoted Cholesky factor L (N x r,
Harbrecht, Peters & Schneider 2012) with L L' equal to the Gram up to a
largest residual diagonal of 1e-13, and solves go through the Woodbury
identity (Fine & Scheinberg 2001): about N r^2 flops to factor and
4 N r flops per right-hand side.  Joint Grams over several variables, a
zero ridge (the Woodbury identity divides by it), and Grams whose rank
would exceed N/4 keep the dense N^3/3 Cholesky factorization.

Lookups and construction are serialized by one lock per cache, so each key
is built once and every hit refreshes its entry's recency.  Entries are
evicted least-recently-used.

Dataset identity is the dataset ``id`` string: within one cache lifetime an
id must always refer to the same object (enforced), so cached entries can
never silently describe different data.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .dataset import Dataset
from .errors import NumericalError, ValidationError
from .kernel import KernelConfig, gram_entries

__all__ = ["GramCache", "CholFactor"]

JITTER_FLOOR = 1e-10
JITTER_CEILING = 1e-6
# pivoted Cholesky stops at this largest residual diagonal (the Gaussian
# kernel's diagonal is 1), and gives way to the dense factorization past
# rank N // LOW_RANK_MAX_DIVISOR
LOW_RANK_TOL = 1e-13
LOW_RANK_MAX_DIVISOR = 4


def _pivoted_cholesky(matrix: np.ndarray, max_rank: int) -> np.ndarray | None:
    """Rows of L' (r x N) with L L' = ``matrix`` to LOW_RANK_TOL, or None past ``max_rank``.

    ``matrix`` is symmetric positive semi-definite, so its row p is its column p.
    """
    resid = np.diagonal(matrix).copy()
    rows = np.empty((max_rank, matrix.shape[0]))
    for k in range(max_rank + 1):
        p = int(np.argmax(resid))
        if resid[p] <= LOW_RANK_TOL:
            return rows[:k].copy()
        if k < max_rank:
            col = matrix[p] - rows[:k, p] @ rows[:k]
            col /= math.sqrt(resid[p])
            rows[k] = col
            resid -= col * col
    return None


class CholFactor:
    """Factor of (Gram + ridge*I), exposing repeated solves.

    With ``low_rank`` (which needs ridge + jitter > 0) the factor is a
    pivoted Cholesky factor solved through the Woodbury identity, and
    ``rank`` is its rank; when the rank would exceed N/4 it is the dense
    Cholesky factor, as without ``low_rank``, and ``rank`` is None.  Only the
    dense factorization escalates the jitter.
    """

    def __init__(self, matrix: np.ndarray, ridge: float, jitter: float, label: str,
                 low_rank: bool = False):
        self.label = label
        self.ridge = ridge
        self.rank = None
        jit = float(jitter)
        if low_rank:
            rows = _pivoted_cholesky(matrix, matrix.shape[0] // LOW_RANK_MAX_DIVISOR)
            if rows is not None:
                # lam I + L'L is positive definite for any lam > 0
                lam = ridge + jit
                core = rows @ rows.T
                core[np.diag_indices_from(core)] += lam
                core = cho_factor(core, lower=True, overwrite_a=True, check_finite=False)
                self._factor = (rows, core, lam)
                self.rank = rows.shape[0]
                self.jitter_used = jit
                return
        while True:
            # a Fortran-ordered copy, which LAPACK factors in place
            m = np.array(matrix, order="F")
            m[np.diag_indices_from(m)] += ridge + jit
            try:
                self._factor = cho_factor(m, lower=True, overwrite_a=True, check_finite=False)
                self.jitter_used = jit
                return
            except LinAlgError:
                nxt = JITTER_FLOOR if jit == 0.0 else jit * 10.0
                if nxt > JITTER_CEILING:
                    raise NumericalError(
                        f"Cholesky factorization failed for {label} "
                        f"(ridge_lambda={ridge:g}, jitter escalated to {jit:g})"
                    ) from None
                jit = nxt

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.rank is None:
            return cho_solve(self._factor, rhs, check_finite=False)
        # (L L' + lam I)^-1 R = (R - L (lam I + L'L)^-1 L'R) / lam
        rows, core, lam = self._factor
        return (rhs - rows.T @ cho_solve(core, rows @ rhs, check_finite=False)) / lam


class GramCache:
    """LRU cache of Gram matrices and factors over registered datasets."""

    def __init__(self, capacity: int = 12):
        if capacity < 1:
            raise ValidationError("cache capacity must be >= 1")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._datasets: dict[str, Dataset] = {}

    def _register(self, ds: Dataset):
        known = self._datasets.get(ds.id)
        if known is None:
            self._datasets[ds.id] = ds
        elif known is not ds:
            raise ValidationError(
                f"dataset id {ds.id!r} reused for a different dataset; "
                "give distinct datasets distinct ids"
            )

    def _get_or_build(self, key, build):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry
            entry = build()
            self._entries[key] = entry
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
            return entry

    def gram(self, row: Dataset, col: Dataset, variables: tuple[str, ...],
             kcfg: KernelConfig) -> np.ndarray:
        """Hadamard-product Gram over ``variables`` between two datasets."""
        if not variables:
            raise ValidationError("need at least one variable for a Gram matrix")
        with self._lock:
            self._register(row)
            self._register(col)
        key = ("gram", row.id, col.id, tuple(variables), kcfg.bandwidth_sq)
        if len(variables) > 1:
            # joint product kernel assembled from cached per-variable Grams;
            # resolve the factors first (the cache lock is not reentrant)
            factors = [self.gram(row, col, (v,), kcfg) for v in variables]

            def build():
                out = factors[0].copy()
                for f in factors[1:]:
                    out *= f
                out.setflags(write=False)
                return out
        else:
            def build():
                out = gram_entries(row.column(variables[0]), col.column(variables[0]), kcfg)
                out.setflags(write=False)
                return out

        return self._get_or_build(key, build)

    def factor(self, data: Dataset, variables: tuple[str, ...], kcfg: KernelConfig,
               ridge: float, jitter: float) -> CholFactor:
        """Factor of the joint Gram over ``variables`` plus ridge.

        One variable with a positive ridge tries the low-rank factor first.
        """
        key = ("chol", data.id, tuple(variables), kcfg.bandwidth_sq, ridge, jitter)
        base = self.gram(data, data, variables, kcfg)
        label = f"variables {list(variables)!r} of dataset {data.id!r}"
        low_rank = len(variables) == 1 and ridge > 0
        return self._get_or_build(
            key, lambda: CholFactor(base, ridge, jitter, label, low_rank=low_rank))
