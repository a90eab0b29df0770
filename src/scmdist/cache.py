"""Memoized Gram matrices, low-rank Gram factors and Cholesky factors.

Gram construction is the dominant repeated cost when the same dataset and
variables are queried at many intervention values or across many variable
pairs.  A :class:`GramCache` keys the Gram of one variable by (row dataset,
column dataset, variable, bandwidth), low-rank rows by (datasets, variable,
bandwidth) and Cholesky factors by (dataset, variable tuple, bandwidth,
total ridge); every factor adds the fixed jitter JITTER_FLOOR.  A Gram over
several variables, the product of the cached ones, is formed per call.

The Gaussian Gram of one variable is numerically low-rank.  An adaptive
pivoted Cholesky factorization (Harbrecht, Peters & Schneider 2012) gives
L (N x r) with L L' equal to the Gram up to a largest residual diagonal of
1e-13; it builds each pivot's Gram row from the samples, in about N r^2
flops and 8 N r bytes, and never forms the N x N Gram.
:meth:`GramCache.rows` caches these rows over the concatenated samples of
one or more datasets: the distances take their quadratic and cross forms
from them, and with a positive ridge a single variable's factor takes the
rows of its one dataset, shared by every ridge, and is solved through the
Woodbury identity (Fine & Scheinberg 2001): 4 N r flops per right-hand
side.  Joint Grams over several variables, a zero ridge (the Woodbury
identity divides by it), and Grams whose rank would exceed N/4 keep the
dense Gram and its N^3/3 Cholesky factorization.

Lookups and construction are serialized by one re-entrant lock per cache,
so each key is built once and every hit refreshes its entry's recency; an
entry's build looks up its own inputs, so a hit touches no other entry.
Entries are evicted least-recently-used.

Dataset identity is the dataset ``id`` string: within one cache lifetime an
id must always refer to the same object (enforced), so cached entries can
never silently describe different data.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .dataset import Dataset
from .errors import NumericalError, ValidationError
from .kernel import KernelConfig, _gaussian_of_differences, gram_entries

__all__ = ["GramCache", "CholFactor"]

JITTER_FLOOR = 1e-10
JITTER_CEILING = 1e-6
# pivoted Cholesky stops at this largest residual diagonal (the Gaussian
# kernel's diagonal is 1), and gives way to the dense path past rank
# N // LOW_RANK_MAX_DIVISOR
LOW_RANK_TOL = 1e-13
LOW_RANK_MAX_DIVISOR = 4


def _pivoted_rows(x: np.ndarray, bandwidth_sq: float, max_rank: int) -> np.ndarray | None:
    """Rows of L' (r x N) with L L' equal to the Gaussian Gram of the samples
    ``x`` up to a largest residual diagonal of LOW_RANK_TOL, or None past
    ``max_rank``.

    Each pivot's Gram row is computed from the samples when it is chosen, so
    no N x N Gram is formed.  The row buffer doubles as it fills.
    """
    n = x.size
    resid = np.ones(n)  # the Gaussian kernel's diagonal
    rows = np.empty((min(max_rank, 16), n))
    for k in range(max_rank):
        p = int(np.argmax(resid))
        if resid[p] <= LOW_RANK_TOL:
            return rows[:k].copy()
        if k == rows.shape[0]:
            grown = np.empty((min(max_rank, 2 * k), n))
            grown[:k] = rows
            rows = grown
        col = _gaussian_of_differences(x[p] - x, bandwidth_sq)
        col -= rows[:k, p] @ rows[:k]
        col /= math.sqrt(resid[p])
        rows[k] = col
        resid -= col * col
    return rows if resid.max() <= LOW_RANK_TOL else None


class CholFactor:
    """Factor of (Gram + ridge*I), exposing repeated solves.

    With ``low_rank`` (which needs ridge + jitter > 0), ``matrix`` is the
    r x N rows L' of a low-rank factor L L' of the Gram, solves go through
    the Woodbury identity, and ``rank`` is r.  Otherwise ``matrix`` is the
    Gram itself, factored by a dense Cholesky factorization whose jitter
    escalates on failure, and ``rank`` is None.
    """

    def __init__(self, matrix: np.ndarray, ridge: float, jitter: float, label: str,
                 low_rank: bool = False):
        self.rank = None
        jit = float(jitter)
        if low_rank:
            # lam I + L'L is positive definite for any lam > 0
            lam = ridge + jit
            core = matrix @ matrix.T
            core[np.diag_indices_from(core)] += lam
            self._factor = (matrix, core, lam)
            self.rank = matrix.shape[0]
            self.jitter_used = jit
            return
        # scipy is loaded only by the dense path, which not every run takes
        from scipy.linalg import cho_factor

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
            from scipy.linalg import cho_solve

            return cho_solve(self._factor, rhs, check_finite=False)
        # (L L' + lam I)^-1 R = (R - L (lam I + L'L)^-1 L'R) / lam
        rows, core, lam = self._factor
        return (rhs - rows.T @ np.linalg.solve(core, rows @ rhs)) / lam


class GramCache:
    """LRU cache of Gram matrices, low-rank rows and factors over registered datasets."""

    def __init__(self, capacity: int = 12):
        if capacity < 1:
            raise ValidationError("cache capacity must be >= 1")
        self._capacity = capacity
        self._lock = threading.RLock()
        self._entries: OrderedDict = OrderedDict()
        self._datasets: dict[str, Dataset] = {}

    def _register(self, *datasets: Dataset):
        with self._lock:
            for ds in datasets:
                known = self._datasets.get(ds.id)
                if known is None:
                    self._datasets[ds.id] = ds
                elif known is not ds:
                    raise ValidationError(
                        f"dataset id {ds.id!r} reused for a different dataset; "
                        "give distinct datasets distinct ids"
                    )

    def _get_or_build(self, key, build):
        # an entry may be None (rows past the rank cap), so test membership
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
            entry = build()
            self._entries[key] = entry
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
            return entry

    def gram(self, row: Dataset, col: Dataset, variables: tuple[str, ...],
             kcfg: KernelConfig) -> np.ndarray:
        """Hadamard-product Gram over ``variables`` between two datasets: the
        cached (read-only) Gram for one variable, a new array for several."""
        if not variables:
            raise ValidationError("need at least one variable for a Gram matrix")
        self._register(row, col)

        def build(v):
            out = gram_entries(row.column(v), col.column(v), kcfg)
            out.setflags(write=False)
            return out

        grams = [self._get_or_build(("gram", row.id, col.id, v, kcfg.bandwidth_sq),
                                    lambda v=v: build(v)) for v in variables]
        if len(grams) == 1:
            return grams[0]
        out = grams[0] * grams[1]
        for g in grams[2:]:
            out *= g
        return out

    def rows(self, datasets: Sequence[Dataset], variable: str,
             kcfg: KernelConfig) -> np.ndarray | None:
        """Rows L' (r x total N) of a low-rank factor of the Gram of
        ``variable`` over the samples of ``datasets``, concatenated in the
        given order; None when r would exceed total N / 4."""
        self._register(*datasets)
        key = ("rows", tuple(d.id for d in datasets), variable, kcfg.bandwidth_sq)

        def build():
            x = np.concatenate([d.column(variable) for d in datasets])
            out = _pivoted_rows(x, kcfg.bandwidth_sq, x.size // LOW_RANK_MAX_DIVISOR)
            if out is not None:
                out.setflags(write=False)
            return out

        return self._get_or_build(key, build)

    def factor(self, data: Dataset, variables: tuple[str, ...], kcfg: KernelConfig,
               ridge: float) -> CholFactor:
        """Factor of the joint Gram over ``variables`` plus ridge and JITTER_FLOOR.

        One variable with a positive ridge takes the cached low-rank rows of
        :meth:`rows`, which every ridge shares; only past their rank cap is
        the (cached) Gram factored.
        """
        self._register(data)
        key = ("chol", data.id, tuple(variables), kcfg.bandwidth_sq, ridge)
        label = f"variables {list(variables)!r} of dataset {data.id!r}"

        def build():
            if len(variables) == 1 and ridge > 0:
                rows = self.rows([data], variables[0], kcfg)
                if rows is not None:
                    return CholFactor(rows, ridge, JITTER_FLOOR, label, low_rank=True)
            return CholFactor(self.gram(data, data, variables, kcfg), ridge, JITTER_FLOOR, label)

        return self._get_or_build(key, build)
