"""Memoized low-rank Gram rows, and dense Cholesky factors.

The Gaussian Gram of one variable is numerically low-rank: pivoted Cholesky
(Harbrecht, Peters & Schneider 2012) gives L (N x r) with L L' equal to it
up to a residual diagonal of 1e-13, in about N r^2 flops and 8 N r bytes.
:meth:`GramCache.rows` caches these rows over the concatenated samples of
one or more datasets, and a call pivots each variable once
(:class:`_CallRows`), over the distinct sample columns of all its datasets.
Each dataset's column block of those rows is a low-rank factor of its own Gram
to the same residual, so one set of rows serves both the distances' quadratic
and cross forms and the solves: with a positive ridge and a block rank within
that dataset's N/4, a single variable's factor is built per call on a view of
that block (its r x r core costs N r^2 flops, far less than the pivot) and
solves through the Woodbury identity (Fine & Scheinberg 2001) in 4 N r flops
per right-hand side.  Joint Grams over several variables, a zero ridge (the
Woodbury identity divides by it) and ranks above N/4 take a dense N^3/3
Cholesky factor of the entrywise product of per-variable Grams
(:func:`_hadamard`), one per key in :mod:`scmdist.embedding`.  Factors and
N x N arrays are never cache entries.  Every factor adds JITTER_FLOOR.

Entries are keyed by the SHA-256 digests of the sample columns they were
built from, never by dataset ids, which are labels only: datasets with equal
samples share entries, and the cache holds no reference to any dataset.

The package runs serially.  One lock per cache still serializes lookups and
builds, so a cache shared across the caller's own threads builds each key
once and every hit refreshes its recency; eviction is least-recently-used.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .dataset import Dataset
from .errors import NumericalError, _count
from .kernel import KernelConfig, _gaussian_of_differences

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

    Each pivot's Gram row is computed from the samples straight into its slot
    of the row buffer when it is chosen, so no N x N Gram is formed.  The
    buffer doubles in place as it fills and is trimmed in place at the end.
    """
    n = x.size
    resid = np.ones(n)  # the Gaussian kernel's diagonal
    rows = np.empty((min(max_rank, 16), n))
    for k in range(max_rank):
        p = int(np.argmax(resid))
        # ``del col`` below leaves no view of the buffer alive at a resize.
        # numpy's reference check would also count the frame's locals dict
        # that a trace or profile hook holds, and refuse, so it is off.
        if resid[p] <= LOW_RANK_TOL:
            rows.resize((k, n), refcheck=False)
            return rows
        if k == rows.shape[0]:
            rows.resize((min(max_rank, 2 * k), n), refcheck=False)
        col = _gaussian_of_differences(np.subtract(x[p], x, out=rows[k]), bandwidth_sq)
        col -= rows[:k, p] @ rows[:k]
        col /= math.sqrt(resid[p])
        resid -= col * col
        del col
    return rows if resid.max() <= LOW_RANK_TOL else None


class CholFactor:
    """Factor of (Gram + ridge*I), exposing repeated solves.

    With ``low_rank`` (which needs ridge + jitter > 0), ``matrix`` is the
    r x N rows L' of a low-rank factor L L' of the Gram, solves go through
    the Woodbury identity, and ``rank`` is r.  Otherwise ``matrix`` is the
    symmetric Gram itself, which the factor takes over: the ridge is added
    to its diagonal and it is factored in place by a dense Cholesky
    factorization whose jitter escalates on failure, and ``rank`` is None.
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

        diagonal = matrix.diagonal().copy()
        while True:
            matrix[np.diag_indices_from(matrix)] = diagonal + (ridge + jit)
            try:
                # matrix.T is the symmetric matrix in Fortran order: LAPACK
                # factors it in place, over matrix's upper triangle
                self._factor = cho_factor(matrix.T, lower=True, overwrite_a=True,
                                          check_finite=False)
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
                for k in range(matrix.shape[0]):  # restore the upper triangle
                    matrix[k, k + 1:] = matrix[k + 1:, k]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.rank is None:
            from scipy.linalg import cho_solve

            return cho_solve(self._factor, rhs, check_finite=False)
        # (L L' + lam I)^-1 R = (R - L (lam I + L'L)^-1 L'R) / lam
        rows, core, lam = self._factor
        return (rhs - rows.T @ np.linalg.solve(core, rows @ rhs)) / lam


def _hadamard(grams: Sequence[np.ndarray]) -> np.ndarray:
    """Entrywise product of Grams in order: a new array, or the one Gram."""
    out = grams[0] if len(grams) == 1 else grams[0] * grams[1]
    for g in grams[2:]:
        out *= g
    return out


class GramCache:
    """LRU cache of pivoted Gram rows, or None past the cap, by sample digests."""

    def __init__(self, capacity: int = 12):
        self._capacity = _count(capacity, "cache capacity", 1)
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()

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

    def rows(self, datasets: Sequence[Dataset], variable: str,
             kcfg: KernelConfig) -> np.ndarray | None:
        """Rows L' (r x total N) of a low-rank factor of the Gram of
        ``variable`` over the samples of ``datasets``, concatenated in the
        given order; None when r would exceed total N / 4."""
        key = ("rows", tuple(d._digest(variable) for d in datasets), kcfg.bandwidth_sq)

        def build():
            x = np.concatenate([d.column(variable) for d in datasets])
            out = _pivoted_rows(x, kcfg.bandwidth_sq, x.size // LOW_RANK_MAX_DIVISOR)
            if out is not None:
                out.setflags(write=False)
            return out

        return self._get_or_build(key, build)


class _CallRows:
    """One pivoted factor per variable for one call over ``datasets``.

    A variable's owners are its distinct sample columns by digest, in
    ``Dataset._order_key`` order; equal samples share one block and rows.
    Its first use looks up ``cache.rows(owners, variable)``, and the call
    reads only that lookup, so no eviction makes it pivot again.
    """

    def __init__(self, cache: GramCache, datasets: Sequence[Dataset], kcfg: KernelConfig):
        self._cache, self._kcfg = cache, kcfg
        self._datasets = sorted(datasets, key=Dataset._order_key)
        self._lookups: dict = {}

    def _lookup(self, variable: str):
        """(column digest -> its slice of the rows, rows or None)."""
        if variable not in self._lookups:
            owners, spans, at = [], {}, 0
            for d in self._datasets:
                if d._digest(variable) not in spans:
                    owners.append(d)
                    spans[d._digest(variable)] = slice(at, at + d.n)
                    at += d.n
            self._lookups[variable] = (spans, self._cache.rows(owners, variable, self._kcfg))
        return self._lookups[variable]

    def block(self, data: Dataset, variable: str) -> np.ndarray | None:
        """``data``'s columns of the rows (a view): a low-rank factor of its
        own Gram.  None past the rows' rank cap."""
        spans, rows = self._lookup(variable)
        return None if rows is None else rows[:, spans[data._digest(variable)]]

    def factor(self, data: Dataset, variable: str, ridge: float) -> CholFactor | None:
        """A Woodbury factor of ``data``'s Gram plus ridge, built for this call
        on a view of its :meth:`block`; None (the dense path) for a zero
        ridge, past the rank cap or a rank above data.n / 4."""
        if ridge <= 0:
            return None
        block = self.block(data, variable)
        if block is None or block.shape[0] > data.n // LOW_RANK_MAX_DIVISOR:
            return None
        return CholFactor(block, ridge, JITTER_FLOOR,
                          f"variables {[variable]!r} of dataset {data.id!r}", low_rank=True)
