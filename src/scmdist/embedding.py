"""Weight-vector estimators for marginal, conditional, and interventional embeddings.

An estimated embedding is represented by sample weights ``w`` such that
``mu_hat(.) = sum_n w[n] * k(v_j^(n), .)`` for the target variable's samples.
Three cases, chosen from the causal graph by the planner in
:mod:`scmdist.distance` (``_Side``):

  marginal        w = (1/N, ..., 1/N)
  conditional     w = (K_i + ridge*I)^-1 k_i(v)
  interventional  w = (K_iZ + ridge*I)^-1 u,
                  u = k_i(v) ⊙ (K_Z @ 1/N)   (adjustment set Z = parents of i)

where joint kernels over (i, Z) are Hadamard products of per-variable Gaussian
Grams.  ``ridge`` is the total diagonal regularization ``ridge_lambda``, not
scaled by N: of the three readings compared against the published Table-1
estimates (ridge lambda, ridge N*lambda, and N*lambda with the weights
renormalized to sum to one), only the first matches them at the published
experiment values (0.1 to 1); scaling the ridge by N flattens the
conditional weights.

The conditional and interventional weights come from :func:`weight_columns`,
which solves for every intervention value of one variable at once; the
marginal weights need no solve.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cache import JITTER_FLOOR, CholFactor, GramCache, _CallRows, _hadamard
from .dataset import Dataset
from .errors import ValidationError, _real
from .kernel import KernelConfig, gram_entries, kernel_vector

__all__ = ["EstimatorConfig", "weight_columns"]


@dataclass(frozen=True)
class EstimatorConfig:
    """The estimator's two parameters: the kernel bandwidth and the ridge, a float.

    ``ridge_lambda`` is the total diagonal ridge added to the Gram before the
    symmetric positive-definite solve.  The numerical safeguards are fixed,
    not configured: a jitter of 1e-10 is added to the diagonal as well (a
    dense Cholesky factorization that fails escalates it x10 up to 1e-6),
    and a squared distance may round as low as -1e-8 * max(N1, N2) before
    it counts as a numerical failure (see :mod:`scmdist.distance`).
    """

    kernel: KernelConfig
    ridge_lambda: float = 0.5

    def __post_init__(self):
        if not isinstance(self.kernel, KernelConfig):
            raise ValidationError(f"kernel must be a KernelConfig, got {self.kernel!r}")
        lam = _real(self.ridge_lambda, "ridge_lambda")
        if lam < 0:
            raise ValidationError(f"ridge_lambda must be >= 0, got {self.ridge_lambda!r}")
        object.__setattr__(self, "ridge_lambda", lam)


def weight_columns(data: Dataset, i: str, z: tuple[str, ...], values: Sequence[float],
                   cfg: EstimatorConfig, cache: GramCache | None = None) -> np.ndarray:
    """Weights of do(V_i = v) for every v in ``values``: one column per value.

    With an empty adjustment set ``z`` the columns are the conditional
    weights; otherwise the interventional weights for set ``z``.  All columns
    share one factor and one multi-right-hand-side solve.
    """
    rows = _CallRows(cache or GramCache(), [data], cfg.kernel)
    return _side_weights(data, {i: (z, values)}, cfg, rows)[i]


def _side_weights(data: Dataset, keys: Mapping[str, tuple[tuple[str, ...], Sequence[float]]],
                  cfg: EstimatorConfig, rows: _CallRows) -> dict[str, np.ndarray]:
    """:func:`weight_columns` of one dataset for each variable i of ``keys``
    (i -> adjustment set, values).  A key with an empty adjustment set takes
    the low-rank factor of ``rows``, if any.  The other keys build each
    per-variable Gram they read once, form each joint Gram and K_Z @ 1/N
    from them in one step, and drop each after the last key that reads it."""
    kcfg, ridge, n = cfg.kernel, cfg.ridge_lambda, data.n
    low = {i: rows.factor(data, i, ridge) for i, (z, _) in keys.items() if not z}
    dense = [i for i in keys if low.get(i) is None]
    uses = Counter(v for i in dense for v in (i,) + keys[i][0])
    grams, out = {}, {}
    for i, (z, values) in keys.items():
        if not z and n < 2:
            raise ValidationError("conditional weights need at least 2 samples")
        rhs = np.column_stack([kernel_vector(data.column(i), v, kcfg) for v in values])
        factor = low.get(i)
        if factor is None:
            for v in (i,) + z:
                if v not in grams:
                    grams[v] = gram_entries(data.column(v), data.column(v), kcfg)
                uses[v] -= 1
            held = [grams[v] if uses[v] else grams.pop(v) for v in (i,) + z]
            if z:
                rhs *= (_hadamard(held[1:]) @ np.full(n, 1.0 / n))[:, None]
            elif uses[i]:
                held = [held[0].copy()]  # the factor overwrites the Gram it takes
            factor = CholFactor(_hadamard(held), ridge, JITTER_FLOOR,
                                f"variables {[i, *z]!r} of dataset {data.id!r}")
            del held
        out[i] = factor.solve(rhs)
        del factor  # a dense factor holds N x N floats
        if not np.all(np.isfinite(out[i])):
            raise ValidationError("weight vector contains non-finite entries")
    return out
