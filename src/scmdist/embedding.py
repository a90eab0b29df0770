"""Weight-vector estimators for marginal, conditional, and interventional embeddings.

An estimated embedding is represented by sample weights ``w`` such that
``mu_hat(.) = sum_n w[n] * k(v_j^(n), .)`` for the target variable's samples.
Three cases, dispatched from the causal graph by :func:`omega`:

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

All three cases come from :func:`weight_columns`, which solves for every
intervention value of one variable at once; :func:`omega` and the
single-value functions below are one-column views of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Sequence

import numpy as np

from .cache import GramCache
from .dataset import Dataset
from .errors import ValidationError
from .graph import Dag, reachable
from .kernel import KernelConfig, kernel_vector

__all__ = [
    "EstimatorConfig",
    "WeightVector",
    "marginal_weights",
    "conditional_weights",
    "interventional_weights",
    "omega",
    "weight_columns",
]

CASE_MARGINAL = "marginal"
CASE_CONDITIONAL = "conditional"
CASE_INTERVENTIONAL = "interventional"


@dataclass(frozen=True)
class EstimatorConfig:
    """Kernel bandwidth plus regularization and numerical tolerances.

    ``ridge_lambda`` is the total diagonal ridge added to the Gram before the
    symmetric positive-definite solve.  ``jitter`` is the starting diagonal
    jitter (escalated x10 up to 1e-6 if a factorization fails).  ``clamp_tol``
    bounds how negative a squared distance may round before it is treated as
    a numerical failure; ``None`` means 1e-8 * N, chosen per computation.
    """

    kernel: KernelConfig
    ridge_lambda: float = 0.5
    jitter: float = 1e-10
    clamp_tol: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.ridge_lambda) or self.ridge_lambda < 0:
            raise ValidationError(f"ridge_lambda must be >= 0, got {self.ridge_lambda!r}")
        if not np.isfinite(self.jitter) or self.jitter < 0:
            raise ValidationError(f"jitter must be >= 0, got {self.jitter!r}")
        if self.clamp_tol is not None and (not np.isfinite(self.clamp_tol) or self.clamp_tol < 0):
            raise ValidationError(f"clamp_tol must be >= 0 or None, got {self.clamp_tol!r}")


@dataclass(frozen=True)
class WeightVector:
    """Sample weights of an estimated embedding over one dataset."""

    weights: np.ndarray
    dataset_id: str = ""
    target_variable: str = ""
    case_tag: str = ""

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.size == 0:
            raise ValidationError("weight vector is empty")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weight vector contains non-finite entries")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.weights.size


def marginal_weights(n: int, dataset_id: str = "", target: str = "") -> WeightVector:
    """Uniform weights 1/n (empirical mean embedding)."""
    if n < 1:
        raise ValidationError(f"need n >= 1 samples, got {n}")
    return WeightVector(np.full(n, 1.0 / n), dataset_id, target, CASE_MARGINAL)


def weight_columns(data: Dataset, i: str, z: tuple[str, ...], values: Sequence[float],
                   cfg: EstimatorConfig, cache: GramCache | None = None) -> np.ndarray:
    """Weights of do(V_i = v) for every v in ``values``: one column per value.

    With an empty adjustment set ``z`` the columns are the conditional
    weights; otherwise the interventional weights for set ``z``.  All columns
    share one factor lookup and one multi-right-hand-side solve.
    """
    if not z and data.n < 2:
        raise ValidationError("conditional weights need at least 2 samples")
    cache = cache or GramCache()
    factor = cache.factor(data, (i,) + z, cfg.kernel, cfg.ridge_lambda, cfg.jitter)
    x = data.column(i)
    rhs = np.column_stack([kernel_vector(x, v, cfg.kernel) for v in values])
    if z:
        n = data.n
        rhs *= (cache.gram(data, data, z, cfg.kernel) @ np.full(n, 1.0 / n))[:, None]
    w = factor.solve(rhs)
    if not np.all(np.isfinite(w)):
        raise ValidationError("weight vector contains non-finite entries")
    return w


def conditional_weights(data: Dataset, i: str, v_i: float, cfg: EstimatorConfig,
                        target: str = "", cache: GramCache | None = None) -> WeightVector:
    """Ridge-regression weights of the conditional embedding given V_i = v_i."""
    w = weight_columns(data, i, (), [v_i], cfg, cache)
    return WeightVector(w[:, 0], data.id, target, CASE_CONDITIONAL)


def interventional_weights(data: Dataset, i: str, z: AbstractSet[str] | Sequence[str],
                           v_i: float, cfg: EstimatorConfig,
                           target: str = "", cache: GramCache | None = None) -> WeightVector:
    """Adjustment-averaged conditional weights for do(V_i = v_i) with set z.

    Averaging the joint-kernel query vector over the observed z rows is done
    in closed form: u = k_i(v_i) ⊙ (K_z @ 1/N).
    """
    z_vars = tuple(sorted(z))
    if not z_vars:
        raise ValidationError("interventional weights need a non-empty adjustment set")
    if i in z_vars:
        raise ValidationError(f"adjustment set must not contain the intervened variable {i!r}")
    w = weight_columns(data, i, z_vars, [v_i], cfg, cache)
    return WeightVector(w[:, 0], data.id, target, CASE_INTERVENTIONAL)


def omega(g: Dag, data: Dataset, i: str, j: str, v_i: float, cfg: EstimatorConfig,
          cache: GramCache | None = None) -> WeightVector:
    """Embedding weights for the effect of do(V_i = v_i) on V_j, per the graph.

    No directed path from i to j: the intervention cannot affect j, so the
    marginal embedding of j applies.  Otherwise condition on i directly when
    i has no parents, else adjust for the parents of i.
    """
    if i == j:
        raise ValidationError("omega requires two distinct variables")
    g._require(i, j)
    for name in (i, j):
        data.column(name)
    if not reachable(g, i, j):
        return marginal_weights(data.n, data.id, j)
    z = tuple(sorted(g.parents(i)))
    w = weight_columns(data, i, z, [v_i], cfg, cache)
    return WeightVector(w[:, 0], data.id, j, CASE_INTERVENTIONAL if z else CASE_CONDITIONAL)
