"""Closed-form Gaussian reference values and the parametric plug-in estimator.

For 1-D Gaussians p = N(mp, vp), q = N(mq, vq) under the Gaussian kernel with
variance s2, the embedding inner product has the closed form

    <mu_p, mu_q> = sqrt(s2 / (s2 + vp + vq)) * exp(-(mp - mq)^2 / (2 (s2 + vp + vq))),

from which squared embedding distances follow by expansion.  The bivariate
analogue replaces the scalar factors by a determinant and a quadratic form.
These expressions are validated in the test suite against tensor
Gauss-Hermite quadrature of the kernel-mean integrals, which has no sampling
error, before anything else relies on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ValidationError, _real

__all__ = [
    "Gaussian1D",
    "gaussian_embedding_inner",
    "mmd_gaussians",
    "scmd_case1",
    "scmd_case2",
    "mmd_joint_bivariate",
    "plugin_scmd",
    "embedding_distance_to_gaussian",
]


@dataclass(frozen=True)
class Gaussian1D:
    mean: float
    variance: float

    def __post_init__(self):
        _real(self.mean, "mean")
        if _real(self.variance, "variance") <= 0:
            raise ValidationError(f"variance must be positive, got {self.variance!r}")


def _check_bandwidth(s2: float):
    if _real(s2, "bandwidth_sq") <= 0:
        raise ValidationError(f"bandwidth_sq must be positive, got {s2!r}")


def gaussian_embedding_inner(p: Gaussian1D, q: Gaussian1D, bandwidth_sq: float) -> float:
    """Inner product of the kernel mean embeddings of two 1-D Gaussians."""
    _check_bandwidth(bandwidth_sq)
    t = bandwidth_sq + p.variance + q.variance
    d = p.mean - q.mean
    return math.sqrt(bandwidth_sq / t) * math.exp(-(d * d) / (2.0 * t))


def mmd_gaussians(p: Gaussian1D, q: Gaussian1D, bandwidth_sq: float) -> float:
    """Embedding distance between two 1-D Gaussians; zero iff p == q."""
    sq = (gaussian_embedding_inner(p, p, bandwidth_sq)
          + gaussian_embedding_inner(q, q, bandwidth_sq)
          - 2.0 * gaussian_embedding_inner(p, q, bandwidth_sq))
    return math.sqrt(max(sq, 0.0))


def scmd_case1(a: float, b: float, x: float, bandwidth_sq: float) -> float:
    """Closed-form SCMD between the forward linear models with slopes a and b.

    The sum over both ordered pairs reduces to the single embedding distance
    between N(a*x, 1) and N(b*x, 1): intervening on the effect variable
    leaves the (identical) standard-normal cause marginal on both sides.
    """
    _check_bandwidth(bandwidth_sq)
    root = mmd_gaussians(Gaussian1D(0.0, 1.0), Gaussian1D(0.0, 1.0), bandwidth_sq)
    effect = mmd_gaussians(Gaussian1D(a * x, 1.0), Gaussian1D(b * x, 1.0), bandwidth_sq)
    return root + effect


def scmd_case2(a: float, x: float, y: float, bandwidth_sq: float) -> float:
    """Closed-form SCMD between the forward model and its reversed twin.

    Both models share the joint law; the distance is the sum of
    ||mu_N(ax,1) - mu_N(0,1+a^2)|| (intervene on the cause, compare effect)
    and ||mu_N(0,1) - mu_N(ay/(1+a^2), 1/(1+a^2))|| (the mirror pair).
    """
    _check_bandwidth(bandwidth_sq)
    s = 1.0 + a * a
    term_effect = mmd_gaussians(Gaussian1D(a * x, 1.0), Gaussian1D(0.0, s), bandwidth_sq)
    term_cause = mmd_gaussians(Gaussian1D(0.0, 1.0), Gaussian1D(a * y / s, 1.0 / s), bandwidth_sq)
    return term_effect + term_cause


def _gaussian2d_inner(mean_p, cov_p, mean_q, cov_q, s2: float) -> float:
    t = np.asarray(cov_p, dtype=float) + np.asarray(cov_q, dtype=float)
    m = np.eye(2) + t / s2
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    d = np.asarray(mean_p, dtype=float) - np.asarray(mean_q, dtype=float)
    quad = d @ np.linalg.solve(s2 * np.eye(2) + t, d)
    return math.exp(-0.5 * quad) / math.sqrt(det)


def _check_cov(cov) -> np.ndarray:
    c = np.asarray(cov, dtype=float)
    if c.shape != (2, 2):
        raise ValidationError(f"covariance must be 2x2, got shape {c.shape}")
    if not np.allclose(c, c.T):
        raise ValidationError("covariance must be symmetric")
    if np.linalg.det(c) <= 0 or c[0, 0] <= 0 or c[1, 1] <= 0:
        raise ValidationError("covariance must be positive definite")
    return c


def mmd_joint_bivariate(mean_p, cov_p, mean_q, cov_q, bandwidth_sq: float) -> float:
    """Closed-form MMD between two bivariate Gaussians under the isotropic
    Gaussian product kernel with variance ``bandwidth_sq`` per coordinate."""
    _check_bandwidth(bandwidth_sq)
    cp, cq = _check_cov(cov_p), _check_cov(cov_q)
    mp = np.asarray(mean_p, dtype=float)
    mq = np.asarray(mean_q, dtype=float)
    sq = (_gaussian2d_inner(mp, cp, mp, cp, bandwidth_sq)
          + _gaussian2d_inner(mq, cq, mq, cq, bandwidth_sq)
          - 2.0 * _gaussian2d_inner(mp, cp, mq, cq, bandwidth_sq))
    return math.sqrt(max(sq, 0.0))


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """OLS slope/intercept of y on x plus the unbiased residual variance."""
    sxx = float(np.var(x, ddof=1)) * (x.size - 1)
    if sxx <= 0:
        raise ValidationError("degenerate regression: the regressor has zero variance")
    sxy = float(np.dot(x - x.mean(), y - y.mean()))
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    var = float(np.dot(resid, resid)) / (x.size - 2)
    return slope, intercept, var


def plugin_scmd(d1: Dataset, d2: Dataset, case: str, x: float, y: float,
                bandwidth_sq: float, cause: str | None = None,
                effect: str | None = None) -> float:
    """Parametric plug-in SCMD for two-variable linear-Gaussian datasets.

    Fits slope, intercept, and residual variance by least squares under the
    assumed structural direction, then substitutes the fitted Gaussians into
    the closed-form expressions.  ``case`` is "same-direction" (both datasets
    assumed cause -> effect) or "reversed" (the second dataset assumed
    effect -> cause).  By default the first dataset column is the cause.
    """
    _check_bandwidth(bandwidth_sq)
    if case not in ("same-direction", "reversed"):
        raise ValidationError(f"case must be 'same-direction' or 'reversed', got {case!r}")
    names = d1.variable_names
    if len(names) != 2 or len(d2.variable_names) != 2:
        raise ValidationError("plugin_scmd expects two-variable datasets")
    cause = cause or names[0]
    effect = effect or names[1]
    cx1, ey1 = d1.column(cause), d1.column(effect)
    cx2, ey2 = d2.column(cause), d2.column(effect)

    slope1, icept1, var1 = _fit_line(cx1, ey1)
    cond_eff_1 = Gaussian1D(icept1 + slope1 * x, var1)
    marg_cause_1 = Gaussian1D(float(cx1.mean()), float(np.var(cx1, ddof=1)))

    if case == "same-direction":
        slope2, icept2, var2 = _fit_line(cx2, ey2)
        cond_eff_2 = Gaussian1D(icept2 + slope2 * x, var2)
        marg_cause_2 = Gaussian1D(float(cx2.mean()), float(np.var(cx2, ddof=1)))
        term_effect = mmd_gaussians(cond_eff_1, cond_eff_2, bandwidth_sq)
        term_cause = mmd_gaussians(marg_cause_1, marg_cause_2, bandwidth_sq)
    else:
        marg_eff_2 = Gaussian1D(float(ey2.mean()), float(np.var(ey2, ddof=1)))
        slope2, icept2, var2 = _fit_line(ey2, cx2)
        cond_cause_2 = Gaussian1D(icept2 + slope2 * y, var2)
        term_effect = mmd_gaussians(cond_eff_1, marg_eff_2, bandwidth_sq)
        term_cause = mmd_gaussians(marg_cause_1, cond_cause_2, bandwidth_sq)
    return term_effect + term_cause


def embedding_distance_to_gaussian(weights: np.ndarray, samples: np.ndarray,
                                   g: Gaussian1D, bandwidth_sq: float) -> float:
    """RKHS distance between a weighted empirical embedding and mu_N(m,v).

    The cross term uses <k(s, .), mu_g> = sqrt(s2/(s2+v)) exp(-(s-m)^2/(2(s2+v))).
    """
    _check_bandwidth(bandwidth_sq)
    w = np.asarray(weights, dtype=float).ravel()
    s = np.asarray(samples, dtype=float).ravel()
    if w.size != s.size:
        raise ValidationError("weights and samples must have equal length")
    gram = np.exp(-np.subtract.outer(s, s) ** 2 / (2.0 * bandwidth_sq))
    own = w @ (gram @ w)
    t = bandwidth_sq + g.variance
    cross = math.sqrt(bandwidth_sq / t) * float(
        w @ np.exp(-(s - g.mean) ** 2 / (2.0 * t)))
    sq = own - 2.0 * cross + gaussian_embedding_inner(g, g, bandwidth_sq)
    return math.sqrt(max(sq, 0.0))

