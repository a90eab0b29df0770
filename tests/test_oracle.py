import math

import numpy as np
import pytest

from scmdist import (
    Dataset,
    Gaussian1D,
    ValidationError,
    embedding_distance_to_gaussian,
    gaussian_embedding_inner,
    mmd_gaussians,
    mmd_joint_bivariate,
    plugin_scmd,
    sample_m1,
    sample_m2,
    scmd_case1,
    scmd_case2,
)

from oracles import (
    QuadratureNotConverged,
    kernel_mean_quadrature,
    mmd_gaussians_quadrature,
)


def test_mmd_gaussians_zero_iff_equal():
    p = Gaussian1D(0.3, 1.2)
    assert mmd_gaussians(p, p, 0.5) == 0.0
    q = Gaussian1D(0.3, 1.3)
    assert mmd_gaussians(p, q, 0.5) > 0.0
    assert mmd_gaussians(p, q, 0.5) == mmd_gaussians(q, p, 0.5)


def test_case1_matches_displayed_expression():
    # sqrt(2 sqrt(s2/(s2+2)) (1 - exp(-(a-b)^2 x^2 / (2 (s2+2)))))
    for a, b, x, s2 in ((3, 5, 1, 0.1), (2, -1, 0.4, 1.0), (3, 3.5, 2.0, 0.25)):
        display = math.sqrt(
            2 * math.sqrt(s2 / (s2 + 2)) * (1 - math.exp(-((a - b) ** 2) * x * x / (2 * (s2 + 2)))))
        assert scmd_case1(a, b, x, s2) == pytest.approx(display, abs=1e-12)


def test_case1_reference_values():
    assert scmd_case1(3, 5, 1, 0.1) == pytest.approx(0.5177, abs=5e-4)
    assert scmd_case1(3, 5, 1, 1.0) == pytest.approx(0.7496, abs=5e-4)
    assert scmd_case1(3, 3, 1, 0.1) == 0.0


def test_case2_reference_values():
    assert scmd_case2(3, 1, 1, 0.1) == pytest.approx(0.8921, abs=5e-4)
    assert scmd_case2(3, 1, 1, 1.5) == pytest.approx(0.9776, abs=5e-4)


def test_case2_decomposes_into_gaussian_pair_terms():
    a, x, y, s2 = 3.0, 0.7, -0.2, 0.3
    s = 1 + a * a
    t1 = mmd_gaussians(Gaussian1D(a * x, 1.0), Gaussian1D(0.0, s), s2)
    t2 = mmd_gaussians(Gaussian1D(0.0, 1.0), Gaussian1D(a * y / s, 1.0 / s), s2)
    assert scmd_case2(a, x, y, s2) == pytest.approx(t1 + t2, abs=1e-12)


def test_case1_increases_with_slope_shift():
    values = [scmd_case1(3, 3 + shift, 1, 0.5) for shift in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert values[0] == 0.0
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_oracle_values_respect_global_bound():
    bound = math.sqrt(2.0) * 2 * (2 - 1)  # d = 2, kernel bounded by 1
    rng = np.random.default_rng(50)
    for _ in range(50):
        a, b, x, y = rng.normal(scale=3, size=4)
        s2 = float(rng.uniform(0.05, 4.0))
        assert scmd_case1(a, b, x, s2) <= bound
        assert scmd_case2(a, x, y, s2) <= bound


def test_mmd_gaussians_against_monte_carlo():
    # The reference was a binned V-statistic at N=1e5 within 3e-3, but its
    # standard deviation on these draws is up to 2.2e-3, so the check could
    # not tell an error from sampling noise.  Gauss-Hermite quadrature has no
    # sampling error.  The samples are still drawn so that the parameter
    # draws stay the same.
    rng = np.random.default_rng(53)
    for _ in range(5):
        p = Gaussian1D(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 3)))
        q = Gaussian1D(p.mean + float(rng.uniform(0.5, 2)), float(rng.uniform(0.3, 3)))
        s2 = float(rng.uniform(0.25, 2.0))
        rng.normal(p.mean, math.sqrt(p.variance), 100_000)
        rng.normal(q.mean, math.sqrt(q.variance), 100_000)
        assert mmd_gaussians(p, q, s2) == pytest.approx(
            mmd_gaussians_quadrature(p.mean, p.variance, q.mean, q.variance, s2), abs=1e-10)


def test_mmd_joint_bivariate_zero_for_identical():
    cov = [[1.0, 0.4], [0.4, 2.0]]
    assert mmd_joint_bivariate([0, 0], cov, [0, 0], cov, 0.7) == 0.0


def test_mmd_joint_bivariate_case1_published_value():
    # effective bandwidth 0.01 reproduces the published reference number
    c1 = [[1.0, 3.0], [3.0, 10.0]]
    c2 = [[1.0, 5.0], [5.0, 26.0]]
    assert mmd_joint_bivariate([0, 0], c1, [0, 0], c2, 0.01) == pytest.approx(0.0515, abs=1e-3)


def test_mmd_joint_bivariate_against_monte_carlo():
    # Quadrature replaces the N=1e5 binned V-statistic for the same reason as
    # in test_mmd_gaussians_against_monte_carlo.
    rng = np.random.default_rng(54)
    for _ in range(3):
        mean_p = rng.uniform(-1, 1, 2)
        mean_q = mean_p + rng.uniform(0.4, 1.0, 2)
        base = rng.uniform(-0.5, 0.5)
        cov_p = np.array([[1.5, base], [base, 1.0]])
        cov_q = np.array([[1.0, -base], [-base, 2.0]])
        s2 = float(rng.uniform(1.0, 3.0))
        rng.multivariate_normal(mean_p, cov_p, size=100_000)
        rng.multivariate_normal(mean_q, cov_q, size=100_000)
        assert mmd_joint_bivariate(mean_p, cov_p, mean_q, cov_q, s2) == pytest.approx(
            mmd_gaussians_quadrature(mean_p, cov_p, mean_q, cov_q, s2), abs=1e-10)


def test_quadrature_oracle_raises_when_under_resolved():
    # bandwidth 0.01 against variances up to 26: the kernel is far narrower
    # than the node spacing, so n and 2n nodes disagree
    c1 = [[1.0, 3.0], [3.0, 10.0]]
    c2 = [[1.0, 5.0], [5.0, 26.0]]
    with pytest.raises(QuadratureNotConverged):
        mmd_gaussians_quadrature([0, 0], c1, [0, 0], c2, 0.01)
    p, q = Gaussian1D(0.3, 1.2), Gaussian1D(-0.5, 0.4)
    assert kernel_mean_quadrature(p.mean, p.variance, q.mean, q.variance, 0.7) == pytest.approx(
        gaussian_embedding_inner(p, q, 0.7), abs=1e-13)


def test_mmd_joint_bivariate_rejects_bad_covariance():
    good = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValidationError):
        mmd_joint_bivariate([0, 0], [[1.0, 2.0], [2.0, 1.0]], [0, 0], good, 0.5)
    with pytest.raises(ValidationError):
        mmd_joint_bivariate([0, 0], [[1.0, 0.5], [0.4, 1.0]], [0, 0], good, 0.5)


def exact_fit_dataset(slope: float, id: str) -> Dataset:
    """Four points whose OLS fit recovers (slope, intercept 0, resid var 1)
    and whose first column has sample mean 0 and variance 1 exactly."""
    c = math.sqrt(3.0) / 2.0
    u = 1.0 / math.sqrt(2.0)
    x = np.array([-c, -c, c, c])
    e = np.array([-u, u, -u, u])
    return Dataset({"X": x, "Y": slope * x + e}, id=id)


def test_plugin_exact_parameter_recovery():
    d1 = exact_fit_dataset(3.0, "exact-a")
    d2 = exact_fit_dataset(5.0, "exact-b")
    got = plugin_scmd(d1, d2, "same-direction", 1.0, 1.0, 0.1)
    assert got == pytest.approx(scmd_case1(3, 5, 1, 0.1), abs=1e-9)


def test_plugin_reasonable_on_sampled_data():
    d1 = sample_m1(3, 10_000, 60)
    d2 = sample_m1(5, 10_000, 61)
    d3 = sample_m2(3, 10_000, 62)
    assert plugin_scmd(d1, d2, "same-direction", 1.0, 1.0, 0.1) == pytest.approx(0.525, abs=0.02)
    assert plugin_scmd(d1, d3, "reversed", 1.0, 1.0, 0.1) == pytest.approx(0.893, abs=0.02)


def test_plugin_degenerate_regressor():
    flat = Dataset({"X": np.ones(10), "Y": np.arange(10.0)}, id="flat")
    other = exact_fit_dataset(2.0, "ok")
    with pytest.raises(ValidationError):
        plugin_scmd(flat, other, "same-direction", 1.0, 1.0, 0.1)


def test_plugin_case_validation():
    d = exact_fit_dataset(1.0, "v")
    with pytest.raises(ValidationError):
        plugin_scmd(d, d, "sideways", 1.0, 1.0, 0.1)


def test_embedding_distance_to_gaussian_consistency():
    rng = np.random.default_rng(63)
    samples = rng.normal(0.5, 1.0, 4000)
    w = np.full(4000, 1.0 / 4000)
    d = embedding_distance_to_gaussian(w, samples, Gaussian1D(0.5, 1.0), 0.5)
    assert d < 0.05
    far = embedding_distance_to_gaussian(w, samples, Gaussian1D(3.0, 1.0), 0.5)
    assert far > 10 * d


def test_gaussian_inner_symmetry():
    p = Gaussian1D(0.1, 0.5)
    q = Gaussian1D(-1.0, 2.0)
    assert gaussian_embedding_inner(p, q, 0.8) == gaussian_embedding_inner(q, p, 0.8)


def test_gaussian1d_validation():
    with pytest.raises(ValidationError):
        Gaussian1D(0.0, 0.0)
    with pytest.raises(ValidationError):
        Gaussian1D(np.nan, 1.0)
