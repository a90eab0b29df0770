import dataclasses
import threading

import numpy as np
import pytest

from scmdist import (
    Dag,
    Dataset,
    EstimatorConfig,
    Gaussian1D,
    GramCache,
    KernelConfig,
    ValidationError,
    e_scmd,
    embedding_distance_to_gaussian,
    gaussian_kernel,
    mimd,
    p_scmd,
    sample_m1,
    sample_scm,
    scmd,
    LinearGaussianScm,
)
from scmdist.cache import JITTER_FLOOR, _CallRows
from scmdist.distance import _Side
from scmdist.embedding import weight_columns


def small_cfg(bandwidth_sq=0.5, lam=0.1):
    return EstimatorConfig(kernel=KernelConfig(bandwidth_sq), ridge_lambda=lam)


def test_marginal_embedding_norm_matches_double_sum():
    rng = np.random.default_rng(20)
    col = rng.normal(size=20)
    cfg = KernelConfig(0.7)
    w = np.full(20, 1.0 / 20)
    direct = 0.0
    for s in range(20):
        for t in range(20):
            direct += w[s] * w[t] * gaussian_kernel(col[s], col[t], cfg)
    gram = np.exp(-np.subtract.outer(col, col) ** 2 / (2 * 0.7))
    assert w @ gram @ w == pytest.approx(direct, rel=1e-12)


def test_conditional_weights_vanish_under_huge_ridge():
    d = sample_m1(3, 100, 0)
    cfg = EstimatorConfig(kernel=KernelConfig(0.5), ridge_lambda=1e12)
    w = weight_columns(d, "X", (), [1.0], cfg)[:, 0]
    assert np.all(np.abs(w) < 1e-9)


def test_conditional_weights_match_naive_ridge_solve():
    rng = np.random.default_rng(21)
    d = Dataset({"X": rng.normal(size=50), "Y": rng.normal(size=50)}, id="krr")
    cfg = small_cfg(0.4, 0.3)
    w = weight_columns(d, "X", (), [0.2], cfg)[:, 0]
    # independent assembly: explicit matrix, generic LU solve
    x = d.column("X")
    k_mat = np.exp(-np.subtract.outer(x, x) ** 2 / (2 * 0.4))
    k_vec = np.exp(-((x - 0.2) ** 2) / (2 * 0.4))
    naive = np.linalg.solve(k_mat + (0.3 + JITTER_FLOOR) * np.eye(50), k_vec)
    np.testing.assert_allclose(w, naive, atol=1e-10)
    # and the induced prediction of f = k(y0, .) agrees
    y = d.column("Y")
    y0 = 0.7
    f_vals = np.exp(-((y - y0) ** 2) / (2 * 0.4))
    assert w @ f_vals == pytest.approx(naive @ f_vals, abs=1e-10)


def test_conditional_embedding_mean_recovers_linear_effect():
    # forward model with slope 3: E[Y | X=1] = 3, weighted-sample mean within 0.1
    d = sample_m1(3, 10_000, 7)
    cfg = EstimatorConfig(kernel=KernelConfig(0.1), ridge_lambda=0.05)
    w = weight_columns(d, "X", (), [1.0], cfg)[:, 0]
    assert w @ d.column("Y") == pytest.approx(3.0, abs=0.1)


def test_interventional_constant_adjustment_column_degenerates():
    rng = np.random.default_rng(22)
    d = Dataset({"X": rng.normal(size=60), "C": np.full(60, 2.0),
                 "Y": rng.normal(size=60)}, id="const-z")
    cfg = small_cfg()
    w_int = weight_columns(d, "X", ("C",), [0.5], cfg)[:, 0]
    w_cond = weight_columns(d, "X", (), [0.5], cfg)[:, 0]
    np.testing.assert_allclose(w_int, w_cond, atol=1e-12)


def test_interventional_recovers_chain_causal_effect():
    dag = Dag(["Z", "X", "Y"], [("Z", "X"), ("X", "Y")])
    model = LinearGaussianScm(dag, {("Z", "X"): 1.0, ("X", "Y"): 2.0},
                              {"Z": 1.0, "X": 1.0, "Y": 1.0})
    d = sample_scm(model, 10_000, 11)
    cfg = EstimatorConfig(kernel=KernelConfig(0.5), ridge_lambda=0.05)
    w = weight_columns(d, "X", ("Z",), [1.0], cfg)[:, 0]
    assert w @ d.column("Y") == pytest.approx(2.0, abs=0.1)


def test_interventional_equals_average_of_per_sample_conditionals():
    rng = np.random.default_rng(23)
    n = 30
    d = Dataset({"X": rng.normal(size=n), "Z": rng.normal(size=n),
                 "Y": rng.normal(size=n)}, id="avg")
    cfg = small_cfg(0.6, 0.2)
    w = weight_columns(d, "X", ("Z",), [0.4], cfg)[:, 0]

    x, z = d.column("X"), d.column("Z")
    kx = np.exp(-np.subtract.outer(x, x) ** 2 / (2 * 0.6))
    kz = np.exp(-np.subtract.outer(z, z) ** 2 / (2 * 0.6))
    joint = kx * kz
    solve_mat = joint + (0.2 + JITTER_FLOOR) * np.eye(n)
    acc = np.zeros(n)
    for sample in range(n):
        query = np.exp(-((x - 0.4) ** 2) / (2 * 0.6)) * kz[:, sample]
        acc += np.linalg.solve(solve_mat, query)
    np.testing.assert_allclose(w, acc / n, atol=1e-10)


def _side_column(g, d, i, j, v, cfg):
    """The planner's weight column of do(V_i = v) on V_j for one side."""
    values = {name: [v] for name in d.variable_names}
    rows = _CallRows(GramCache(), [d], cfg.kernel)
    stack, cols = _Side(g, d, values, [(i, j)], cfg, rows).stacks[j]
    return stack[:, cols[0, 0]]


def test_omega_dispatch_matches_graph_cases():
    cfg = small_cfg()
    fwd = Dag(["X", "Y"], [("X", "Y")])
    d = sample_m1(3, 80, 1)
    # Y does not reach X: the marginal case
    assert np.array_equal(_side_column(fwd, d, "Y", "X", 0.0, cfg), np.full(80, 1.0 / 80))
    # X reaches Y and has no parents: the conditional case
    assert np.array_equal(_side_column(fwd, d, "X", "Y", 0.0, cfg),
                          weight_columns(d, "X", (), [0.0], cfg)[:, 0])

    chain = Dag(["Z", "X", "Y"], [("Z", "X"), ("X", "Y")])
    model = LinearGaussianScm(chain, {("Z", "X"): 1.0, ("X", "Y"): 1.0},
                              {"Z": 1.0, "X": 1.0, "Y": 1.0})
    dc = sample_scm(model, 80, 2)
    # X reaches Y and has the parent Z: the interventional case
    assert np.array_equal(_side_column(chain, dc, "X", "Y", 0.0, cfg),
                          weight_columns(dc, "X", ("Z",), [0.0], cfg)[:, 0])


def test_omega_deterministic():
    cfg = small_cfg()
    d = sample_m1(3, 200, 3)
    w1 = weight_columns(d, "X", (), [1.0], cfg)
    w2 = weight_columns(d, "X", (), [1.0], cfg, cache=GramCache())
    assert np.array_equal(w1, w2)


def test_omega_rejects_same_variable():
    cfg = small_cfg()
    g = Dag(["X", "Y"], [("X", "Y")])
    d = sample_m1(3, 50, 4)
    with pytest.raises(ValidationError):
        mimd(g, d, g, d, "X", "X", 1.0, 1.0, cfg)


def test_conditional_estimate_converges_to_closed_form():
    # median distance to the closed-form conditional embedding is
    # non-increasing over growing sample sizes
    cfg = EstimatorConfig(kernel=KernelConfig(0.5), ridge_lambda=0.1)
    target = Gaussian1D(3.0, 1.0)  # P(Y | X=1) under slope 3
    medians = []
    for n in (250, 1000, 4000):
        dists = []
        for seed in range(20):
            d = sample_m1(3, n, 100 * seed + n)
            w = weight_columns(d, "X", (), [1.0], cfg)[:, 0]
            dists.append(embedding_distance_to_gaussian(
                w, d.column("Y"), target, 0.5))
        medians.append(float(np.median(dists)))
    assert medians[0] >= medians[1] >= medians[2]


def test_estimator_config_validation():
    k = KernelConfig(1.0)
    with pytest.raises(ValidationError):
        EstimatorConfig(kernel=k, ridge_lambda=-1.0)
    with pytest.raises(ValidationError, match="ridge_lambda"):
        EstimatorConfig(k, None)
    with pytest.raises(ValidationError, match="ridge_lambda must be finite, got nan"):
        EstimatorConfig(k, float("nan"))
    for bad in (0.1, None, EstimatorConfig(k)):
        with pytest.raises(ValidationError, match="kernel must be a KernelConfig"):
            EstimatorConfig(bad)
    # every estimator refuses a missing or wrong-typed config by name
    fwd = Dag(["X", "Y"], [("X", "Y")])
    d = sample_m1(3, 50, 5)
    unit = {"X": 1.0, "Y": 1.0}
    calls = [lambda cfg: scmd(fwd, d, fwd, d, unit, unit, cfg),
             lambda cfg: p_scmd(fwd, d, fwd, d, "Y", unit, unit, cfg),
             lambda cfg: mimd(fwd, d, fwd, d, "X", "Y", 1.0, 1.0, cfg),
             lambda cfg: e_scmd(fwd, d, fwd, d, cfg=cfg)]
    for call in calls:
        for cfg in (None, k):
            with pytest.raises(ValidationError, match="cfg must be an EstimatorConfig"):
                call(cfg)


def test_estimator_config_is_kernel_and_ridge_only():
    assert [f.name for f in dataclasses.fields(EstimatorConfig)] == ["kernel", "ridge_lambda"]
    for knob in ("jitter", "clamp_tol"):
        with pytest.raises(TypeError):
            EstimatorConfig(kernel=KernelConfig(1.0), **{knob: 1e-10})


def count_pivotings(monkeypatch):
    """One entry per pivoted-Cholesky build from now on."""
    import scmdist.cache as cache_mod

    calls = []
    real = cache_mod._pivoted_rows

    def counting(*args, **kwargs):
        calls.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_mod, "_pivoted_rows", counting)
    return calls


def test_cache_builds_each_gram_once_under_threads(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    calls = count_pivotings(monkeypatch)
    d = sample_m1(3, 200, 90)
    cache = GramCache()
    kcfg = KernelConfig(0.5)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: cache.rows([d], "X", kcfg), range(16)))
    assert len(calls) == 1
    assert results[0] is not None
    assert all(r is results[0] for r in results)


def test_cache_evicts_least_recently_used(monkeypatch):
    builds = count_pivotings(monkeypatch)
    d = sample_m1(3, 200, 91)
    cache = GramCache(capacity=2)
    kcfg = KernelConfig(0.5)
    first = cache.rows([d], "X", kcfg)
    cache.rows([d], "Y", kcfg)
    cache.rows([d], "X", KernelConfig(0.25))  # evicts the oldest entry
    assert len(builds) == 3
    again = cache.rows([d], "X", kcfg)
    assert len(builds) == 4
    assert first is not None
    assert again is not first and np.array_equal(first, again)


def test_cache_hit_refreshes_recency(monkeypatch):
    builds = count_pivotings(monkeypatch)
    rng = np.random.default_rng(92)
    d = Dataset({v: rng.normal(size=20) for v in ("A", "B", "C")}, id="lru")
    cache = GramCache(capacity=2)
    kcfg = KernelConfig(0.5)
    cache.rows([d], "A", kcfg)
    cache.rows([d], "B", kcfg)
    cache.rows([d], "A", kcfg)  # a hit: A becomes the most recent
    cache.rows([d], "C", kcfg)  # evicts B, the least recently used
    assert len(builds) == 3
    cache.rows([d], "A", kcfg)
    assert len(builds) == 3
    cache.rows([d], "B", kcfg)
    assert len(builds) == 4
