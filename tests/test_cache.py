import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from scmdist import Dataset, EstimatorConfig, GramCache, KernelConfig, NumericalError, sample_m1
from scmdist.cache import JITTER_FLOOR, CholFactor
from scmdist.embedding import weight_columns

JITTER = 1e-10


def kernel_columns(x, values, bandwidth_sq):
    return np.column_stack([np.exp(-(x - v) ** 2 / (2 * bandwidth_sq)) for v in values])


@pytest.fixture(scope="module")
def big():
    return sample_m1(3, 1500, 400)


@pytest.mark.parametrize("bandwidth_sq", [0.1, 1.0])
def test_low_rank_solve_matches_dense_cho_solve(big, bandwidth_sq):
    cache = GramCache()
    kcfg = KernelConfig(bandwidth_sq)
    for var in ("X", "Y"):
        x = big.column(var)
        gram = cache.gram(big, big, (var,), kcfg)
        rhs = kernel_columns(x, np.quantile(x, [0.1, 0.5, 0.9]), bandwidth_sq)
        for ridge in (0.1, 0.5, 1.0):
            factor = cache.factor(big, (var,), kcfg, ridge)
            assert isinstance(factor.rank, int) and factor.rank <= big.n // 4
            assert factor.jitter_used == JITTER
            dense = cho_solve(cho_factor(gram + (ridge + JITTER) * np.eye(big.n)), rhs)
            assert np.max(np.abs(factor.solve(rhs) - dense)) <= 1e-10


def test_dense_factor_for_joint_key_zero_ridge_and_high_rank(big):
    cache = GramCache()
    kcfg = KernelConfig(1.0)
    assert cache.factor(big, ("X",), kcfg, 0.5).rank is not None
    assert cache.factor(big, ("Y", "X"), kcfg, 0.5).rank is None
    assert cache.factor(big, ("X",), kcfg, 0.0).rank is None
    # a narrow kernel leaves too many columns for a rank at most N/4
    d = sample_m1(3, 400, 401)
    narrow = KernelConfig(1e-4)
    factor = cache.factor(d, ("X",), narrow, 0.5)
    assert factor.rank is None
    gram = cache.gram(d, d, ("X",), narrow)
    rhs = kernel_columns(d.column("X"), [0.0, 1.0], 1e-4)
    dense = cho_solve(cho_factor(gram + (0.5 + JITTER) * np.eye(d.n)), rhs)
    assert np.max(np.abs(factor.solve(rhs) - dense)) <= 1e-12


def test_zero_ridge_keeps_jitter_escalation_and_its_error():
    # a constant column has the all-ones Gram, singular without jitter
    d = Dataset({"X": np.ones(30)}, id="constant")
    factor = GramCache().factor(d, ("X",), KernelConfig(1.0), 0.0)
    assert factor.rank is None and factor.jitter_used == 1e-10
    # started at zero, the all-ones matrix fails and escalates to the floor
    assert CholFactor(np.ones((30, 30)), 0.0, 0.0, "all ones").jitter_used == 1e-10
    # eigenvalues -5e-10: fails at the floor, factors one x10 step later
    near = np.ones((30, 30)) - 5e-10 * np.eye(30)
    assert CholFactor(near, 0.0, JITTER_FLOOR, "near-singular").jitter_used == 1e-9
    with pytest.raises(NumericalError, match="jitter escalated to 1e-06"):
        CholFactor(-np.eye(4), 0.0, 0.0, "an indefinite matrix")


def test_low_rank_weights_vanish_under_huge_ridge(big):
    cfg = EstimatorConfig(kernel=KernelConfig(0.5), ridge_lambda=1e12)
    cache = GramCache()
    w = weight_columns(big, "X", (), [-1.0, 0.0, 1.0], cfg, cache)
    assert cache.factor(big, ("X",), cfg.kernel, 1e12).rank is not None
    assert np.all(np.abs(w) < 1e-9)


def test_single_variable_factors_share_the_cached_rows_across_ridges(big, monkeypatch):
    import scmdist.cache as cache_mod

    pivots = []
    real = cache_mod._pivoted_rows

    def counting(*args, **kwargs):
        pivots.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_mod, "_pivoted_rows", counting)
    cache = GramCache()
    kcfg = KernelConfig(1.0)
    rows = cache.rows([big], "X", kcfg)
    ranks = {cache.factor(big, ("X",), kcfg, ridge).rank for ridge in (0.1, 0.5, 1.0)}
    assert ranks == {rows.shape[0]}
    assert len(pivots) == 1


def test_rank_capped_factor_factors_the_cached_gram(monkeypatch):
    import scmdist.cache as cache_mod

    builds = []
    real = cache_mod.gram_entries

    def counting(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_mod, "gram_entries", counting)
    d = sample_m1(3, 400, 402)
    cache = GramCache()
    narrow = KernelConfig(1e-4)
    assert cache.rows([d], "X", narrow) is None
    for ridge in (0.1, 0.5):
        assert cache.factor(d, ("X",), narrow, ridge).rank is None
    cache.gram(d, d, ("X",), narrow)
    assert len(builds) == 1


def count_builds(monkeypatch):
    """Keys of the cache entries built from now on, in build order."""
    built = []
    real = GramCache._get_or_build

    def counting(self, key, build):
        def logged():
            built.append(key)
            return build()
        return real(self, key, logged)

    monkeypatch.setattr(GramCache, "_get_or_build", counting)
    return built


def test_a_factor_hit_builds_nothing(monkeypatch):
    built = count_builds(monkeypatch)
    d = sample_m1(3, 200, 403)
    cache = GramCache(capacity=3)
    first = cache.factor(d, ("Y", "X"), KernelConfig(1.0), 0.5)
    assert len(built) == 3  # the Grams of Y and X, then the factor
    assert cache.factor(d, ("Y", "X"), KernelConfig(1.0), 0.5) is first
    assert len(built) == 3


def test_only_single_variable_grams_are_cached():
    d = sample_m1(3, 200, 404)
    cache = GramCache()
    kcfg = KernelConfig(1.0)
    cache.factor(d, ("Y", "X"), kcfg, 0.5)
    joint = cache.gram(d, d, ("Y", "X"), kcfg)
    grams = sorted(k for k in cache._entries if k[0] == "gram")
    assert grams == [("gram", d.id, d.id, v, 1.0) for v in ("X", "Y")]
    product = cache.gram(d, d, ("Y",), kcfg) * cache.gram(d, d, ("X",), kcfg)
    assert joint.tobytes() == product.tobytes()


def test_nested_builds_under_threads_build_each_key_once(monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    built = count_builds(monkeypatch)
    d = sample_m1(3, 200, 405)
    cache = GramCache(capacity=4)
    kcfg = KernelConfig(1.0)
    calls = [lambda: cache.factor(d, ("Y", "X"), kcfg, 0.5),
             lambda: cache.factor(d, ("X", "Y"), kcfg, 0.5),
             lambda: cache.gram(d, d, ("X", "Y"), kcfg)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(calls[k % 3]) for k in range(30)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(k[0] for k in built) == ["chol", "chol", "gram", "gram"]
    assert all(r is results[0] for r in results[0::3])
    assert all(r is results[1] for r in results[1::3])
    assert all(np.array_equal(r, results[2]) for r in results[2::3])
