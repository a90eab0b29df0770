import tracemalloc

import numpy as np
import pytest

from scmdist import (
    KernelConfig,
    ValidationError,
    gaussian_kernel,
    median_heuristic,
)
from scmdist.cache import _hadamard
from scmdist.kernel import MEDIAN_HEURISTIC_MAX_POINTS, _first_failing, gram_entries

from oracles import median_heuristic_outer


def test_kernel_identity():
    assert gaussian_kernel(1.0, 1.0, KernelConfig(0.1)) == 1.0


def test_kernel_direct_substitution():
    assert gaussian_kernel(0.0, 2.0, KernelConfig(2.0)) == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_kernel_symmetry_random_pairs():
    rng = np.random.default_rng(0)
    cfg = KernelConfig(0.7)
    for _ in range(100):
        x, y = rng.normal(size=2)
        assert gaussian_kernel(x, y, cfg) == gaussian_kernel(y, x, cfg)


def test_kernel_bounded_and_self_one():
    rng = np.random.default_rng(1)
    cfg = KernelConfig(0.3)
    for x in rng.normal(scale=10, size=50):
        assert gaussian_kernel(x, x, cfg) == 1.0
    for x, y in rng.normal(scale=2, size=(50, 2)):
        assert 0.0 < gaussian_kernel(x, y, cfg) <= 1.0


def test_kernel_rejects_non_finite():
    with pytest.raises(ValidationError):
        gaussian_kernel(np.nan, 0.0, KernelConfig(1.0))
    with pytest.raises(ValidationError):
        gaussian_kernel(0.0, np.inf, KernelConfig(1.0))


def test_bandwidth_must_be_positive():
    with pytest.raises(ValidationError):
        KernelConfig(0.0)
    with pytest.raises(ValidationError):
        KernelConfig(-1.0)
    with pytest.raises(ValidationError, match="bandwidth_sq"):
        KernelConfig("1")


def test_gram_same_column_unit_diagonal_symmetric():
    col = [0.0, 1.0, 2.5]
    g = gram_entries(col, col, KernelConfig(0.5))
    assert np.allclose(np.diag(g), 1.0)
    assert np.array_equal(g, g.T)


def test_gram_constant_column_all_ones():
    col = [2.0] * 5
    g = gram_entries(col, col, KernelConfig(0.5))
    assert np.array_equal(g, np.ones((5, 5)))


def test_gram_entries_match_scalar_kernel():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=6), rng.normal(size=4)
    cfg = KernelConfig(0.9)
    g = gram_entries(a, b, cfg)
    for s in range(6):
        for t in range(4):
            assert g[s, t] == pytest.approx(gaussian_kernel(a[s], b[t], cfg), abs=1e-15)


def test_gram_psd_random_column():
    rng = np.random.default_rng(3)
    col = rng.normal(size=50)
    g = gram_entries(col, col, KernelConfig(0.2))
    eigs = np.linalg.eigvalsh(g)
    assert eigs.min() >= -1e-8 * 50


# joint Grams are Hadamard products of per-variable Grams

def test_hadamard_with_all_ones_unchanged():
    rng = np.random.default_rng(4)
    x = rng.normal(size=8)
    cfg = KernelConfig(0.4)
    ones = gram_entries(np.ones(8), np.ones(8), cfg)
    assert np.array_equal(_hadamard([gram_entries(x, x, cfg), ones]), gram_entries(x, x, cfg))


def test_hadamard_of_psd_is_psd():
    rng = np.random.default_rng(5)
    # same samples on both sides so each factor is PSD
    a, b = rng.normal(size=30), rng.normal(size=30)
    cfg = KernelConfig(0.3)
    prod = _hadamard([gram_entries(a, a, cfg), gram_entries(b, b, cfg)])
    assert np.linalg.eigvalsh(prod).min() >= -1e-8 * 30


def test_median_heuristic_single_pair():
    assert median_heuristic([0.0, 2.0]).bandwidth_sq == pytest.approx(4.0)


def test_median_heuristic_three_points():
    # squared diffs {1, 4, 1} -> median 1
    assert median_heuristic([0.0, 1.0, 2.0]).bandwidth_sq == pytest.approx(1.0)


def test_median_heuristic_matches_all_pairs_brute_force():
    rng = np.random.default_rng(6)
    col = rng.normal(size=500)
    got = median_heuristic(col).bandwidth_sq
    diffs = [
        (col[s] - col[t]) ** 2
        for s in range(col.size) for t in range(s + 1, col.size)
    ]
    assert got == pytest.approx(float(np.median(diffs)), rel=1e-12)


def test_median_heuristic_identical_values_error():
    with pytest.raises(ValidationError):
        median_heuristic([3.0, 3.0, 3.0])
    with pytest.raises(ValidationError):
        median_heuristic([1.0])


def test_median_heuristic_zero_median_error_counts_the_equal_pairs():
    # the values are not all identical, but 319600 of the 499500 pairs are equal
    col = np.concatenate([np.zeros(800), np.arange(1.0, 201.0)])
    with pytest.raises(ValidationError, match=r"median squared difference over 499500 "
                       r"subsampled pairs is 0 \(319600 of them are pairs of equal values\)"):
        median_heuristic(col)


def test_median_heuristic_subsample_deterministic():
    rng = np.random.default_rng(7)
    col = rng.normal(size=5000)
    assert median_heuristic(col).bandwidth_sq == median_heuristic(col).bandwidth_sq


def test_median_heuristic_bitwise_equals_outer_difference_formula():
    rng = np.random.default_rng(8)
    cols = [rng.normal(size=n) for n in (2, 3, 7, 100, 999, 1000, 1001, 5000)]
    # ties: few distinct values, so many equal squared differences
    cols += [rng.integers(0, 4, size=n).astype(float) for n in (5, 200, 2500)]
    cols.append(np.round(rng.normal(size=1500), 1))
    # odd pair count: 998 * 997 / 2 = 497503
    cols.append(rng.normal(size=998))
    # differences in {0, 1, 2}: both middle ranks inside the run of 1s
    cols.append(rng.integers(0, 3, size=1000).astype(float))
    # a large offset with a small spread
    cols.append(1e8 + rng.normal(size=1000))
    cols.append(rng.standard_cauchy(size=1000))
    cols.append(-3.0 - rng.exponential(size=700))
    for col in cols:
        got = median_heuristic(col).bandwidth_sq
        assert got == median_heuristic_outer(col, MEDIAN_HEURISTIC_MAX_POINTS)


def test_first_failing_counts_the_computed_differences():
    # rows from -1e8 round their differences to the points near 1 by up to
    # 7e-9, so a binary search for b + t alone misplaces many boundaries
    rng = np.random.default_rng(10)
    b = np.sort(np.concatenate([-1e8 - rng.random(60), 1.0 - 1e-12 * np.arange(60),
                                1.0 + 1e-12 * np.arange(60), rng.normal(size=60),
                                np.repeat([2.0, 3.0], 30)]))
    diff = b[None, :] - b[:, None]
    later = np.arange(b.size) > np.arange(b.size)[:, None]
    for t in (0.0, 1e8 + 1.0, 1e8 + 2.0, 1.0, 2e-11, 1e-3, np.inf, *rng.choice(diff[later], 20)):
        for keep in (np.less, np.less_equal):
            counts = _first_failing(b, t, keep) - np.arange(1, b.size + 1)
            assert np.array_equal(counts, (keep(diff, t) & later).sum(axis=1))


def test_median_heuristic_peak_memory_stays_below_2_mb():
    col = np.random.default_rng(9).normal(size=5000)
    median_heuristic(col)
    tracemalloc.start()
    try:
        median_heuristic(col)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all 499500 squared differences of the subsample alone take 4 MB
    assert peak < 2_000_000
