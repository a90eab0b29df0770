import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from scmdist import (Dag, Dataset, EstimatorConfig, GramCache, InterventionSpec, KernelConfig,
                     NumericalError, ValidationError, e_scmd, p_scmd, pairwise_matrix, sample_m1,
                     sample_m2, scmd)
from scmdist.cache import JITTER_FLOOR, LOW_RANK_MAX_DIVISOR, CholFactor, _CallRows, _pivoted_rows
from scmdist.embedding import weight_columns
from scmdist.kernel import gram_entries

from oracles import pivoted_rows_copying

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
        gram = gram_entries(x, x, kcfg)
        rhs = kernel_columns(x, np.quantile(x, [0.1, 0.5, 0.9]), bandwidth_sq)
        for ridge in (0.1, 0.5, 1.0):
            factor = _CallRows(cache, [big], kcfg).factor(big, var, ridge)
            assert isinstance(factor.rank, int) and factor.rank <= big.n // 4
            assert factor.jitter_used == JITTER
            dense = cho_solve(cho_factor(gram + (ridge + JITTER) * np.eye(big.n)), rhs)
            assert np.max(np.abs(factor.solve(rhs) - dense)) <= 1e-10


def test_dense_factor_for_joint_key_zero_ridge_and_high_rank(big):
    cache = GramCache()
    kcfg = KernelConfig(1.0)
    rows = _CallRows(cache, [big], kcfg)
    assert rows.factor(big, "X", 0.5).rank is not None
    assert rows.factor(big, "X", 0.0) is None  # a zero ridge takes the dense path
    x, y = big.column("X"), big.column("Y")
    gram = gram_entries(y, y, kcfg) * gram_entries(x, x, kcfg)
    joint = CholFactor(gram.copy(), 0.5, JITTER_FLOOR, "joint (Y, X)")
    assert joint.rank is None
    rhs = kernel_columns(y, [0.0, 2.0], 1.0)
    dense = cho_solve(cho_factor(gram + (0.5 + JITTER) * np.eye(big.n)), rhs)
    assert np.max(np.abs(joint.solve(rhs) - dense)) <= 1e-10
    # a narrow kernel leaves too many columns for a rank at most N/4
    d = sample_m1(3, 400, 401)
    narrow = KernelConfig(1e-4)
    assert _CallRows(cache, [d], narrow).factor(d, "X", 0.5) is None
    gram = gram_entries(d.column("X"), d.column("X"), narrow)
    factor = CholFactor(gram.copy(), 0.5, JITTER_FLOOR, "narrow X")
    assert factor.rank is None
    rhs = kernel_columns(d.column("X"), [0.0, 1.0], 1e-4)
    dense = cho_solve(cho_factor(gram + (0.5 + JITTER) * np.eye(d.n)), rhs)
    assert np.max(np.abs(factor.solve(rhs) - dense)) <= 1e-12


def test_zero_ridge_keeps_jitter_escalation_and_its_error():
    # a constant column has the all-ones Gram, singular without jitter
    d = Dataset({"X": np.ones(30)}, id="constant")
    assert _CallRows(GramCache(), [d], KernelConfig(1.0)).factor(d, "X", 0.0) is None
    gram = gram_entries(d.column("X"), d.column("X"), KernelConfig(1.0))
    factor = CholFactor(gram, 0.0, JITTER_FLOOR, "constant X")
    assert factor.rank is None and factor.jitter_used == 1e-10
    # started at zero, the all-ones matrix fails and escalates to the floor
    assert CholFactor(np.ones((30, 30)), 0.0, 0.0, "all ones").jitter_used == 1e-10
    # eigenvalues -5e-10: fails at the floor, factors one x10 step later
    near = np.ones((30, 30)) - 5e-10 * np.eye(30)
    assert CholFactor(near, 0.0, JITTER_FLOOR, "near-singular").jitter_used == 1e-9
    with pytest.raises(NumericalError, match="jitter escalated to 1e-06"):
        CholFactor(-np.eye(4), 0.0, 0.0, "an indefinite matrix")


def test_escalation_refactors_the_matrix_a_failed_attempt_overwrote():
    # a dense factor works in place, so a retry must first restore the matrix
    rng = np.random.default_rng(406)
    x = rng.normal(size=40)
    gram = gram_entries(x, x, KernelConfig(1.0)) - 3e-9 * np.eye(40)
    factor = CholFactor(gram.copy(), 0.0, JITTER_FLOOR, "indefinite by 3e-9")
    assert factor.jitter_used == 1e-8  # two failed attempts
    rhs = rng.normal(size=(40, 2))
    fresh = cho_solve(cho_factor(gram + 1e-8 * np.eye(40), lower=True), rhs)
    assert np.array_equal(factor.solve(rhs), fresh)


def test_low_rank_weights_vanish_under_huge_ridge(big):
    cfg = EstimatorConfig(kernel=KernelConfig(0.5), ridge_lambda=1e12)
    cache = GramCache()
    w = weight_columns(big, "X", (), [-1.0, 0.0, 1.0], cfg, cache)
    assert _CallRows(cache, [big], cfg.kernel).factor(big, "X", 1e12).rank is not None
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
    ranks = {_CallRows(cache, [big], kcfg).factor(big, "X", ridge).rank
             for ridge in (0.1, 0.5, 1.0)}
    assert ranks == {rows.shape[0]}
    assert len(pivots) == 1


def fixture_y():
    """The Y column of the acceptance fixture's M1(3) and M1(5) samples, joined."""
    return np.concatenate([sample_m1(3, 1500, 1000).column("Y"),
                           sample_m1(5, 1500, 2000).column("Y")])


@pytest.mark.parametrize("bandwidth_sq", [1e-4, 0.1, 1.0])
def test_pivoted_rows_match_the_copying_reference_bit_for_bit(bandwidth_sq):
    x = fixture_y()
    for cap in (x.size // LOW_RANK_MAX_DIVISOR, 40):
        got = _pivoted_rows(x, bandwidth_sq, cap)
        want = pivoted_rows_copying(x, bandwidth_sq, cap)
        if want is None:
            assert got is None
        else:
            assert got.flags.owndata and got.flags.c_contiguous
            assert got.shape == want.shape and np.array_equal(got, want)
    # narrow kernels are past the cap, wide ones within it
    assert (_pivoted_rows(x, bandwidth_sq, x.size // LOW_RANK_MAX_DIVISOR) is None) == (
        bandwidth_sq < 0.1)


def test_pivoted_rows_grow_their_buffer_in_place():
    import tracemalloc

    x = fixture_y()
    cap = x.size // LOW_RANK_MAX_DIVISOR
    rank = _pivoted_rows(x, 0.1, cap).shape[0]
    buffer = 16
    while buffer < rank:
        buffer = min(cap, 2 * buffer)
    tracemalloc.start()
    try:
        _pivoted_rows(x, 0.1, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the copying reference peaks at about 1.6 times its final buffer
    assert rank > 128 and peak < buffer * x.size * 8 + 2 ** 20


def _under_hook(hook, run):
    """``run()`` with a profile or trace hook installed, then removed."""
    import cProfile
    import sys

    def trace(frame, event, arg):
        return trace  # line events too: the hook reads every frame's locals

    if hook == "cProfile":
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return run()
        finally:
            profiler.disable()
    install = getattr(sys, hook)
    install(trace)
    try:
        return run()
    finally:
        install(None)


@pytest.mark.parametrize("hook", ["setprofile", "settrace", "cProfile"])
def test_distances_keep_their_bits_under_a_profile_or_trace_hook(hook):
    # ranks 21 and 46 at N = 200: the row buffer doubles and is trimmed
    g = Dag(["X", "Y"], [("X", "Y")])
    d1, d2 = sample_m1(3, 200, 410), sample_m1(5, 200, 411)
    cfg = EstimatorConfig(kernel=KernelConfig(1.0), ridge_lambda=0.5)
    spec = InterventionSpec({"X": 0.5, "Y": 1.0})

    def run():
        return (scmd(g, d1, g, d2, spec, spec, cfg).value,
                pairwise_matrix([d1, d2], g, "scmd", cfg).values)

    plain = run()
    hooked = _under_hook(hook, run)
    assert plain[0] == hooked[0] and np.array_equal(plain[1], hooked[1])


def test_a_factor_on_a_block_of_joint_rows_solves_that_datasets_own_gram(big):
    other = sample_m1(5, 1000, 401)
    cache = GramCache()
    kcfg = KernelConfig(0.1)
    rows = _CallRows(cache, [other, big], kcfg)
    joint = cache.rows(sorted([big, other], key=lambda d: d.id), "Y", kcfg)
    for data in (big, other):  # the leading block and the one after it
        x = data.column("Y")
        gram = gram_entries(x, x, kcfg)
        rhs = kernel_columns(x, np.quantile(x, [0.1, 0.5, 0.9]), 0.1)
        for ridge in (0.1, 1.0):
            factor = rows.factor(data, "Y", ridge)
            assert factor.rank == joint.shape[0] <= data.n // LOW_RANK_MAX_DIVISOR
            assert np.shares_memory(factor._factor[0], joint)  # a view, not a copy
            dense = cho_solve(cho_factor(gram + (ridge + JITTER) * np.eye(data.n)), rhs)
            assert np.max(np.abs(factor.solve(rhs) - dense)) <= 1e-10
        assert rows.factor(data, "Y", 0.0) is None


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
    first = _CallRows(cache, [d], KernelConfig(1.0)).factor(d, "X", 0.5)
    assert [k[0] for k in built] == ["rows"]
    again = _CallRows(cache, [d], KernelConfig(1.0)).factor(d, "X", 0.5)
    assert len(built) == 1  # the second call pivots nothing
    assert again is not first and np.shares_memory(again._factor[0], first._factor[0])
    rhs = kernel_columns(d.column("X"), [0.0, 1.0], 1.0)
    assert np.array_equal(again.solve(rhs), first.solve(rhs))


def copy_of(d, id):
    return Dataset({v: d.column(v) for v in d.variable_names}, id=id)


def test_byte_equal_datasets_share_cached_entries(monkeypatch):
    built = count_builds(monkeypatch)
    g = Dag(["X", "Y"], [("X", "Y")])
    d1, d2 = sample_m1(3, 200, 406), sample_m1(5, 200, 407)
    cfg = EstimatorConfig(kernel=KernelConfig(1.0), ridge_lambda=0.5)
    spec = InterventionSpec({"X": 0.5, "Y": 1.0})
    cache = GramCache()
    first = scmd(g, d1, g, d2, spec, spec, cfg, cache)
    count = len(built)
    assert count > 0
    again = scmd(g, copy_of(d1, d1.id), g, copy_of(d2, d2.id), spec, spec, cfg, cache)
    assert len(built) == count and again == first
    # the id is a label: the same samples under another id read the same rows
    renamed = cache.rows([copy_of(d1, "renamed")], "X", cfg.kernel)
    assert cache.rows([d1], "X", cfg.kernel) is renamed
    assert len(built) == count + 1


def test_a_shared_cache_changes_no_bit():
    g = Dag(["X", "Y"], [("X", "Y")])
    envs = [sample_m1(3, 200, 408), sample_m1(5, 160, 409), sample_m2(3, 200, 410)]
    d1, d2 = envs[0], envs[1]
    cfg = EstimatorConfig(kernel=KernelConfig(1.0), ridge_lambda=0.5)
    spec = InterventionSpec({"X": 0.5, "Y": 1.0})

    def run(cache):
        reports = [scmd(g, d1, g, d2, spec, spec, cfg, cache)]
        reports += [p_scmd(g, d1, g, d2, t, spec, spec, cfg, cache) for t in ("X", "Y")]
        reports += [e_scmd(g, d1, g, d2, [0.25, 0.75], cfg, pairing, cache)
                    for pairing in ("grid", "paired")]
        m = pairwise_matrix(envs, g, "scmd", cfg, cache=cache)
        return reports + list(m.reports.values()), m.values

    shared = GramCache()
    reports, values = run(shared)
    alone, alone_values = run(None)
    assert [(r.value, r.pair_terms) for r in reports] == [(r.value, r.pair_terms) for r in alone]
    assert np.array_equal(values, alone_values)
    assert shared._entries and all(k[0] == "rows" for k in shared._entries)


def test_the_same_id_with_other_samples_is_a_cache_miss(monkeypatch):
    built = count_builds(monkeypatch)
    rng = np.random.default_rng(24)
    d1 = Dataset({"X": rng.normal(size=200)}, id="same")
    d2 = Dataset({"X": rng.normal(size=200)}, id="same")
    cache, kcfg = GramCache(), KernelConfig(1.0)
    _CallRows(cache, [d1], kcfg).factor(d1, "X", 0.5)
    factor = _CallRows(cache, [d2], kcfg).factor(d2, "X", 0.5)
    assert [k[0] for k in built] == ["rows", "rows"]
    x = d2.column("X")
    rhs = kernel_columns(x, [0.0, 1.0], 1.0)
    dense = cho_solve(cho_factor(gram_entries(x, x, kcfg) + (0.5 + JITTER) * np.eye(x.size)), rhs)
    assert np.max(np.abs(factor.solve(rhs) - dense)) <= 1e-10


def test_a_cache_keeps_no_dataset_alive():
    import gc
    import weakref

    g = Dag(["X", "Y"], [("X", "Y")])
    cfg = EstimatorConfig(kernel=KernelConfig(1.0), ridge_lambda=0.5)
    spec = InterventionSpec({"X": 0.5, "Y": 1.0})
    cache = GramCache()
    alive = []
    for k in range(30):
        d1, d2 = sample_m1(3, 100, 600 + 2 * k), sample_m1(5, 100, 601 + 2 * k)
        alive += [weakref.ref(d1), weakref.ref(d2)]
        scmd(g, d1, g, d2, spec, spec, cfg, cache)
    del d1, d2
    gc.collect()
    assert cache._entries and [r() for r in alive if r() is not None] == []


def test_nested_builds_under_threads_build_each_key_once(monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    built = count_builds(monkeypatch)
    d = sample_m1(3, 200, 405)
    cache = GramCache(capacity=4)
    kcfg = KernelConfig(1.0)
    # each factor is built on the rows of one shared lookup
    calls = [lambda: _CallRows(cache, [d], kcfg).factor(d, "X", 0.5),
             lambda: _CallRows(cache, [d], kcfg).factor(d, "X", 1.0),
             lambda: cache.rows([d], "X", kcfg)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(calls[k % 3]) for k in range(30)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert [k[0] for k in built] == ["rows"]
    assert all(r is results[2] for r in results[2::3])
    factors = results[0::3] + results[1::3]
    assert all(f.rank == results[2].shape[0] for f in factors)
    assert all(np.shares_memory(f._factor[0], results[2]) for f in factors)


def test_capacity_must_be_a_positive_integer():
    assert GramCache(np.int64(2))._capacity == 2
    for bad in (0, -1, "3", 2.0, None, True):
        with pytest.raises(ValidationError, match="cache capacity must be an integer >= 1"):
            GramCache(bad)
