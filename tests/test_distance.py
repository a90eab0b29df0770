import itertools
import json
import math

import numpy as np
import pytest

from scmdist import (
    Dag,
    Dataset,
    EstimatorConfig,
    GramCache,
    InterventionSpec,
    KernelConfig,
    LinearGaussianScm,
    ValidationError,
    e_scmd,
    mimd,
    mmd_vstat,
    p_scmd,
    pairwise_matrix,
    sachs_expert_graph,
    sample_m1,
    sample_m2,
    sample_scm,
    scmd,
)
from scmdist.distance import BAND_CUTOFF, EXP_FLOOR

from oracles import mimd_sq_double_sum, mmd_vstat_naive, omega, random_dag, scmd_pair_terms_loop

FWD = Dag(["X", "Y"], [("X", "Y")])
REV = Dag(["X", "Y"], [("Y", "X")])
CFG = EstimatorConfig(kernel=KernelConfig(0.1), ridge_lambda=0.5)
UNIT = {"X": 1.0, "Y": 1.0}


def test_mimd_identical_inputs_zero():
    d = sample_m1(3, 300, 0)
    assert mimd(FWD, d, FWD, d, "X", "Y", 1.0, 1.0, CFG) <= 1e-7
    assert mimd(FWD, d, FWD, d, "Y", "X", 1.0, 1.0, CFG) <= 1e-7


def test_mimd_squared_matches_double_sum_expansion():
    n = 25
    d1 = sample_m1(3, n, 1)
    d2 = sample_m1(5, n, 2)
    cache = GramCache()
    for i, j in (("X", "Y"), ("Y", "X")):
        got = mimd(FWD, d1, FWD, d2, i, j, 1.0, 1.0, CFG, cache)
        w1 = omega(FWD, d1, i, j, 1.0, CFG, cache)
        w2 = omega(FWD, d2, i, j, 1.0, CFG, cache)
        expect_sq = mimd_sq_double_sum(w1, d1.column(j), w2, d2.column(j), 0.1)
        assert got ** 2 == pytest.approx(expect_sq, abs=1e-10)


def test_mimd_requires_distinct_variables():
    d1 = sample_m1(3, 50, 3)
    with pytest.raises(ValidationError):
        mimd(FWD, d1, FWD, d1, "X", "X", 1.0, 1.0, CFG)
    # a copy under the same id is the same data, not an error
    clone = Dataset({v: d1.column(v) for v in d1.variable_names}, id=d1.id)
    assert (mimd(FWD, d1, FWD, clone, "X", "Y", 1.0, 2.0, CFG)
            == mimd(FWD, d1, FWD, d1, "X", "Y", 1.0, 2.0, CFG))


def test_datasets_sharing_an_id_are_told_apart_by_their_samples():
    a, b = sample_m1(3, 200, 40), sample_m2(3, 200, 41)
    unnamed = [Dataset({v: d.column(v) for v in d.variable_names}) for d in (a, b)]

    def run(x, g, s, y, h, t):
        return [scmd(g, x, h, y, s, t, CFG).value,
                p_scmd(g, x, h, y, "Y", s, t, CFG).value,
                e_scmd(g, x, h, y, cfg=CFG).value,
                mimd(g, x, h, y, "X", "Y", s["X"], t["X"], CFG),
                mmd_vstat(x, y, CFG.kernel)]

    other = {"X": 0.5, "Y": 1.0}
    same_id = run(unnamed[0], FWD, UNIT, unnamed[1], REV, other)
    assert unnamed[0].id == unnamed[1].id == ""
    swapped = run(unnamed[1], REV, other, unnamed[0], FWD, UNIT)
    assert [v.hex() for v in same_id] == [v.hex() for v in swapped]
    assert min(same_id) > 0
    assert same_id == pytest.approx(run(a, FWD, UNIT, b, REV, other), abs=1e-12)


def test_scmd_swap_symmetry_exact():
    d1 = sample_m1(3, 400, 4)
    d3 = sample_m2(3, 400, 5)
    a = scmd(FWD, d1, REV, d3, UNIT, UNIT, CFG)
    b = scmd(REV, d3, FWD, d1, UNIT, UNIT, CFG)
    assert a.value == b.value
    assert a.pair_terms == b.pair_terms
    # the same samples on both sides: the graphs and the values order them
    other = {"X": 0.5, "Y": 2.0}
    for seed in range(10):
        d = sample_m1(3, 300, seed)
        for a, b in ((scmd(FWD, d, FWD, d, UNIT, other, CFG),
                      scmd(FWD, d, FWD, d, other, UNIT, CFG)),
                     (p_scmd(FWD, d, REV, d, "Y", UNIT, other, CFG),
                      p_scmd(REV, d, FWD, d, "Y", other, UNIT, CFG))):
            assert a.value == b.value
            assert a.pair_terms == b.pair_terms
        assert (mimd(FWD, d, REV, d, "X", "Y", 1.0, 0.5, CFG)
                == mimd(REV, d, FWD, d, "X", "Y", 0.5, 1.0, CFG))


def test_scmd_self_distance_zero():
    d = sample_m1(3, 400, 6)
    assert scmd(FWD, d, FWD, d, UNIT, UNIT, CFG).value <= 1e-6


def test_scmd_pair_count_and_sum():
    d1 = sample_m1(3, 200, 7)
    d2 = sample_m1(5, 200, 8)
    r = scmd(FWD, d1, FWD, d2, UNIT, UNIT, CFG)
    assert set(r.pair_terms) == {("X", "Y"), ("Y", "X")}
    assert r.value == pytest.approx(sum(r.pair_terms.values()), rel=1e-12)
    assert all(v >= 0 for v in r.pair_terms.values())


def test_p_scmd_sums_to_scmd_over_targets():
    d1 = sample_m1(3, 400, 9)
    d2 = sample_m1(5, 400, 10)
    cache = GramCache()
    total = scmd(FWD, d1, FWD, d2, UNIT, UNIT, CFG, cache)
    parts = [p_scmd(FWD, d1, FWD, d2, t, UNIT, UNIT, CFG, cache).value for t in ("X", "Y")]
    assert abs(sum(parts) - total.value) <= 1e-9


def test_p_scmd_term_structure():
    d1 = sample_m1(3, 200, 11)
    d2 = sample_m1(5, 200, 12)
    r = p_scmd(FWD, d1, FWD, d2, "Y", UNIT, UNIT, CFG)
    assert set(r.pair_terms) == {("X", "Y")}
    with pytest.raises(ValidationError):
        p_scmd(FWD, d1, FWD, d2, "W", UNIT, UNIT, CFG)


def test_triangle_inequality_small():
    rng = np.random.default_rng(13)
    cache = GramCache(capacity=64)
    d1 = sample_m1(3, 150, 14)
    d2 = sample_m1(5, 150, 15)
    d3 = sample_m2(3, 150, 16)
    for i, j in (("X", "Y"), ("Y", "X")):
        v = {k: float(rng.normal()) for k in ("d1", "d2", "d3")}
        ab = mimd(FWD, d1, FWD, d2, i, j, v["d1"], v["d2"], CFG, cache)
        ac = mimd(FWD, d1, REV, d3, i, j, v["d1"], v["d3"], CFG, cache)
        cb = mimd(REV, d3, FWD, d2, i, j, v["d3"], v["d2"], CFG, cache)
        assert ab <= ac + cb + 1e-8


def test_e_scmd_single_median_level_reduces_to_scmd():
    d1 = sample_m1(3, 300, 17)
    d3 = sample_m2(3, 300, 18)
    cache = GramCache()
    r = e_scmd(FWD, d1, REV, d3, [0.5], CFG, cache=cache)
    direct = scmd(FWD, d1, REV, d3, _quantiles(d1, 0.5), _quantiles(d3, 0.5), CFG, cache)
    assert r.value == direct.value


def test_e_scmd_grid_vs_paired_sizes():
    d1 = sample_m1(3, 200, 19)
    d2 = sample_m1(5, 200, 20)
    cache = GramCache(capacity=32)
    levels = [0.25, 0.75]
    grid = e_scmd(FWD, d1, FWD, d2, levels, CFG, pairing="grid", cache=cache)
    paired = e_scmd(FWD, d1, FWD, d2, levels, CFG, pairing="paired", cache=cache)
    assert grid.config_echo["pairing"] == "grid"
    assert grid.value != paired.value  # off-level combinations contribute


def test_e_scmd_validates_levels():
    d1 = sample_m1(3, 100, 21)
    d2 = sample_m1(5, 100, 22)
    with pytest.raises(ValidationError):
        e_scmd(FWD, d1, FWD, d2, [], CFG)
    with pytest.raises(ValidationError):
        e_scmd(FWD, d1, FWD, d2, [0.0], CFG)
    with pytest.raises(ValidationError, match="quantile level"):
        e_scmd(FWD, d1, FWD, d2, ["a"], CFG)
    with pytest.raises(ValidationError):
        e_scmd(FWD, d1, FWD, d2, [0.5], CFG, pairing="zigzag")
    for levels in (0.5, None, "0.5"):
        with pytest.raises(ValidationError, match="levels must be a sequence"):
            e_scmd(FWD, d1, FWD, d2, levels, CFG)


def test_numpy_bandwidth_and_ridge_give_the_bits_of_their_float_twins():
    d1, d2 = sample_m1(3, 400, 24), sample_m2(3, 400, 25)
    cfg = EstimatorConfig(KernelConfig(np.float32(0.1)), np.float32(0.3))
    twin = EstimatorConfig(KernelConfig(float(np.float32(0.1))), float(np.float32(0.3)))
    assert type(cfg.kernel.bandwidth_sq) is float and type(cfg.ridge_lambda) is float
    for run in (lambda c: scmd(FWD, d1, REV, d2, UNIT, UNIT, c).value,
                lambda c: e_scmd(FWD, d1, REV, d2, cfg=c).value,
                lambda c: mmd_vstat(d1, d2, c.kernel)):
        assert run(cfg).hex() == run(twin).hex()
    assert KernelConfig(np.int64(2)) == KernelConfig(2.0)


def test_intervention_spec_helpers():
    d = sample_m1(3, 100, 23)
    means = InterventionSpec.from_means(d)
    assert means.origin == "per-variable-mean"
    assert means.value_for("X") == pytest.approx(d.column("X").mean())
    for bad in (np.nan, np.inf, -math.inf):
        with pytest.raises(ValidationError, match="intervention value for 'X' must be finite"):
            InterventionSpec({"X": bad})
    for bad in (None, "a", 1j):
        with pytest.raises(ValidationError, match="intervention value for 'X'"):
            scmd(FWD, d, FWD, d, {"X": bad, "Y": 1.0}, UNIT, CFG)
    with pytest.raises(ValidationError):
        means.value_for("missing")


def test_intervention_values_outside_the_graph_are_errors():
    d1 = sample_m1(3, 100, 24)
    d2 = sample_m1(5, 100, 25)
    extra = {"X": 1.0, "Y": 1.0, "Z": 9.0, "W": 0.0}
    with pytest.raises(ValidationError, match=r"outside the graph: \['W', 'Z'\]"):
        scmd(FWD, d1, FWD, d2, UNIT, extra, CFG)
    with pytest.raises(ValidationError, match=r"outside the graph: \['W', 'Z'\]"):
        p_scmd(FWD, d1, FWD, d2, "Y", extra, UNIT, CFG)
    with pytest.raises(ValidationError, match=r"environment '.*-seed25': .*\['Z'\]"):
        pairwise_matrix([d1, d2], FWD, "scmd", CFG, intervention_policy="user",
                        interventions={d1.id: UNIT, d2.id: {**UNIT, "Z": 7.0}})
    # p_scmd accepts a value for its own target, and does not read it
    a = p_scmd(FWD, d1, FWD, d2, "Y", {"X": 1.0, "Y": 123.0}, {"X": 1.0, "Y": -50.0}, CFG)
    assert a.value == p_scmd(FWD, d1, FWD, d2, "Y", {"X": 1.0}, {"X": 1.0}, CFG).value


def test_scmd_requires_full_intervention_coverage():
    d1 = sample_m1(3, 100, 24)
    d2 = sample_m1(5, 100, 25)
    with pytest.raises(ValidationError):
        scmd(FWD, d1, FWD, d2, {"X": 1.0}, UNIT, CFG)


def test_mmd_vstat_identical_zero():
    d = sample_m1(3, 500, 26)
    assert mmd_vstat(d, d, KernelConfig(0.1)) == 0.0
    # a copy under another id takes the cross-sample path
    for k in range(30):
        d = sample_m1(3, 300 + 37 * k, 400 + k)
        copy = Dataset({v: d.column(v) for v in d.variable_names}, id=d.id + "-copy")
        for bandwidth_sq in (0.05, 0.1, 1.0, 5.0):
            assert mmd_vstat(d, copy, KernelConfig(bandwidth_sq)) == 0.0


def _joint_samples(d):
    return np.column_stack([d.column(v) for v in sorted(d.variable_names)])


def _cross_exponents(d1, d2, bandwidth_sq):
    a, b = _joint_samples(d1), _joint_samples(d2)
    return -((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2) / (2.0 * bandwidth_sq)


def test_mmd_vstat_blocked_matches_naive(monkeypatch):
    import scmdist.distance as dist_mod

    g = sachs_expert_graph()
    rng = np.random.default_rng(27)
    sachs = []
    for k in range(2):
        coeffs = {e: float(rng.uniform(0.5, 1.0)) for e in sorted(g.edges)}
        model = LinearGaussianScm(g, coeffs, {v: 1.0 for v in g.nodes})
        sachs.append(sample_scm(model, 300 + 50 * k, 27 + k, id=f"sachs-{k}"))
    d1 = sample_m1(3, 300, 27)
    d2 = sample_m2(3, 350, 28)  # unequal sizes exercise the cross terms
    far = Dataset({v: d2.column(v) + 100.0 for v in d2.variable_names}, id="far")
    # every cross exponent of the far pair lies below the floor, and at
    # sigma_sq = 0.05 some of d1, d2's lie where exp turns subnormal
    assert _cross_exponents(d1, far, 0.1).max() < EXP_FLOOR
    window = _cross_exponents(d1, d2, 0.05)
    assert np.count_nonzero((window > -745.0) & (window < -707.0)) > 100
    # the fixture's pair, whose bands leave entries out at both bandwidths
    slope = sample_m1(5, 320, 29)
    for bandwidth_sq in (0.1, 0.05):
        assert _cross_exponents(d1, slope, bandwidth_sq).min() < BAND_CUTOFF
    cases = [(d1, d2, 0.1), (*sachs, 1.0), (d1, far, 0.1), (d1, d2, 0.05),
             (d1, slope, 0.1), (d1, slope, 0.05)]
    for e1, e2, bandwidth_sq in cases:
        expect = mmd_vstat_naive(_joint_samples(e1), _joint_samples(e2), bandwidth_sq)
        # strips that divide neither size, single rows, the default, and one
        # strip per sample
        for block in (64, 1, 128, 512):
            monkeypatch.setattr(dist_mod, "MMD_BLOCK", block)
            got = mmd_vstat(e1, e2, KernelConfig(bandwidth_sq))
            assert got == pytest.approx(expect, abs=1e-12)


def test_mmd_vstat_does_not_depend_on_row_order():
    d1 = sample_m1(3, 300, 27)
    d2 = sample_m2(3, 350, 28)
    rng = np.random.default_rng(31)
    for bandwidth_sq in (0.05, 0.1, 1.0):
        cfg = KernelConfig(bandwidth_sq)
        for d in (d1, d2):
            order = rng.permutation(d.n)
            shuffled = Dataset({v: d.column(v)[order] for v in d.variable_names}, id=d.id)
            pair = (shuffled, d2) if d is d1 else (d1, shuffled)
            assert abs(mmd_vstat(*pair, cfg) - mmd_vstat(d1, d2, cfg)) <= 1e-14


def test_mmd_vstat_of_a_far_pair_is_its_self_terms_alone():
    d1 = sample_m1(3, 300, 27)
    d2 = sample_m2(3, 350, 28)
    far = Dataset({v: d2.column(v) + 100.0 for v in d2.variable_names}, id="far")
    # every cross exponent lies below the band's cutoff, so the cross sum
    # takes no entry at all
    assert _cross_exponents(d1, far, 0.1).max() < BAND_CUTOFF
    self_terms = sum(np.exp(_cross_exponents(d, d, 0.1)).mean() for d in (d1, far))
    assert mmd_vstat(d1, far, KernelConfig(0.1)) == pytest.approx(math.sqrt(self_terms),
                                                                   abs=1e-15)


def test_mmd_vstat_is_exactly_symmetric():
    cfg = KernelConfig(0.1)
    for k in range(20):
        d1 = sample_m1(3, 700 + k, 200 + k)
        d2 = sample_m2(3, 720 - k, 300 + k)
        assert mmd_vstat(d1, d2, cfg) == mmd_vstat(d2, d1, cfg)


def test_mmd_vstat_variable_name_mismatch():
    d1 = sample_m1(3, 50, 29)
    d2 = Dataset({"A": np.zeros(50) + 1.0}, id="other")
    with pytest.raises(ValidationError):
        mmd_vstat(d1, d2, KernelConfig(0.1))


def test_column_order_does_not_change_distances():
    d1 = sample_m1(3, 200, 30)
    d2 = sample_m1(5, 200, 31)
    permuted = Dataset({"Y": d2.column("Y"), "X": d2.column("X")}, id=d2.id + "-perm")
    a = scmd(FWD, d1, FWD, d2, UNIT, UNIT, CFG)
    b = scmd(FWD, d1, FWD, permuted, UNIT, UNIT, CFG)
    assert a.value == b.value


def test_pairwise_duplicate_environment_is_zero():
    base = sample_m1(3, 200, 32)
    twin = Dataset({v: base.column(v) for v in base.variable_names}, id="twin")
    m = pairwise_matrix([base, twin], FWD, "scmd", CFG)
    assert m.values[0, 1] == 0.0
    assert m.values[1, 0] == 0.0


def shifted_env(a, seed, id, n=2500):
    # X centered at 1 so that per-variable-mean interventions probe the
    # slope difference instead of sitting at the indistinguishable origin
    from scmdist import LinearGaussianScm, sample_scm

    m = LinearGaussianScm(FWD, {("X", "Y"): float(a)}, {"X": 1.0, "Y": 1.0},
                          intercepts={"X": 1.0})
    return sample_scm(m, n, seed, id=id)


def test_pairwise_three_synthetic_environments_ordering():
    envs = [shifted_env(3, 133, "env-a3-1"), shifted_env(3, 134, "env-a3-2"),
            shifted_env(5, 135, "env-a5")]
    m = pairwise_matrix(envs, FWD, "scmd", CFG)
    assert np.array_equal(m.values, m.values.T)
    assert np.all(np.diag(m.values) == 0)
    assert m.values[0, 1] < 0.25 * m.values[0, 2]


def test_pairwise_mmd_metric():
    envs = [sample_m1(3, 200, 39), sample_m1(5, 200, 40)]
    m = pairwise_matrix(envs, FWD, "mmd", CFG)
    assert m.metric == "mmd"
    assert m.values[0, 1] > 0


def test_pairwise_validation():
    d = sample_m1(3, 100, 41)
    with pytest.raises(ValidationError):
        pairwise_matrix([d], FWD, "scmd", CFG)
    with pytest.raises(ValidationError):
        pairwise_matrix([d, sample_m1(5, 100, 42)], FWD, "hamming", CFG)
    with pytest.raises(ValidationError):
        pairwise_matrix([d, sample_m1(5, 100, 43)], FWD, "scmd", CFG,
                        intervention_policy="user")
    other = sample_m1(5, 100, 44)
    unit = {"X": 1.0, "Y": 1.0}
    with pytest.raises(ValidationError, match=r"unknown environments \['envX'\]"):
        pairwise_matrix([d, other], FWD, "scmd", CFG, intervention_policy="user",
                        interventions={d.id: unit, other.id: unit, "envX": unit})
    with pytest.raises(ValidationError, match="serial"):
        pairwise_matrix([d, other], FWD, "scmd", CFG, threads=2)
    for metric in ("scmd", "mmd"):
        with pytest.raises(ValidationError, match="cfg must be an EstimatorConfig"):
            pairwise_matrix([d, other], FWD, metric, None)
    # intervention values the run would not read
    with pytest.raises(ValidationError, match="'per-variable-mean' reads no"):
        pairwise_matrix([d, other], FWD, "scmd", CFG,
                        interventions={d.id: unit, other.id: unit})
    for interventions in (None, {d.id: unit, other.id: unit}):
        with pytest.raises(ValidationError, match="'mmd' under policy 'user' reads no"):
            pairwise_matrix([d, other], FWD, "mmd", CFG, intervention_policy="user",
                            interventions=interventions)


def test_scmd_family_needs_two_variables():
    one = Dag(["X"], [])
    rng = np.random.default_rng(46)
    d1 = Dataset({"X": rng.normal(size=50)}, id="one-a")
    d2 = Dataset({"X": rng.normal(size=50)}, id="one-b")
    calls = [lambda: scmd(one, d1, one, d2, {"X": 0.0}, {"X": 0.0}, CFG),
             lambda: p_scmd(one, d1, one, d2, "X", {"X": 0.0}, {"X": 0.0}, CFG),
             lambda: e_scmd(one, d1, one, d2, cfg=CFG),
             lambda: pairwise_matrix([d1, d2], one, "scmd", CFG)]
    for call in calls:
        with pytest.raises(ValidationError, match=r"at least two variables, got only \['X'\]"):
            call()
    # the joint MMD needs no pair of variables
    m = pairwise_matrix([d1, d2], one, "mmd", CFG)
    assert m.values[0, 1] == mmd_vstat(d1, d2, CFG.kernel) > 0.0


def test_scmd_supports_unequal_sample_sizes():
    d1 = sample_m1(3, 300, 44)
    d2 = sample_m1(5, 450, 45)
    r = scmd(FWD, d1, FWD, d2, UNIT, UNIT, CFG)
    assert r.value > 0
    assert all(v >= 0 for v in r.pair_terms.values())


def test_mimd_large_negative_square_raises(monkeypatch):
    import scmdist.distance as dist_mod
    from scmdist import NumericalError

    d1 = sample_m1(3, 50, 46)
    d2 = sample_m1(5, 50, 47)
    real = dist_mod._sq_tables

    def last_first_negative(sides, couples, pairs, combos, *args):
        # the combination (last value on side 1, first value on side 2)
        first, second = (np.asarray(c) for c in combos)
        squares = real(sides, couples, pairs, combos, *args)
        for sq in squares:
            sq[:, (first == first.max()) & (second == 0)] = -1.0
        return squares

    monkeypatch.setattr(dist_mod, "_sq_tables", last_first_negative)
    with pytest.raises(NumericalError) as err:
        mimd(FWD, d1, FWD, d2, "X", "Y", 1.0, 1.0, CFG)
    assert "ridge_lambda" in str(err.value)
    # every combination a reduction uses is checked, and only those
    with pytest.raises(NumericalError):
        e_scmd(FWD, d1, FWD, d2, [0.25, 0.75], CFG, pairing="grid")
    e_scmd(FWD, d1, FWD, d2, [0.25, 0.75], CFG, pairing="paired")


@pytest.mark.parametrize("scale, raises", [(0.9, False), (1.1, True)])
def test_negative_square_clamp_is_1e_8_times_the_larger_sample(monkeypatch, scale, raises):
    import scmdist.distance as dist_mod
    from scmdist import NumericalError

    d1 = sample_m1(3, 50, 46)
    d2 = sample_m1(5, 70, 47)
    real = dist_mod._sq_tables

    def patch(entry):
        def last_first_set(sides, couples, pairs, combos, *args):
            first, second = (np.asarray(c) for c in combos)
            squares = real(sides, couples, pairs, combos, *args)
            for sq in squares:
                sq[:, (first == first.max()) & (second == 0)] = entry
            return squares

        monkeypatch.setattr(dist_mod, "_sq_tables", last_first_set)

    runs = {"scmd": lambda: scmd(FWD, d1, REV, d2, UNIT, UNIT, CFG),
            "e_scmd": lambda: e_scmd(FWD, d1, REV, d2, [0.25, 0.75], CFG, pairing="grid")}
    for name, run in runs.items():
        patch(-scale * 1e-8 * max(d1.n, d2.n))
        if raises:
            with pytest.raises(NumericalError):
                run()
            continue
        clamped = run()
        if name == "scmd":  # its one combination is the patched entry
            assert set(clamped.pair_terms.values()) == {0.0}
        patch(0.0)
        zero = run()
        assert (clamped.value, clamped.pair_terms) == (zero.value, zero.pair_terms), name


def test_reports_echo_no_numerical_knobs():
    from scmdist.io import render_report

    d1, d2 = sample_m1(3, 60, 48), sample_m2(3, 60, 49)
    reports = [scmd(FWD, d1, REV, d2, UNIT, UNIT, CFG),
               p_scmd(FWD, d1, REV, d2, "Y", UNIT, UNIT, CFG),
               e_scmd(FWD, d1, REV, d2, [0.5], CFG)]
    reports += pairwise_matrix([d1, sample_m1(5, 60, 50)], FWD, "scmd", CFG).reports.values()
    for report in reports:
        assert {"bandwidth_sq", "ridge_lambda"} <= set(report.config_echo)
        config = json.loads(render_report(report))["config"]
        assert "jitter" not in config and "clamp_tol" not in config


def test_config_echo_of_every_report_kind():
    d1, d2 = sample_m1(3, 60, 48), sample_m2(3, 60, 49)
    half = {"X": 0.5, "Y": 2.0}
    knobs = {"bandwidth_sq": 0.1, "ridge_lambda": 0.5}
    at_values = {"interventions_1": UNIT, "interventions_2": half, "origins": ("user", "user")}
    echoes = [
        (scmd(FWD, d1, REV, d2, UNIT, half, CFG), {**knobs, **at_values}),
        (p_scmd(FWD, d1, REV, d2, "Y", UNIT, half, CFG), {**knobs, "target": "Y", **at_values}),
        (e_scmd(FWD, d1, REV, d2, [0.5, 0.7], CFG, pairing="paired"),
         {**knobs, "levels": [0.5, 0.7], "pairing": "paired"}),
    ]
    d3 = sample_m1(5, 60, 50)
    means = {d.id: InterventionSpec.from_means(d).values for d in (d1, d3)}
    for (a, b), report in pairwise_matrix([d1, d3], FWD, "scmd", CFG).reports.items():
        echoes.append((report, {**knobs, "interventions_1": means[a], "interventions_2": means[b],
                                "origins": ("per-variable-mean", "per-variable-mean")}))
    for report, want in echoes:
        assert list(report.config_echo) == list(want), report.kind
        assert report.config_echo == want, report.kind


def test_point_distances_convert_both_specs_before_naming_checks():
    d1, d2 = sample_m1(3, 60, 51), sample_m1(5, 60, 52)
    outside, not_real = {"Z": 1.0}, {"X": "a", "Y": 1.0}
    for call in (lambda: scmd(FWD, d1, FWD, d2, outside, not_real, CFG),
                 lambda: p_scmd(FWD, d1, FWD, d2, "Y", outside, not_real, CFG)):
        with pytest.raises(ValidationError, match="intervention value for 'X' must be a real"):
            call()
    with pytest.raises(ValidationError, match="unknown target variable None"):
        p_scmd(FWD, d1, FWD, d2, None, UNIT, UNIT, CFG)


def test_mmd_vstat_refuses_a_kernel_config_of_another_type():
    d1, d2 = sample_m1(3, 30, 53), sample_m1(5, 30, 54)
    for bad in (0.1, CFG, None):
        with pytest.raises(ValidationError, match="kcfg must be a KernelConfig"):
            mmd_vstat(d1, d2, bad)


def _quantiles(d, level):
    return {v: d.quantile(v, level) for v in d.variable_names}


@pytest.mark.parametrize("pairing", ["grid", "paired"])
def test_e_scmd_matches_per_pair_loop_over_combinations(pairing):
    d1 = sample_m1(3, 120, 50)
    d3 = sample_m2(3, 130, 51)
    levels = [0.2, 0.5, 0.5, 0.9]  # a repeated level counts twice
    if pairing == "grid":
        combos = [(q1, q2) for q1 in levels for q2 in levels]
    else:
        combos = [(q, q) for q in levels]
    cache = GramCache(capacity=32)
    runs = [scmd_pair_terms_loop(FWD, d1, _quantiles(d1, q1), REV, d3, _quantiles(d3, q2),
                                 CFG, cache) for q1, q2 in combos]
    got = e_scmd(FWD, d1, REV, d3, levels, CFG, pairing=pairing)
    expect = math.fsum(math.fsum(t.values()) for t in runs) / len(runs)
    assert abs(got.value - expect) <= 1e-12
    for p, term in got.pair_terms.items():
        assert abs(term - math.fsum(t[p] for t in runs) / len(runs)) <= 1e-12
    swapped = e_scmd(REV, d3, FWD, d1, levels, CFG, pairing=pairing)
    assert swapped.value == got.value
    assert swapped.pair_terms == got.pair_terms
    for seed in range(10):  # the same samples on both sides: the graphs order them
        d = sample_m1(3, 300, seed)
        a = e_scmd(FWD, d, REV, d, cfg=CFG, pairing=pairing)
        b = e_scmd(REV, d, FWD, d, cfg=CFG, pairing=pairing)
        assert a.value == b.value
        assert a.pair_terms == b.pair_terms


def _multi_parent_envs():
    # C has parents {A, B}; D has parents {A, C}
    g = Dag(["A", "B", "C", "D"], [("A", "C"), ("B", "C"), ("C", "D"), ("A", "D")])
    envs = []
    for k, slope in enumerate((0.8, -0.6, 1.2)):
        coeffs = {("A", "C"): slope, ("B", "C"): 0.7, ("C", "D"): -slope, ("A", "D"): 0.5}
        model = LinearGaussianScm(g, coeffs, {v: 1.0 for v in g.nodes},
                                  intercepts={"A": 0.5 * k})
        envs.append(sample_scm(model, 90 + 10 * k, 60 + k, id=f"multi-{2 - k}"))
    return g, envs


def test_pairwise_matrix_matches_per_pair_scmd_loop():
    g, envs = _multi_parent_envs()
    cfg = EstimatorConfig(kernel=KernelConfig(0.5), ridge_lambda=0.5)
    m = pairwise_matrix(envs, g, "scmd", cfg)
    cache = GramCache(capacity=64)
    for r in range(len(envs)):
        for c in range(r + 1, len(envs)):
            means = [InterventionSpec.from_means(e).values for e in (envs[r], envs[c])]
            terms = scmd_pair_terms_loop(g, envs[r], means[0], g, envs[c], means[1], cfg, cache)
            report = m.reports[(envs[r].id, envs[c].id)]
            assert abs(m.values[r, c] - math.fsum(terms.values())) <= 1e-12
            for p, term in terms.items():
                assert abs(report.pair_terms[p] - term) <= 1e-12
    # permuting the environments permutes the matrix bit for bit
    for perm in itertools.permutations(range(len(envs))):
        permuted = pairwise_matrix([envs[k] for k in perm], g, "scmd", cfg)
        assert np.array_equal(permuted.values, m.values[np.ix_(perm, perm)])


def test_pairwise_matrix_factorizes_each_key_once(monkeypatch):
    import scmdist.cache as cache_mod

    labels = []
    real = cache_mod.CholFactor.__init__

    def counting(self, matrix, ridge, jitter, label, *args, **kwargs):
        labels.append(label)
        real(self, matrix, ridge, jitter, label, *args, **kwargs)

    monkeypatch.setattr(cache_mod.CholFactor, "__init__", counting)
    g = sachs_expert_graph()
    rng = np.random.default_rng(70)
    envs = []
    for k in range(3):
        coeffs = {e: float(rng.uniform(0.5, 1.0)) for e in sorted(g.edges)}
        model = LinearGaussianScm(g, coeffs, {v: 1.0 for v in g.nodes})
        envs.append(sample_scm(model, 60, 70 + k, id=f"sachs-{k}"))
    pairwise_matrix(envs, g, "scmd", EstimatorConfig(kernel=KernelConfig(1.0)))
    keys = {(e.id, (i,) + tuple(sorted(g.parents(i))))
            for e in envs for i in g.nodes if g.descendants(i)}
    assert len(labels) == len(keys)
    assert len(set(labels)) == len(labels)


def count_pivots(monkeypatch):
    """(sample count, rank) of every pivoted Cholesky factor built from now on."""
    import scmdist.cache as cache_mod

    pivots = []
    real = cache_mod._pivoted_rows

    def counting(x, bandwidth_sq, max_rank):
        out = real(x, bandwidth_sq, max_rank)
        pivots.append((x.size, None if out is None else out.shape[0]))
        return out

    monkeypatch.setattr(cache_mod, "_pivoted_rows", counting)
    return pivots


def test_each_call_pivots_each_variable_once(monkeypatch):
    pivots = count_pivots(monkeypatch)
    d1, d3 = sample_m1(3, 600, 88), sample_m2(3, 600, 89)
    cfg = EstimatorConfig(kernel=KernelConfig(0.1), ridge_lambda=0.5)
    # each graph's root reaches the other variable: its solves and both
    # targets' forms read the rows over both datasets
    scmd(FWD, d1, REV, d3, UNIT, UNIT, cfg)
    assert [n for n, _ in pivots] == [1200, 1200]
    assert all(r is not None and r <= 600 // 4 for _, r in pivots)
    pivots.clear()
    g = sachs_expert_graph()
    rng = np.random.default_rng(90)
    envs = []
    for k in range(4):
        coeffs = {e: float(rng.uniform(0.5, 1.0)) for e in sorted(g.edges)}
        model = LinearGaussianScm(g, coeffs, {v: 1.0 for v in g.nodes})
        envs.append(sample_scm(model, 200, 90 + k, id=f"env{k}"))
    pairwise_matrix(envs, g, "scmd", EstimatorConfig(kernel=KernelConfig(1.0)),
                    cache=GramCache(capacity=2))
    assert [n for n, _ in pivots] == [800] * len(g.nodes)


def _union_rows(cache, datasets, j, kcfg):
    # the cached low-rank rows of V_j over the datasets, in canonical id order
    return cache.rows(sorted(datasets, key=lambda d: d.id), j, kcfg)


@pytest.mark.parametrize("bandwidth_sq", [0.1, 1.0])
@pytest.mark.parametrize("ridge", [0.1, 1.0])
def test_low_rank_forms_match_dense_oracle(bandwidth_sq, ridge):
    d1 = sample_m1(3, 1500, 80)
    d3 = sample_m2(3, 1500, 81)
    cfg = EstimatorConfig(kernel=KernelConfig(bandwidth_sq), ridge_lambda=ridge)
    cache = GramCache(capacity=32)
    got = scmd(FWD, d1, REV, d3, UNIT, UNIT, cfg, cache)
    for j in ("X", "Y"):
        assert _union_rows(cache, [d1, d3], j, cfg.kernel) is not None
    terms = scmd_pair_terms_loop(FWD, d1, UNIT, REV, d3, UNIT, cfg, cache)
    for p, term in terms.items():
        assert abs(got.pair_terms[p] - term) <= 1e-10
    levels = [0.25, 0.75]
    grid = e_scmd(FWD, d1, REV, d3, levels, cfg, cache=cache)
    runs = [scmd_pair_terms_loop(FWD, d1, _quantiles(d1, q1), REV, d3, _quantiles(d3, q2),
                                 cfg, cache) for q1 in levels for q2 in levels]
    for p, term in grid.pair_terms.items():
        assert abs(term - math.fsum(t[p] for t in runs) / len(runs)) <= 1e-10


def test_forms_fall_back_to_dense_grams_past_the_rank_cap():
    d1 = sample_m1(3, 1500, 82)
    d3 = sample_m2(3, 1500, 83)
    cfg = EstimatorConfig(kernel=KernelConfig(1e-4), ridge_lambda=0.5)
    cache = GramCache(capacity=32)
    got = scmd(FWD, d1, REV, d3, UNIT, UNIT, cfg, cache)
    for j in ("X", "Y"):
        assert _union_rows(cache, [d1, d3], j, cfg.kernel) is None
    for p, term in scmd_pair_terms_loop(FWD, d1, UNIT, REV, d3, UNIT, cfg, cache).items():
        assert abs(got.pair_terms[p] - term) <= 1e-10


def test_identical_data_is_exactly_zero_through_low_rank_forms():
    # Y's rank above 256 is where BLAS blocks P'P (SYRK) unlike P1'P2 (GEMM)
    base = sample_m1(3, 1500, 84)
    twin = Dataset({v: base.column(v) for v in base.variable_names}, id="twin")
    cfg = EstimatorConfig(kernel=KernelConfig(0.02), ridge_lambda=0.5)
    cache = GramCache()
    assert scmd(FWD, base, FWD, twin, UNIT, UNIT, cfg, cache).value == 0.0
    assert scmd(FWD, base, FWD, base, UNIT, UNIT, cfg, cache).value == 0.0
    # equal samples share one block of the factor
    assert _union_rows(cache, [base], "Y", cfg.kernel).shape[0] > 256
    m = pairwise_matrix([base, twin], FWD, "scmd", cfg)
    assert m.values[0, 1] == 0.0


def count_gram_builds(monkeypatch):
    """The two sample columns of every Gram built from now on, by any module."""
    import sys

    import scmdist.kernel as kernel_mod

    calls = []
    real = kernel_mod.gram_entries

    def counting(col_a, col_b, cfg):
        calls.append((col_a, col_b))
        return real(col_a, col_b, cfg)

    for name, module in list(sys.modules.items()):
        if name.startswith("scmdist") and getattr(module, "gram_entries", None) is real:
            monkeypatch.setattr(module, "gram_entries", counting)
    return calls


def test_single_variable_kernels_build_no_n_by_n_gram(monkeypatch):
    import tracemalloc

    calls = count_gram_builds(monkeypatch)
    n = 6000
    d1, d2, d3 = sample_m1(3, n, 85), sample_m1(5, n, 86), sample_m2(3, n, 87)
    cfg = EstimatorConfig(kernel=KernelConfig(0.1), ridge_lambda=0.5)
    tracemalloc.start()
    try:
        cache = GramCache()
        scmd(FWD, d1, FWD, d2, UNIT, UNIT, cfg, cache)
        e_scmd(FWD, d1, REV, d3, cfg=cfg, cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 8 * n * n


def test_pairwise_matrix_caches_no_n_by_n_array(monkeypatch):
    import scmdist.cache as cache_mod
    from scmdist.cache import LOW_RANK_MAX_DIVISOR, _pivoted_rows

    grams = count_gram_builds(monkeypatch)
    labels = []
    real = cache_mod.CholFactor.__init__

    def counting(self, matrix, ridge, jitter, label, *args, **kwargs):
        labels.append(label)
        real(self, matrix, ridge, jitter, label, *args, **kwargs)

    monkeypatch.setattr(cache_mod.CholFactor, "__init__", counting)
    g = sachs_expert_graph()
    rng = np.random.default_rng(70)
    envs = []
    for k in range(3):
        coeffs = {e: float(rng.uniform(0.5, 1.0)) for e in sorted(g.edges)}
        model = LinearGaussianScm(g, coeffs, {v: 1.0 for v in g.nodes})
        envs.append(sample_scm(model, (60, 100, 100)[k], 70 + k, id=f"sachs-{k}"))
    cfg = EstimatorConfig(kernel=KernelConfig(1.0))
    cache = GramCache(capacity=64)
    m = pairwise_matrix(envs, g, "scmd", cfg, cache=cache)

    keys = {e.id: [(i,) + tuple(sorted(g.parents(i))) for i in g.nodes if g.descendants(i)]
            for e in envs}

    def dense(e, key):
        # one variable with a positive ridge is low-rank when the rank of its
        # rows over every environment's samples is within this one's N/4
        if len(key) > 1:
            return True
        x = np.concatenate([f.column(key[0]) for f in envs])
        rows = _pivoted_rows(x, 1.0, x.size // LOW_RANK_MAX_DIVISOR)
        return rows is None or rows.shape[0] > e.n // LOW_RANK_MAX_DIVISOR

    expected = sorted((e.id, v) for e in envs
                      for v in {v for key in keys[e.id] if dense(e, key) for v in key})
    # this data has both kinds of single-variable key, and the dense ones
    # share their Gram with a later joint key
    assert 0 < sum(dense(e, (v,)) for e in envs for v in ("PKC", "Plcg")) < 6
    owner = {id(e.column(v)): (e.id, v) for e in envs for v in g.nodes}
    assert all(a is b for a, b in grams)
    assert sorted(owner[id(a)] for a, _ in grams) == expected
    assert len(labels) == len(set(labels)) == sum(map(len, keys.values()))
    for key, entry in cache._entries.items():
        assert key[0] == "rows"
        assert entry is None or entry.shape[0] <= entry.shape[1] // LOW_RANK_MAX_DIVISOR
    means = [InterventionSpec.from_means(e).values for e in envs[:2]]
    terms = scmd_pair_terms_loop(g, envs[0], means[0], g, envs[1], means[1], cfg)
    assert abs(m.values[0, 1] - math.fsum(terms.values())) <= 1e-12
