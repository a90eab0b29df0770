import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scmdist

from scmdist import Dag, LinearGaussianScm, ValidationError, sample_m1, sample_m2, sample_scm
from scmdist.synth import m1_scm


def test_m1_sample_means_near_zero():
    n = 10_000
    d = sample_m1(3, n, 0)
    bound = 4 / np.sqrt(n)
    assert abs(d.column("X").mean()) < bound
    assert abs(d.column("Y").mean()) < bound * np.sqrt(10)


def test_m1_moments():
    d = sample_m1(3, 10_000, 1)
    x, y = d.column("X"), d.column("Y")
    assert np.var(y) == pytest.approx(10.0, rel=0.10)
    assert np.cov(x, y)[0, 1] == pytest.approx(3.0, rel=0.10)


def test_m2_matches_m1_joint_covariance():
    a = 3
    c1 = np.cov(np.vstack([sample_m1(a, 10_000, 2).column(v) for v in ("X", "Y")]))
    c2 = np.cov(np.vstack([sample_m2(a, 10_000, 3).column(v) for v in ("X", "Y")]))
    assert np.allclose(c1, c2, rtol=0.10, atol=0.15)
    assert np.var(sample_m2(a, 10_000, 4).column("X")) == pytest.approx(1.0, rel=0.10)


def test_sampling_deterministic():
    d1 = sample_m2(3, 500, 42)
    d2 = sample_m2(3, 500, 42)
    assert np.array_equal(d1.column("X"), d2.column("X"))
    assert np.array_equal(d1.column("Y"), d2.column("Y"))
    d3 = sample_m2(3, 500, 43)
    assert not np.array_equal(d1.column("X"), d3.column("X"))


def test_sample_scm_independent_gaussians():
    m = LinearGaussianScm(Dag(["A", "B"], []), {}, {"A": 1.0, "B": 4.0})
    d = sample_scm(m, 20_000, 5)
    assert np.var(d.column("A")) == pytest.approx(1.0, rel=0.05)
    assert np.var(d.column("B")) == pytest.approx(4.0, rel=0.05)
    assert abs(np.corrcoef(d.column("A"), d.column("B"))[0, 1]) < 0.05


def test_sample_scm_chain_variance_propagation():
    dag = Dag(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
    m = LinearGaussianScm(dag, {("X", "Y"): 1.0, ("Y", "Z"): 1.0},
                          {"X": 1.0, "Y": 1.0, "Z": 1.0})
    d = sample_scm(m, 10_000, 6)
    assert np.var(d.column("Z")) == pytest.approx(3.0, rel=0.10)


def test_m1_equals_its_general_scm_form():
    general = sample_scm(m1_scm(3.0), 400, 7)
    special = sample_m1(3.0, 400, 7)
    assert np.array_equal(general.column("X"), special.column("X"))
    assert np.array_equal(general.column("Y"), special.column("Y"))


def test_node_declaration_order_does_not_change_columns():
    edges = [("X", "Y"), ("Y", "Z")]
    coeffs = {("X", "Y"): 0.5, ("Y", "Z"): 2.0}
    noise = {"X": 1.0, "Y": 2.0, "Z": 0.5}
    a = sample_scm(LinearGaussianScm(Dag(["X", "Y", "Z"], edges), coeffs, noise), 1000, 8)
    b = sample_scm(LinearGaussianScm(Dag(["Z", "Y", "X"], edges), coeffs, noise), 1000, 8)
    for v in ("X", "Y", "Z"):
        assert np.array_equal(a.column(v), b.column(v))


def test_intercepts_shift_means():
    m = LinearGaussianScm(Dag(["A"], []), {}, {"A": 1.0}, intercepts={"A": 5.0})
    d = sample_scm(m, 5000, 9)
    assert d.column("A").mean() == pytest.approx(5.0, abs=0.1)


@pytest.mark.parametrize("num, coef, var_x, icpt",
                         [(np.float32, 0.7, 0.3, 0.1), (np.int64, 2, 3, -1)])
def test_numpy_parameters_sample_as_their_float_twins(num, coef, var_x, icpt):
    dag = Dag(["X", "Y"], [("X", "Y")])

    def model(conv):
        return LinearGaussianScm(dag, {("X", "Y"): conv(coef)}, {"X": conv(var_x), "Y": conv(2)},
                                 intercepts={"Y": conv(icpt)})

    m, twin = model(num), model(lambda x: float(num(x)))
    for params in (m.coefficients, m.noise_variances, m.intercepts):
        assert all(type(v) is float for v in params.values())
    got, want = sample_scm(m, 300, 3), sample_scm(twin, 300, 3)
    for v in ("X", "Y"):
        assert got.column(v).tobytes() == want.column(v).tobytes()


def test_model_validation():
    dag = Dag(["X", "Y"], [("X", "Y")])
    with pytest.raises(ValidationError):
        LinearGaussianScm(dag, {("Y", "X"): 1.0}, {"X": 1.0, "Y": 1.0})
    with pytest.raises(ValidationError):
        LinearGaussianScm(dag, {}, {"X": 1.0})
    with pytest.raises(ValidationError):
        LinearGaussianScm(dag, {}, {"X": 1.0, "Y": 0.0})
    with pytest.raises(ValidationError, match=r"noise_variances\['Y'\] must be a real number"):
        LinearGaussianScm(dag, {}, {"X": 1.0, "Y": "1"})
    with pytest.raises(ValidationError):
        sample_scm(LinearGaussianScm(dag, {}, {"X": 1.0, "Y": 1.0}), 0, 0)


SACHS_SAMPLE = """
import hashlib
import numpy as np
import scmdist as sd
g = sd.sachs_expert_graph()
rng = np.random.default_rng(5)
coefficients = {e: float(rng.uniform(-1.0, 1.0)) for e in sorted(g.edges)}
model = sd.LinearGaussianScm(g, coefficients, {v: 1.0 for v in g.nodes})
data = sd.sample_scm(model, 400, 11)
for v in sorted(g.nodes):
    print(v, hashlib.sha256(data.column(v).tobytes()).hexdigest())
"""


def test_sample_scm_bitwise_equal_across_hash_seeds():
    # parents are summed in name order, never in the hash order of a set
    src = str(Path(scmdist.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-c", SACHS_SAMPLE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") == len(scmdist.sachs_expert_graph().nodes)
    assert all(out == outputs[0] for out in outputs)
