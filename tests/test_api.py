import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scmdist

DEMOS = Path(__file__).resolve().parents[1] / "demos"

EXPECTED_ALL = [
    "__version__",
    "Dag",
    "Dataset",
    "DistanceReport",
    "EstimatorConfig",
    "Gaussian1D",
    "GramCache",
    "InterventionSpec",
    "KernelConfig",
    "LinearGaussianScm",
    "NumericalError",
    "PairwiseMatrix",
    "ScmdistError",
    "ValidationError",
    "DEFAULT_ESCMD_LEVELS",
    "d_separated",
    "e_scmd",
    "embedding_distance_to_gaussian",
    "gaussian_embedding_inner",
    "gaussian_kernel",
    "load_dataset",
    "load_graph",
    "median_heuristic",
    "mimd",
    "mmd_gaussians",
    "mmd_joint_bivariate",
    "mmd_vstat",
    "p_scmd",
    "pairwise_matrix",
    "plugin_scmd",
    "sachs_expert_graph",
    "sample_m1",
    "sample_m2",
    "sample_scm",
    "save_dataset",
    "save_graph",
    "scmd",
    "scmd_case1",
    "scmd_case2",
    "sid",
    "write_report",
]

REMOVED = {
    "scmdist": ["WeightVector", "marginal_weights", "conditional_weights",
                "interventional_weights", "omega", "parents", "mmd_vstat_binned",
                "GramMatrix", "gram", "hadamard_gram", "reachable"],
    "scmdist.embedding": ["WeightVector", "marginal_weights", "conditional_weights",
                          "interventional_weights", "omega", "CASE_MARGINAL",
                          "CASE_CONDITIONAL", "CASE_INTERVENTIONAL"],
    "scmdist.graph": ["parents", "reachable"],
    "scmdist.oracle": ["mmd_vstat_binned", "_linear_bin_1d", "_binned_vstat_sum_1d",
                       "_bilinear_bin_2d", "_binned_vstat_sum_2d"],
}


def test_public_names_are_pinned_and_resolve():
    assert scmdist.__all__ == EXPECTED_ALL
    for name in scmdist.__all__:
        assert hasattr(scmdist, name), name


ORACLE_NAMES = ["Gaussian1D", "embedding_distance_to_gaussian", "gaussian_embedding_inner",
                "mmd_gaussians", "mmd_joint_bivariate", "plugin_scmd", "scmd_case1", "scmd_case2"]


def test_oracle_names_load_on_first_use():
    # in a fresh interpreter: this one may have imported scmdist.oracle already
    code = f"""
import sys
import scmdist
names = {ORACLE_NAMES!r}
assert "scmdist.oracle" not in sys.modules
assert set(names) <= set(dir(scmdist)) and set(names) <= set(scmdist.__all__)
assert "scmdist.oracle" not in sys.modules
case1 = scmdist.scmd_case1
import scmdist.oracle
assert case1 is scmdist.oracle.scmd_case1 and vars(scmdist)["scmd_case1"] is case1
namespace = {{}}
exec("from scmdist import *", namespace)
assert all(namespace[n] is getattr(scmdist.oracle, n) for n in names)
print("ok")
"""
    src = str(Path(scmdist.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.stdout.strip() == "ok", proc.stderr


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_stay_removed(module):
    mod = importlib.import_module(module)
    for name in REMOVED[module]:
        assert not hasattr(mod, name), f"{module}.{name}"
        assert name not in getattr(mod, "__all__", ())


def _scmdist_references(tree):
    """(module, name) for each name a demo takes from scmdist: imported
    with ``from scmdist... import`` or read as an attribute of an imported
    ``scmdist`` module."""
    aliases = set()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "scmdist" or node.module.startswith("scmdist.")):
            out += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "scmdist"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            out.append(("scmdist", node.attr))
    return out


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_imports_resolve(demo):
    tree = ast.parse((DEMOS / demo).read_text(encoding="utf-8"), filename=demo)
    refs = _scmdist_references(tree)
    assert refs, f"{demo} takes nothing from scmdist"
    for module, name in refs:
        if module == "scmdist":
            assert name in scmdist.__all__, f"{demo}: scmdist.{name}"
        else:
            assert hasattr(importlib.import_module(module), name), f"{demo}: {module}.{name}"


def test_package_version_matches_pyproject():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        assert tomllib.load(f)["project"]["version"] == scmdist.__version__
