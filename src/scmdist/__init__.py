"""Kernel-based distances between structural causal models.

Estimates SCMD (and its prediction-oriented and expectation variants)
between two environments from observational samples and known causal DAGs,
alongside the MMD and SID baselines and closed-form Gaussian references.

The closed-form references (the names from :mod:`scmdist.oracle`) load on
first use, so a process that reads none of them, as every CLI command does,
never imports that module.
"""

from ._version import __version__
from .cache import GramCache
from .dataset import Dataset
from .distance import (
    DEFAULT_ESCMD_LEVELS,
    DistanceReport,
    InterventionSpec,
    PairwiseMatrix,
    e_scmd,
    mimd,
    mmd_vstat,
    p_scmd,
    pairwise_matrix,
    scmd,
)
from .embedding import EstimatorConfig
from .errors import NumericalError, ScmdistError, ValidationError
from .graph import Dag, d_separated, sid
from .io import (
    load_dataset,
    load_graph,
    sachs_expert_graph,
    save_dataset,
    save_graph,
    write_report,
)
from .kernel import KernelConfig, gaussian_kernel, median_heuristic
from .synth import LinearGaussianScm, sample_m1, sample_m2, sample_scm

__all__ = [
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

_ORACLE_NAMES = frozenset({
    "Gaussian1D",
    "embedding_distance_to_gaussian",
    "gaussian_embedding_inner",
    "mmd_gaussians",
    "mmd_joint_bivariate",
    "plugin_scmd",
    "scmd_case1",
    "scmd_case2",
})


def __getattr__(name):
    # PEP 562: called only for names not yet in the module's namespace
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)
