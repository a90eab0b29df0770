"""Kernel-based distances between structural causal models.

Estimates SCMD (and its prediction-oriented and expectation variants)
between two environments from observational samples and known causal DAGs,
alongside the MMD and SID baselines and closed-form Gaussian references.
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
from .oracle import (
    Gaussian1D,
    embedding_distance_to_gaussian,
    gaussian_embedding_inner,
    mmd_gaussians,
    mmd_joint_bivariate,
    plugin_scmd,
    scmd_case1,
    scmd_case2,
)
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
