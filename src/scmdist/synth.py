"""Deterministic sampling of linear-Gaussian structural causal models.

Each node draws its exogenous noise from its own named random stream,
derived from (seed, node name).  Sampling therefore does not depend on the
order in which nodes were declared.  Parent contributions are added in
sorted name order, never in the hash order of a set, so a fixed
(model, n, seed) triple reproduces the dataset bit for bit in any process.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .dataset import Dataset
from .errors import ValidationError, _count, _real
from .graph import Dag

__all__ = ["LinearGaussianScm", "sample_scm", "sample_m1", "sample_m2", "forward_pair_dag"]


@dataclass(frozen=True)
class LinearGaussianScm:
    """Linear structural equations with independent Gaussian noises.

    Every node v satisfies
        v = intercept[v] + sum(coefficients[(p, v)] * p for p in parents(v)) + noise,
    with noise ~ N(0, noise_variances[v]).  The maps are kept as dicts of floats.
    """

    dag: Dag
    coefficients: Mapping[tuple[str, str], float]
    noise_variances: Mapping[str, float]
    intercepts: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # a finite float is kept as is, without formatting the message its check would need
        for f in ("coefficients", "noise_variances", "intercepts"):
            object.__setattr__(self, f, {
                k: v if type(v) is float and math.isfinite(v) else _real(v, f"{f}[{k!r}]")
                for k, v in dict(getattr(self, f)).items()})
        for edge in self.coefficients:
            if edge not in self.dag.edges:
                raise ValidationError(f"coefficient for non-edge {edge!r}")
        for node in self.dag.nodes:
            var = self.noise_variances.get(node)
            if var is None or var <= 0:
                raise ValidationError(f"node {node!r} needs a positive noise variance")
        for what, m in (("intercept", self.intercepts), ("noise variance", self.noise_variances)):
            for node in m:
                if node not in self.dag.nodes:
                    raise ValidationError(f"{what} for unknown node {node!r}")


def _node_rng(seed: int, name: str) -> np.random.Generator:
    # Stream keyed by (seed, crc32(name)): independent per node, order-free.
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(key,)))


def sample_scm(m: LinearGaussianScm, n: int, seed: int, id: str | None = None) -> Dataset:
    """Ancestral sampling of n i.i.d. joint observations from m."""
    n, seed = _count(n, "sample size", 1), _count(seed, "seed", 0)
    values: dict[str, np.ndarray] = {}
    for node in m.dag.topological_order():
        col = _node_rng(seed, node).normal(0.0, np.sqrt(m.noise_variances[node]), size=n)
        col += m.intercepts.get(node, 0.0)
        for parent in sorted(m.dag.parents(node)):
            col += m.coefficients.get((parent, node), 0.0) * values[parent]
        values[node] = col
    if id is None:
        id = f"scm-n{n}-seed{seed}"
    return Dataset({name: values[name] for name in m.dag.nodes}, id=id)


def forward_pair_dag() -> Dag:
    """The two-variable graph X -> Y."""
    return Dag(["X", "Y"], [("X", "Y")])


def reverse_pair_dag() -> Dag:
    """The two-variable graph Y -> X."""
    return Dag(["X", "Y"], [("Y", "X")])


def m1_scm(a: float) -> LinearGaussianScm:
    """X ~ N(0,1); Y = a*X + e_Y with e_Y ~ N(0,1)."""
    return LinearGaussianScm(
        dag=forward_pair_dag(),
        coefficients={("X", "Y"): float(a)},
        noise_variances={"X": 1.0, "Y": 1.0},
    )


def m2_scm(a: float) -> LinearGaussianScm:
    """Y ~ N(0,1+a^2); X = a/(1+a^2)*Y + e_X with e_X ~ N(0, 1/(1+a^2)).

    Induces the same joint Gaussian law as ``m1_scm(a)`` with the causal
    direction reversed.
    """
    a = float(a)
    s = 1.0 + a * a
    return LinearGaussianScm(
        dag=reverse_pair_dag(),
        coefficients={("Y", "X"): a / s},
        noise_variances={"Y": s, "X": 1.0 / s},
    )


def sample_m1(a: float, n: int, seed: int) -> Dataset:
    """n draws of (X, Y) from the forward model with slope a."""
    return sample_scm(m1_scm(a), n, seed, id=f"m1-a{a:g}-n{n}-seed{seed}")


def sample_m2(a: float, n: int, seed: int) -> Dataset:
    """n draws of (X, Y) from the reversed model with slope a."""
    return sample_scm(m2_scm(a), n, seed, id=f"m2-a{a:g}-n{n}-seed{seed}")
