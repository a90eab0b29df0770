"""SCMD, P-SCMD, E-SCMD, the joint-MMD baseline, and pairwise environment matrices.

Every distance here reduces pair terms, the interventional embedding
distances

    mimd^2 = w1' K1 w1 - 2 w1' K12 w2 + w2' K2 w2

with K1, K2, K12 the Gram matrices of the target variable V_j's samples
within and across the two datasets, and w1, w2 the weights of do(V_i = v) on
V_j (see :mod:`scmdist.embedding`).  SCMD sums mimd over all ordered
variable pairs (i, j), i != j; P-SCMD fixes the target j; E-SCMD averages
SCMD over intervention vectors built from per-variable empirical quantiles;
a pairwise matrix holds SCMD for every pair of environments.

One planner serves them all.  The weights of do(V_i = v) do not depend on
the target j, so each (graph, dataset) side solves once per intervened
variable i that reaches another variable: one factor and one solve with a
right-hand side per intervention value of i.  The factor is a pivoted
Cholesky factor of rank r (about N r^2 flops, see :mod:`scmdist.cache`)
when i has no parents, the ridge is positive and r <= N/4; otherwise it is
a dense Cholesky factor of the Gram over (i, parents) (N^3/3 flops).
For each target j the side's weight columns are stacked into an N x C
matrix M, with the uniform marginal column wherever i does not reach j.
Every pair term, for every combination of intervention values, is read off
diag(M1' K1 M1) - 2 M1' K12 M2 + diag(M2' K2 M2).

The Grams of V_j within and across the datasets are blocks of one Gram over
their concatenated samples, so one pivoted Cholesky factor L' (r x total N)
of that Gram serves every side: with P = L_s' M projected once per side
(about 2 N r C flops), the self-forms are diag(P' P) and each couple's
cross-form is P1' P2, and no N x N Gram is formed.  The residual
K - L L' is positive semi-definite with diagonal at most 1e-13, so each
squared distance comes out low by at most 1e-13 (|w1|_1 + |w2|_1)^2.
Past rank total N / 4 the forms use the dense Grams instead, one GEMM of
the N x N Gram with M per side and couple (about 2 N^2 C flops).  A
pairwise matrix computes each environment's weights, projections and
self-forms once for all its pairs.

One reduction, :func:`_reduce`, serves every distance: it reads the pair
terms at their combinations of intervention values (one, or E-SCMD's
quantile levels), clamps to 0 a square at or above -1e-8 max(N1, N2)
(below it raises NumericalError), and sums the roots with ``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .cache import GramCache
from .dataset import Dataset
from .embedding import EstimatorConfig, weight_columns
from .errors import NumericalError, ValidationError
from .graph import Dag
from .kernel import KernelConfig

__all__ = [
    "InterventionSpec",
    "DistanceReport",
    "PairwiseMatrix",
    "mimd",
    "scmd",
    "p_scmd",
    "e_scmd",
    "mmd_vstat",
    "pairwise_matrix",
]

DEFAULT_ESCMD_LEVELS = (0.1, 0.3, 0.5, 0.7, 0.9)
# lower clip of the MMD kernel exponents; see mmd_vstat
EXP_FLOOR = -700.0
# a squared distance below -CLAMP_PER_SAMPLE * max(N1, N2) is a numerical failure
CLAMP_PER_SAMPLE = 1e-8


@dataclass(frozen=True)
class InterventionSpec:
    """One intervention value per variable for one environment."""

    values: Mapping[str, float]
    origin: str = "user"

    def __post_init__(self):
        vals = {str(k): float(v) for k, v in dict(self.values).items()}
        for name, v in vals.items():
            if not np.isfinite(v):
                raise ValidationError(f"intervention value for {name!r} is not finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_means(cls, data: Dataset) -> "InterventionSpec":
        """Each variable intervened at its own column mean."""
        return cls({v: data.mean(v) for v in data.variable_names}, origin="per-variable-mean")

    @classmethod
    def from_quantile(cls, data: Dataset, level: float) -> "InterventionSpec":
        """Each variable intervened at its empirical quantile of ``level``."""
        return cls({v: data.quantile(v, level) for v in data.variable_names},
                   origin=f"quantile({level:g})")

    def value_for(self, name: str) -> float:
        if name not in self.values:
            raise ValidationError(f"no intervention value for variable {name!r}")
        return self.values[name]


@dataclass(frozen=True)
class DistanceReport:
    """A distance value with its per-pair decomposition and provenance."""

    value: float
    pair_terms: Mapping[tuple[str, str], float]
    dataset_ids: tuple[str, str]
    kind: str
    config_echo: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class PairwiseMatrix:
    """Symmetric zero-diagonal matrix of distances between environments."""

    ids: tuple[str, ...]
    values: np.ndarray
    metric: str
    reports: Mapping[tuple[str, str], DistanceReport] = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _as_spec(v) -> InterventionSpec:
    if isinstance(v, InterventionSpec):
        return v
    return InterventionSpec(v)


def _canonical_order(g1, d1, v1, g2, d2, v2):
    """Order the two (graph, dataset, intervention) triples by dataset id.

    Distances are symmetric under swapping the triples; fixing one evaluation
    order makes that symmetry exact in floating point as well.
    """
    if d1 is not d2 and d1.id == d2.id:
        raise ValidationError(
            f"distinct datasets share the id {d1.id!r}; give them distinct ids")
    if d2.id < d1.id:
        return g2, d2, v2, g1, d1, v1
    return g1, d1, v1, g2, d2, v2


def _forms(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """P1' P2 by one GEMM.  Self and cross forms both go through here, so
    identical data on both sides gives a distance of exactly zero.  numpy
    hands P' P to SYRK, which rounds differently, so a self form takes a copy."""
    return p1.T @ (p2.copy() if p2 is p1 else p2)


class _Side:
    """Everything that depends on one (graph, dataset) side of the pair terms.

    ``values[i]`` lists the intervention values of V_i.  For every target j
    of ``terms``, ``stacks[j]`` is the N x C matrix of weight columns of its
    intervened variables, one per value (a single uniform marginal column
    serves every i that does not reach j), with each variable's column
    indices.
    """

    def __init__(self, g: Dag, data: Dataset, values: Mapping[str, Sequence[float]],
                 terms: Sequence[tuple[str, str]], cfg: EstimatorConfig, cache: GramCache):
        self.data = data
        width = len(values[terms[0][0]])
        descendants = {i: g.descendants(i) for i, _ in terms}
        reaching = sorted({i for i, j in terms if j in descendants[i]})
        weights = {i: weight_columns(data, i, tuple(sorted(g.parents(i))), values[i], cfg, cache)
                   for i in reaching}
        marginal = np.full((data.n, 1), 1.0 / data.n)
        sources: dict[str, list[str]] = {}
        for i, j in terms:
            sources.setdefault(j, []).append(i)
        self.stacks = {}
        for j, sources_j in sources.items():
            blocks, cols, at, marginal_at = [], {}, 0, None
            for i in sources_j:
                if j in descendants[i]:
                    cols[i] = np.arange(at, at + width)
                    blocks.append(weights[i])
                    at += width
                else:
                    if marginal_at is None:
                        marginal_at = at
                        blocks.append(marginal)
                        at += 1
                    cols[i] = np.full(width, marginal_at)
            self.stacks[j] = (np.hstack(blocks), cols)


def _map(fn, items, threads: int) -> list:
    if threads > 1:
        # imported here: concurrent.futures (and the logging it loads) would
        # cost every single-threaded CLI process about 9 ms
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _sq_tables(sides: Sequence[_Side], couples: Sequence[tuple[int, int]],
               cfg: EstimatorConfig, cache: GramCache, threads: int = 1) -> list[dict]:
    """Squared pair-term distances for every couple of sides.

    ``couples`` index into ``sides``, each in canonical dataset-id order.  For
    each couple the result maps (i, j) to an array whose entry [a, b] is the
    squared distance between do(V_i = a-th value) on the first side and
    do(V_i = b-th value) on the second, measured on V_j.
    """
    used = sorted(range(len(sides)), key=lambda s: sides[s].data.id)

    def per_target(j):
        # one block of L' per distinct sample column of V_j, so that sides
        # with equal samples get equal projections
        owners, block = [], {}
        for s in used:
            x = sides[s].data.column(j)
            block[s] = next((b for b, o in enumerate(owners) if np.array_equal(o.column(j), x)),
                            len(owners))
            if block[s] == len(owners):
                owners.append(sides[s].data)
        rows = cache.rows(owners, j, cfg.kernel)
        stacks = {s: sides[s].stacks[j][0] for s in used}
        if rows is not None:
            # K_ab ~ L_a L_b', so M_a' K_ab M_b ~ P_a' P_b with P_s = L_s' M_s
            at = np.cumsum([0] + [d.n for d in owners])
            proj = {s: rows[:, at[block[s]]:at[block[s] + 1]] @ stacks[s] for s in used}

            def form(a, b):
                return _forms(proj[a], proj[b])
        else:
            def form(a, b):
                k = cache.gram(sides[a].data, sides[b].data, (j,), cfg.kernel)
                return _forms(stacks[a], k @ stacks[b])

        norms = {s: np.diagonal(form(s, s)) for s in used}
        out = []
        for a, b in couples:
            c1, c2 = sides[a].stacks[j][1], sides[b].stacks[j][1]
            cross = form(a, b)
            out.append({(i, j): norms[a][c1[i]][:, None] - 2.0 * cross[np.ix_(c1[i], c2[i])]
                        + norms[b][c2[i]][None, :] for i in c1})
        return out

    tables = [{} for _ in couples]
    for per_couple in _map(per_target, list(sides[0].stacks), threads):
        for table, part in zip(tables, per_couple):
            table.update(part)
    return tables


def _reduce(sides: Sequence[_Side], couples: Sequence[tuple[int, int]],
            pairs: Sequence[tuple[str, str]], cfg: EstimatorConfig, cache: GramCache,
            combos=([0], [0]), threads: int = 1) -> list[tuple[float, dict]]:
    """(distance, pair terms) of every couple of sides.

    ``combos`` holds the row (first side) and column (second side) indices
    into the :func:`_sq_tables` tables of the combinations of intervention
    values; each pair term, and the distance, is the mean over them."""
    rows, cols = (np.asarray(c, dtype=np.intp) for c in combos)
    count = len(rows)
    out = []
    for (a, b), table in zip(couples, _sq_tables(sides, couples, cfg, cache, threads)):
        clamp = CLAMP_PER_SAMPLE * max(sides[a].data.n, sides[b].data.n)
        # pairs x combinations, so the check and the roots are one pass each
        sq = np.array([table[p][rows, cols] for p in pairs]).reshape(len(pairs), count)
        worst = sq.min(axis=1)
        bad = np.flatnonzero(worst < -clamp)
        if bad.size:
            (i, j), low = pairs[bad[0]], worst[bad[0]]
            raise NumericalError(
                f"squared distance for pair ({i!r}, {j!r}) is {low:.3e} < -{clamp:.1e}; "
                f"numerical breakdown (bandwidth_sq={cfg.kernel.bandwidth_sq:g}, "
                f"ridge_lambda={cfg.ridge_lambda:g})"
            )
        roots = np.sqrt(np.maximum(sq, 0.0)).tolist()
        value = math.fsum(math.fsum(col) for col in zip(*roots)) / count
        out.append((value, {p: math.fsum(r) / count for p, r in zip(pairs, roots)}))
    return out


def _point_distance(g1, d1, v1, g2, d2, v2, pairs, cfg, cache) -> tuple[float, dict]:
    """(distance, pair terms) of two sides intervened at one value per variable."""
    g1, d1, v1, g2, d2, v2 = _canonical_order(g1, d1, v1, g2, d2, v2)
    sides = [_Side(g, d, {i: [v.value_for(i)] for i, _ in pairs}, pairs, cfg, cache)
             for g, d, v in ((g1, d1, v1), (g2, d2, v2))]
    [result] = _reduce(sides, [(0, 1)], pairs, cfg, cache)
    return result


def mimd(g1: Dag, d1: Dataset, g2: Dag, d2: Dataset, i: str, j: str,
         v1: float, v2: float, cfg: EstimatorConfig,
         cache: GramCache | None = None) -> float:
    """Estimated embedding distance between do(V_i=v1) in (g1, d1) and
    do(V_i=v2) in (g2, d2), measured on target variable V_j."""
    if i == j:
        raise ValidationError("mimd requires i != j")
    for g, d in ((g1, d1), (g2, d2)):
        g._require(i, j)
        d.column(i)
        d.column(j)
    return _point_distance(g1, d1, InterventionSpec({i: v1}), g2, d2, InterventionSpec({i: v2}),
                           [(i, j)], cfg, cache or GramCache())[0]


def _check_same_variables(d1: Dataset, d2: Dataset, g1: Dag, g2: Dag):
    names = set(d1.variable_names)
    for other, what in ((set(d2.variable_names), "datasets"),
                        (set(g1.nodes), "graph 1 and data"),
                        (set(g2.nodes), "graph 2 and data")):
        if other != names:
            raise ValidationError(f"variable sets of the {what} differ: "
                                  f"{sorted(names)} vs {sorted(other)}")
    return sorted(names)


def _config_echo(cfg: EstimatorConfig, **extra) -> dict:
    return {"bandwidth_sq": cfg.kernel.bandwidth_sq, "ridge_lambda": cfg.ridge_lambda, **extra}


def _point_report(kind, result, dataset_ids, v1, v2, cfg, **echo) -> DistanceReport:
    return DistanceReport(
        *result, dataset_ids=dataset_ids, kind=kind,
        config_echo=_config_echo(cfg, **echo, interventions_1=dict(v1.values),
                                 interventions_2=dict(v2.values),
                                 origins=(v1.origin, v2.origin)),
    )


def scmd(g1: Dag, d1: Dataset, g2: Dag, d2: Dataset,
         v1: InterventionSpec | Mapping[str, float],
         v2: InterventionSpec | Mapping[str, float],
         cfg: EstimatorConfig, cache: GramCache | None = None) -> DistanceReport:
    """Structural causal model distance: sum of mimd over all ordered pairs."""
    names = _check_same_variables(d1, d2, g1, g2)
    pairs = [(i, j) for i in names for j in names if i != j]
    v1, v2 = _as_spec(v1), _as_spec(v2)
    result = _point_distance(g1, d1, v1, g2, d2, v2, pairs, cfg, cache or GramCache())
    return _point_report("scmd", result, (d1.id, d2.id), v1, v2, cfg)


def p_scmd(g1: Dag, d1: Dataset, g2: Dag, d2: Dataset, target: str,
           v1: InterventionSpec | Mapping[str, float],
           v2: InterventionSpec | Mapping[str, float],
           cfg: EstimatorConfig, cache: GramCache | None = None) -> DistanceReport:
    """Prediction-oriented variant: only pairs with target j fixed."""
    names = _check_same_variables(d1, d2, g1, g2)
    if target not in names:
        raise ValidationError(f"unknown target variable {target!r}")
    pairs = [(i, target) for i in names if i != target]
    v1, v2 = _as_spec(v1), _as_spec(v2)
    result = _point_distance(g1, d1, v1, g2, d2, v2, pairs, cfg, cache or GramCache())
    return _point_report("p-scmd", result, (d1.id, d2.id), v1, v2, cfg, target=target)


def e_scmd(g1: Dag, d1: Dataset, g2: Dag, d2: Dataset,
           levels: Sequence[float] = DEFAULT_ESCMD_LEVELS,
           cfg: EstimatorConfig | None = None,
           pairing: str = "grid",
           cache: GramCache | None = None) -> DistanceReport:
    """Quantile-averaged SCMD, approximating the expectation over
    independently drawn intervention vectors from the two environments.

    Intervention vectors are each environment's own per-variable empirical
    quantiles at the given levels.  With ``pairing="grid"`` (default) the
    value is the mean of SCMD over all (level-in-1, level-in-2) combinations,
    mirroring independence of the two environments' intervention draws; with
    ``pairing="paired"`` both environments use the same level per term.
    Pair terms are averaged the same way.  Levels are indexed by position,
    so a repeated level counts once per occurrence.

    Grid pairing is the one that tracks the published estimates (0.5819 for
    the same-graph Case 1, 0.9473 for the reversed-edge Case 2): at N = 4000,
    three seeds and levels 0.2 to 0.8, grid pairing gives 0.534 in Case 1
    where paired levels give 0.339.  In Case 2 both give 0.900, because
    there each pair term varies with one environment's level only.
    """
    if cfg is None:
        raise ValidationError("e_scmd requires an EstimatorConfig")
    levels = [float(q) for q in levels]
    if not levels:
        raise ValidationError("e_scmd needs at least one quantile level")
    for q in levels:
        if not 0.0 < q < 1.0:
            raise ValidationError(f"quantile level must be in (0, 1), got {q}")
    if pairing not in ("grid", "paired"):
        raise ValidationError(f"pairing must be 'grid' or 'paired', got {pairing!r}")
    names = _check_same_variables(d1, d2, g1, g2)
    pairs = [(i, j) for i in names for j in names if i != j]
    cache = cache or GramCache()
    # the set of combinations is symmetric and every sum of the reduction is
    # an fsum, so the canonical swap of the two sides leaves the result unchanged
    ga, da, _, gb, db, _ = _canonical_order(g1, d1, None, g2, d2, None)
    sides = [_Side(g, d, {v: [d.quantile(v, q) for q in levels] for v in names},
                   pairs, cfg, cache) for g, d in ((ga, da), (gb, db))]
    count = len(levels)
    combos = (np.divmod(np.arange(count * count), count) if pairing == "grid"
              else (np.arange(count),) * 2)
    [(value, pair_terms)] = _reduce(sides, [(0, 1)], pairs, cfg, cache, combos)
    return DistanceReport(
        value=value, pair_terms=pair_terms, dataset_ids=(d1.id, d2.id), kind="e-scmd",
        config_echo=_config_echo(cfg, levels=levels, pairing=pairing),
    )


def mmd_vstat(d1: Dataset, d2: Dataset, kcfg: KernelConfig, block: int = 512) -> float:
    """Biased V-statistic estimate of the joint-distribution MMD.

    The joint kernel over all shared variables is the product of per-variable
    Gaussian kernels.  After shifting both samples by one common vector (to
    keep norms small), each sample u gets the factors L = [-2c u, c|u|^2, c]
    and R = [u, 1, |u|^2], with c = -1/(2 sigma_sq), so one GEMM of a row
    block of L with R' gives the exponents c |u - w|^2 of the whole block.
    They are clipped to [EXP_FLOOR, 0] in one pass, exponentiated in place and
    summed: 4 passes per block.  The upper bound 0 undoes round-off that
    makes a square negative.  The floor keeps numpy's exp on its vectorized
    path, which it leaves for inputs below about -708 (results that are
    subnormal or underflow to 0 cost 15 to 100 times as much per element);
    it raises each kernel value by at most e^-700 (about 1e-304).  Each self
    term sums one triangle of row blocks and doubles the off-diagonal part.
    Rows are taken ``block`` at a time, so memory stays O(block * N).  The
    datasets are taken in dataset-id order, so swapping them leaves the
    result unchanged bit for bit.
    """
    if set(d1.variable_names) != set(d2.variable_names):
        raise ValidationError("datasets must share the same variable names")
    if block < 1:
        raise ValidationError(f"block must be >= 1, got {block}")
    _, d1, _, _, d2, _ = _canonical_order(None, d1, None, None, d2, None)
    names = sorted(d1.variable_names)
    a = np.column_stack([d1.column(v) for v in names])
    b = np.column_stack([d2.column(v) for v in names])
    shift = a.mean(axis=0)
    a, b = a - shift, b - shift
    c = -1.0 / (2.0 * kcfg.bandwidth_sq)

    def factors(u):
        norms = np.einsum("sd,sd->s", u, u)[:, None]
        ones = np.ones_like(norms)
        return np.hstack([-2.0 * c * u, c * norms, c * ones]), np.hstack([u, ones, norms])

    def kernel_sum(left, right):
        e = left @ right.T
        np.clip(e, EXP_FLOOR, 0.0, out=e)
        return float(np.exp(e, out=e).sum())

    def self_total(left, right):
        s = 0.0
        for lo in range(0, left.shape[0], block):
            hi = lo + block
            s += kernel_sum(left[lo:hi], right[lo:hi]) + 2.0 * kernel_sum(left[lo:hi], right[hi:])
        return s

    def cross_total(left, right):
        return sum(kernel_sum(left[lo:lo + block], right) for lo in range(0, left.shape[0], block))

    (la, ra), (lb, rb) = factors(a), factors(b)
    n1, n2 = a.shape[0], b.shape[0]
    sq = (self_total(la, ra) / n1 ** 2 + self_total(lb, rb) / n2 ** 2
          - 2.0 * cross_total(la, rb) / (n1 * n2))
    return math.sqrt(max(sq, 0.0))


def pairwise_matrix(envs: Sequence[Dataset], g: Dag, metric: str,
                    cfg: EstimatorConfig,
                    intervention_policy: str = "per-variable-mean",
                    interventions: Mapping[str, Mapping[str, float]] | None = None,
                    threads: int = 1,
                    cache: GramCache | None = None) -> PairwiseMatrix:
    """Symmetric distance matrix between environments sharing one causal graph.

    ``metric`` is "scmd" or "mmd".  Under the "per-variable-mean" policy each
    environment is intervened at its own column means; under "user" the
    ``interventions`` mapping (environment id -> variable -> value) is used.
    Each unordered pair is computed once and mirrored.  For "scmd" each
    environment's weights and self-forms are computed once and shared by all
    its pairs; ``threads`` workers run over environments, then over target
    variables (over pairs for "mmd"), and give the same matrix for any count.
    """
    envs = list(envs)
    if len(envs) < 2:
        raise ValidationError("pairwise_matrix needs at least 2 environments")
    ids = [e.id for e in envs]
    if len(set(ids)) != len(ids):
        raise ValidationError("environment datasets must have distinct ids")
    if metric not in ("scmd", "mmd"):
        raise ValidationError(f"metric must be 'scmd' or 'mmd', got {metric!r}")
    if intervention_policy not in ("per-variable-mean", "user"):
        raise ValidationError(f"unknown intervention policy {intervention_policy!r}")

    specs = {}
    if metric == "scmd":
        for e in envs:
            if set(e.variable_names) != set(g.nodes):
                raise ValidationError(
                    f"environment {e.id!r} variables do not match the graph nodes")
            if intervention_policy == "per-variable-mean":
                specs[e.id] = InterventionSpec.from_means(e)
            else:
                if interventions is None or e.id not in interventions:
                    raise ValidationError(
                        f"policy 'user' needs intervention values for environment {e.id!r}")
                specs[e.id] = InterventionSpec(interventions[e.id])

    pair_index = [(r, c) for r in range(len(envs)) for c in range(r + 1, len(envs))]
    reports = {}
    if metric == "mmd":
        results = _map(lambda rc: mmd_vstat(envs[rc[0]], envs[rc[1]], cfg.kernel),
                       pair_index, threads)
    else:
        cache = cache or GramCache(capacity=max(12, 4 * len(envs)))
        names = sorted(g.nodes)
        pairs = [(i, j) for i in names for j in names if i != j]
        sides = _map(lambda e: _Side(g, e, {i: [specs[e.id].value_for(i)] for i in names},
                                     pairs, cfg, cache), envs, threads)
        # each pair's cross-forms in canonical dataset-id order, as scmd does
        couples = [(r, c) if ids[r] < ids[c] else (c, r) for r, c in pair_index]
        for (r, c), result in zip(pair_index, _reduce(sides, couples, pairs, cfg, cache,
                                                      threads=threads)):
            reports[(ids[r], ids[c])] = _point_report(
                "scmd", result, (ids[r], ids[c]), specs[ids[r]], specs[ids[c]], cfg)
        results = [report.value for report in reports.values()]

    values = np.zeros((len(envs), len(envs)))
    for (r, c), val in zip(pair_index, results):
        values[r, c] = values[c, r] = val
    return PairwiseMatrix(ids=tuple(ids), values=values, metric=metric, reports=reports)
