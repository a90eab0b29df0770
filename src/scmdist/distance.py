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

One planner serves them all, entered only through :func:`_evaluate`, which
takes each couple of sides in one order so swaps are exact bit for bit.
The weights of do(V_i = v) do not depend on the target j, so each (graph,
dataset) side solves once per intervened variable i that reaches another
variable: one factor and one solve with a right-hand side per intervention
value of i (:mod:`scmdist.cache` says when the factor is low-rank and when
dense).  For each target j the side's weight columns are stacked into an
N x C matrix M, with the uniform marginal column wherever i does not reach
j.  The squared pair terms are read off diag(M1' K1 M1) - 2 M1' K12 M2 +
diag(M2' K2 M2) only at the combinations of intervention values a distance
uses (one, or E-SCMD's quantile levels): one pairs x combinations array per
couple of sides.

The Grams of V_j within and across the datasets are blocks of one Gram over
their concatenated samples, so one pivoted Cholesky factor L' (r x total N)
of that Gram serves every side: with P = L_s' M projected once per side
(about 2 N r C flops), the self-forms are diag(P' P) and each couple's
cross-form is P1' P2, and no N x N Gram is formed.  A call pivots each
variable once (:class:`scmdist.cache._CallRows`): the same factor's
column blocks give the low-rank Woodbury solves of a variable without
parents on each side.  The residual
K - L L' is positive semi-definite with diagonal at most 1e-13, so each
squared distance comes out low by at most 1e-13 (|w1|_1 + |w2|_1)^2.
Past rank total N / 4 the forms use the dense Grams instead, one GEMM of
the N x N Gram, built from the samples for each form, with M per side and
couple (about 2 N^2 C flops).  A pairwise matrix computes each
environment's weights, projections and self-forms once for all its pairs,
and pivots each variable once for all its environments.

One reduction, :func:`_reduce`, serves every distance: it clamps to 0 a
square at or above -1e-8 max(N1, N2) (below it raises NumericalError) and
sums the roots with ``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .cache import GramCache, _CallRows
from .dataset import Dataset
from .embedding import EstimatorConfig, _side_weights
from .errors import NumericalError, ValidationError, _real
from .graph import Dag
from .kernel import KernelConfig, gram_entries

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
# lower clip of the MMD kernel exponents, the exponent below which its
# entries are left out, and rows per strip; see mmd_vstat
EXP_FLOOR = -700.0
BAND_CUTOFF = -69.0
MMD_BLOCK = 128
# a squared distance below -CLAMP_PER_SAMPLE * max(N1, N2) is a numerical failure
CLAMP_PER_SAMPLE = 1e-8


@dataclass(frozen=True)
class InterventionSpec:
    """One intervention value per variable for one environment."""

    values: Mapping[str, float]
    origin: str = "user"

    def __post_init__(self):
        vals = {str(k): _real(v, f"intervention value for {k!r}")
                for k, v in dict(self.values).items()}
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_means(cls, data: Dataset) -> "InterventionSpec":
        """Each variable intervened at its own column mean."""
        return cls({v: data.mean(v) for v in data.variable_names}, origin="per-variable-mean")

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


def _check_config(cfg) -> None:
    if not isinstance(cfg, EstimatorConfig):
        raise ValidationError(f"cfg must be an EstimatorConfig, got {cfg!r}")


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
    serves every i that does not reach j), with an integer array whose rows,
    in the order of ``terms``, hold each intervened variable's column indices.
    """

    def __init__(self, g: Dag, data: Dataset, values: Mapping[str, Sequence[float]],
                 terms: Sequence[tuple[str, str]], cfg: EstimatorConfig, rows: _CallRows):
        self.data = data
        width = len(values[terms[0][0]])
        descendants = {i: g.descendants(i) for i in dict.fromkeys(i for i, _ in terms)}
        reaching = sorted({i for i, j in terms if j in descendants[i]})
        weights = _side_weights(data, {i: (tuple(sorted(g.parents(i))), values[i])
                                       for i in reaching}, cfg, rows)
        marginal = np.full((data.n, 1), 1.0 / data.n)
        sources: dict[str, list[str]] = {}
        for i, j in terms:
            sources.setdefault(j, []).append(i)
        self.stacks = {}
        for j, sources_j in sources.items():
            blocks, cols, at, marginal_at = [], [], 0, None
            for i in sources_j:
                if j in descendants[i]:
                    cols.append(np.arange(at, at + width))
                    blocks.append(weights[i])
                    at += width
                else:
                    if marginal_at is None:
                        marginal_at = at
                        blocks.append(marginal)
                        at += 1
                    cols.append(np.full(width, marginal_at))
            self.stacks[j] = (np.hstack(blocks), np.array(cols))


def _sq_tables(sides: Sequence[_Side], couples: Sequence[tuple[int, int]],
               pairs: Sequence[tuple[str, str]], combos, cfg: EstimatorConfig,
               rows: _CallRows) -> list[np.ndarray]:
    """Squared pair-term distances of every couple of sides, pairs x combinations.

    ``couples`` index into ``sides``, each in :func:`_evaluate`'s order, and
    the sides' terms are ``pairs``.  Entry [p, k] is the squared distance
    between do(V_i = first[k]-th value) on the first side and do(V_i =
    second[k]-th value) on the second, measured on V_j, with (i, j) = pairs[p]
    and (first, second) = ``combos``.
    """
    first, second = combos
    out = [np.empty((len(pairs), len(first))) for _ in couples]
    every = range(len(sides))

    for j in sides[0].stacks:
        stacks = {s: sides[s].stacks[j][0] for s in every}
        blocks = {s: rows.block(sides[s].data, j) for s in every}
        if blocks[0] is not None:
            # K_ab ~ L_a L_b', so M_a' K_ab M_b ~ P_a' P_b with P_s = L_s' M_s;
            # sides with equal samples share a block and get equal projections
            proj = {s: blocks[s] @ stacks[s] for s in every}

            def form(a, b):
                return _forms(proj[a], proj[b])
        else:
            def form(a, b):
                k = gram_entries(sides[a].data.column(j), sides[b].data.column(j), cfg.kernel)
                return _forms(stacks[a], k @ stacks[b])

        norms = {s: np.diagonal(form(s, s)) for s in every}
        at_j = [p for p, (_, t) in enumerate(pairs) if t == j]
        for sq, (a, b) in zip(out, couples):
            r, c = sides[a].stacks[j][1][:, first], sides[b].stacks[j][1][:, second]
            sq[at_j] = norms[a][r] - 2.0 * form(a, b)[r, c] + norms[b][c]
    return out


def _reduce(sides: Sequence[_Side], couples: Sequence[tuple[int, int]],
            pairs: Sequence[tuple[str, str]], cfg: EstimatorConfig, rows: _CallRows,
            combos=([0], [0])) -> list[tuple[float, dict]]:
    """(distance, pair terms) of every couple of sides.

    ``combos`` holds the value indices on the first and on the second side of
    the combinations of intervention values (see :func:`_sq_tables`); each
    pair term, and the distance, is the mean over them."""
    count = len(combos[0])
    out = []
    squares = _sq_tables(sides, couples, pairs, combos, cfg, rows)
    for (a, b), sq in zip(couples, squares):
        clamp = CLAMP_PER_SAMPLE * max(sides[a].data.n, sides[b].data.n)
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


def _evaluate(sides, couples: Sequence[tuple[int, int]], pairs: Sequence[tuple[str, str]],
              cfg: EstimatorConfig, cache: GramCache | None,
              combos=([0], [0])) -> list[tuple[float, dict]]:
    """(distance, pair terms) of every couple of ``sides``: the one way to :func:`_reduce`.

    A side is a (graph, dataset, intervention values per variable) triple,
    keyed by ``Dataset._order_key()``, then the graph's sorted edges, then
    its sorted values.  Each couple is evaluated with the lower key first,
    so a swap leaves its result unchanged bit for bit (sides whose keys tie
    are the same numbers); ``combos`` must be a symmetric set for that.
    """
    keys = [(d._order_key(), sorted(g.edges), sorted(values.items())) for g, d, values in sides]
    rows = _CallRows(cache or GramCache(), [d for _, d, _ in sides], cfg.kernel)
    built = [_Side(*side, pairs, cfg, rows) for side in sides]
    return _reduce(built, [(a, b) if keys[a] <= keys[b] else (b, a) for a, b in couples],
                   pairs, cfg, rows, combos)


def mimd(g1: Dag, d1: Dataset, g2: Dag, d2: Dataset, i: str, j: str,
         v1: float, v2: float, cfg: EstimatorConfig,
         cache: GramCache | None = None) -> float:
    """Estimated embedding distance between do(V_i=v1) in (g1, d1) and
    do(V_i=v2) in (g2, d2), measured on target variable V_j."""
    _check_config(cfg)
    if i == j:
        raise ValidationError("mimd requires i != j")
    for g, d in ((g1, d1), (g2, d2)):
        g._require(i, j)
        d.column(i)
        d.column(j)
    sides = [(g, d, {i: [InterventionSpec({i: v}).value_for(i)]})
             for g, d, v in ((g1, d1, v1), (g2, d2, v2))]
    return _evaluate(sides, [(0, 1)], [(i, j)], cfg, cache)[0][0]


def _shared_names(cfg, d1: Dataset, d2: Dataset, g1: Dag, g2: Dag) -> list[str]:
    """The sorted names of both graphs and datasets, once ``cfg`` and the names are checked."""
    _check_config(cfg)
    names = set(d1.variable_names)
    for other, what in ((set(d2.variable_names), "datasets"),
                        (set(g1.nodes), "graph 1 and data"),
                        (set(g2.nodes), "graph 2 and data")):
        if other != names:
            raise ValidationError(f"variable sets of the {what} differ: "
                                  f"{sorted(names)} vs {sorted(other)}")
    _check_two_variables(names)
    return sorted(names)


def _check_two_variables(names) -> None:
    # every pair term intervenes on one variable and measures another
    if len(names) < 2:
        raise ValidationError("SCMD-family distances need at least two variables, "
                              f"got only {sorted(names)}")


def _check_named(spec: InterventionSpec, names, where: str = "") -> None:
    outside = sorted(set(spec.values) - set(names))
    if outside:
        raise ValidationError(
            f"{where}intervention values name variables outside the graph: {outside}")


def _interventions(v1: InterventionSpec, v2: InterventionSpec) -> dict:
    return {"interventions_1": dict(v1.values), "interventions_2": dict(v2.values),
            "origins": (v1.origin, v2.origin)}


def _report(kind, result, dataset_ids, cfg: EstimatorConfig, **echo) -> DistanceReport:
    """The report of one (distance, pair terms) result of :func:`_evaluate`."""
    echo = {"bandwidth_sq": cfg.kernel.bandwidth_sq, "ridge_lambda": cfg.ridge_lambda, **echo}
    return DistanceReport(*result, dataset_ids=dataset_ids, kind=kind, config_echo=echo)


def _at_values(kind, g1, d1, g2, d2, v1, v2, cfg, cache, target=None) -> DistanceReport:
    """SCMD, or the P-SCMD of ``target``: two sides intervened at one value per variable."""
    names = _shared_names(cfg, d1, d2, g1, g2)
    if kind == "scmd":
        pairs, echo = [(i, j) for i in names for j in names if i != j], {}
    else:
        if target not in names:
            raise ValidationError(f"unknown target variable {target!r}")
        pairs, echo = [(i, target) for i in names if i != target], {"target": target}
    v1, v2 = (v if isinstance(v, InterventionSpec) else InterventionSpec(v) for v in (v1, v2))
    _check_named(v1, names)
    _check_named(v2, names)
    sides = [(g, d, {i: [v.value_for(i)] for i, _ in pairs})
             for g, d, v in ((g1, d1, v1), (g2, d2, v2))]
    [result] = _evaluate(sides, [(0, 1)], pairs, cfg, cache)
    return _report(kind, result, (d1.id, d2.id), cfg, **echo, **_interventions(v1, v2))


def scmd(g1: Dag, d1: Dataset, g2: Dag, d2: Dataset,
         v1: InterventionSpec | Mapping[str, float],
         v2: InterventionSpec | Mapping[str, float],
         cfg: EstimatorConfig, cache: GramCache | None = None) -> DistanceReport:
    """Structural causal model distance: sum of mimd over all ordered pairs."""
    return _at_values("scmd", g1, d1, g2, d2, v1, v2, cfg, cache)


def p_scmd(g1: Dag, d1: Dataset, g2: Dag, d2: Dataset, target: str,
           v1: InterventionSpec | Mapping[str, float],
           v2: InterventionSpec | Mapping[str, float],
           cfg: EstimatorConfig, cache: GramCache | None = None) -> DistanceReport:
    """Prediction-oriented variant: only pairs with target j fixed.

    ``v1`` and ``v2`` may hold a value for ``target`` itself; it is not read."""
    return _at_values("p-scmd", g1, d1, g2, d2, v1, v2, cfg, cache, target)


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
    _check_config(cfg)
    try:
        if isinstance(levels, str):  # "0.5" would iterate its characters
            raise TypeError
        levels = [_real(q, "quantile level") for q in levels]
    except TypeError:
        raise ValidationError(
            f"levels must be a sequence of quantile levels, got {levels!r}") from None
    if not levels:
        raise ValidationError("e_scmd needs at least one quantile level")
    for q in levels:
        if not 0.0 < q < 1.0:
            raise ValidationError(f"quantile level must be in (0, 1), got {q}")
    if pairing not in ("grid", "paired"):
        raise ValidationError(f"pairing must be 'grid' or 'paired', got {pairing!r}")
    names = _shared_names(cfg, d1, d2, g1, g2)
    pairs = [(i, j) for i in names for j in names if i != j]
    sides = [(g, d, {v: [d.quantile(v, q) for q in levels] for v in names})
             for g, d in ((g1, d1), (g2, d2))]
    count = len(levels)
    combos = (np.divmod(np.arange(count * count), count) if pairing == "grid"
              else (np.arange(count),) * 2)
    [result] = _evaluate(sides, [(0, 1)], pairs, cfg, cache, combos)
    return _report("e-scmd", result, (d1.id, d2.id), cfg, levels=levels, pairing=pairing)


def mmd_vstat(d1: Dataset, d2: Dataset, kcfg: KernelConfig) -> float:
    """Biased V-statistic estimate of the joint-distribution MMD.

    The joint kernel over all shared variables is the product of per-variable
    Gaussian kernels.  Both samples are sorted along the coordinate with the
    largest range over both (a stable sort) and shifted to keep norms small:
    for its self sum, a sample by its own mean; for the cross sum, both by
    the first sample's mean.  Each shifted sample u gets the factors
    L = [-2c u, c|u|^2, c] and R = [u, 1, |u|^2], with c = -1/(2 sigma_sq),
    so one GEMM of a strip of rows of L with R' gives the exponents
    c |u - w|^2 of the whole strip.  They are clipped to [EXP_FLOOR, 0] in
    one pass, exponentiated in place and summed.  The upper bound 0 undoes
    round-off that makes a square negative.  The floor keeps numpy's exp on
    its vectorized path, which it leaves for inputs below about -708 (results
    that are subnormal or underflow to 0 cost 15 to 100 times as much per
    element); it raises each kernel value by at most e^-700 (about 1e-304).

    The sums are band-limited.  Rows are taken in strips of MMD_BLOCK; for
    each strip, two binary searches over the other sample's sorted
    coordinate find the contiguous band of columns within
    reach = sqrt(2 sigma_sq * -BAND_CUTOFF) of the strip along it.  Every
    entry outside the band has exponent below BAND_CUTOFF = -69, so each of
    the three mean kernel values moves by less than e^-69, the square by at
    most 4 e^-69 (about 4e-30), and the MMD by at most 2e-15 even at 0.
    A self sum takes each strip's diagonal block plus its band to the right,
    doubled; the cross sum takes the diagonal blocks plus the bands to the
    right of both samples' strips.  Equal samples therefore add up the same
    entries in the same order on both sides and give exactly 0.0.  Memory
    stays O(MMD_BLOCK * N).  The datasets are taken in ``Dataset._order_key``
    order, so swapping them leaves the result unchanged bit for bit.
    """
    if not isinstance(kcfg, KernelConfig):
        raise ValidationError(f"kcfg must be a KernelConfig, got {kcfg!r}")
    if set(d1.variable_names) != set(d2.variable_names):
        raise ValidationError("datasets must share the same variable names")
    if d2._order_key() < d1._order_key():
        d1, d2 = d2, d1
    names = sorted(d1.variable_names)
    a = np.column_stack([d1.column(v) for v in names])
    b = np.column_stack([d2.column(v) for v in names])
    axis = int(np.argmax(np.maximum(a.max(axis=0), b.max(axis=0))
                         - np.minimum(a.min(axis=0), b.min(axis=0))))
    a = a[np.argsort(a[:, axis], kind="stable")]
    b = b[np.argsort(b[:, axis], kind="stable")]
    c = -1.0 / (2.0 * kcfg.bandwidth_sq)
    reach = math.sqrt(BAND_CUTOFF / c)

    def factors(u):
        norms = np.einsum("sd,sd->s", u, u)[:, None]
        ones = np.ones_like(norms)
        return (np.hstack([-2.0 * c * u, c * norms, c * ones]), np.hstack([u, ones, norms]),
                u[:, axis])

    def kernel_sum(left, right):
        e = left @ right.T
        np.clip(e, EXP_FLOOR, 0.0, out=e)
        return float(np.exp(e, out=e).sum())

    def strips(x, y, diagonal):
        """Sum of K over each strip of x's rows against the columns of y in
        its band: those within the strip's own row range, or those past it."""
        (left, _, kx), (_, right, ky) = x, y
        total = 0.0
        for lo in range(0, left.shape[0], MMD_BLOCK):
            hi = lo + MMD_BLOCK
            start = int(np.searchsorted(ky, kx[lo] - reach, "left"))
            stop = int(np.searchsorted(ky, kx[lo:hi][-1] + reach, "right"))
            first, last = (max(lo, start), min(hi, stop)) if diagonal else (max(hi, start), stop)
            total += kernel_sum(left[lo:hi], right[first:last])
        return total

    shift = a.mean(axis=0)
    fa, fb, fab = factors(a - shift), factors(b - b.mean(axis=0)), factors(b - shift)
    self_a = strips(fa, fa, True) + 2.0 * strips(fa, fa, False)
    self_b = strips(fb, fb, True) + 2.0 * strips(fb, fb, False)
    cross = strips(fa, fab, True) + (strips(fa, fab, False) + strips(fab, fa, False))
    n1, n2 = a.shape[0], b.shape[0]
    sq = self_a / n1 ** 2 + self_b / n2 ** 2 - 2.0 * cross / (n1 * n2)
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
    ``interventions`` mapping (environment id -> variable -> value) is used
    ("mmd" reads no intervention values, and takes neither).  Each unordered
    pair is computed once and mirrored.  For "scmd" each environment's
    weights and self-forms are computed once and shared by all its pairs.
    Evaluation is serial: ``threads`` accepts only 1.  A ``cache`` passed in
    may be shared with the caller's own threads.
    """
    _check_config(cfg)
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
    reads = metric == "scmd" and intervention_policy == "user"
    if not reads and (interventions is not None or intervention_policy == "user"):
        raise ValidationError(f"metric {metric!r} under policy {intervention_policy!r} "
                              "reads no intervention values")
    if threads != 1:
        raise ValidationError(f"evaluation is serial: threads must be 1, got {threads!r}")

    specs = {}
    if metric == "scmd":
        _check_two_variables(g.nodes)
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
                _check_named(specs[e.id], g.nodes, f"environment {e.id!r}: ")
        unknown = sorted(set(interventions or ()) - set(ids))
        if unknown:
            raise ValidationError(f"interventions name unknown environments {unknown}")

    pair_index = [(r, c) for r in range(len(envs)) for c in range(r + 1, len(envs))]
    reports = {}
    if metric == "mmd":
        results = [mmd_vstat(envs[r], envs[c], cfg.kernel) for r, c in pair_index]
    else:
        names = sorted(g.nodes)
        pairs = [(i, j) for i in names for j in names if i != j]
        sides = [(g, e, {i: [specs[e.id].value_for(i)] for i in names}) for e in envs]
        for (r, c), result in zip(pair_index, _evaluate(sides, pair_index, pairs, cfg, cache)):
            reports[(ids[r], ids[c])] = _report("scmd", result, (ids[r], ids[c]), cfg,
                                                **_interventions(specs[ids[r]], specs[ids[c]]))
        results = [report.value for report in reports.values()]

    values = np.zeros((len(envs), len(envs)))
    for (r, c), val in zip(pair_index, results):
        values[r, c] = values[c, r] = val
    return PairwiseMatrix(ids=tuple(ids), values=values, metric=metric, reports=reports)
