"""Independent brute-force oracles used to cross-check the implementation.

Everything here is deliberately written against the *definitions* (path
enumeration, explicit blocking rules, exhaustive adjustment checks, direct
double sums, quadrature of kernel-mean integrals) rather than reusing the
package's algorithms.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

from scmdist import Dag


def random_dag(rng: np.random.Generator, d: int, p_edge: float = 0.4) -> Dag:
    names = [f"v{k}" for k in range(d)]
    order = list(rng.permutation(names))
    edges = []
    for a in range(d):
        for b in range(a + 1, d):
            if rng.random() < p_edge:
                edges.append((order[a], order[b]))
    return Dag(names, edges)


def topological_order_fifo_kahn(g: Dag) -> list[str]:
    """Kahn's algorithm with a FIFO queue seeded in node order, children in
    sorted order: the order ``Dag.topological_order`` has always returned."""
    indeg = {n: len(g.parents(n)) for n in g.nodes}
    ready = [n for n in g.nodes if indeg[n] == 0]
    order = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for c in sorted(g.children(n)):
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return order


def transitive_closure(g: Dag) -> dict:
    """Floyd-Warshall reachability over directed edges."""
    nodes = list(g.nodes)
    idx = {n: k for k, n in enumerate(nodes)}
    d = len(nodes)
    reach = [[False] * d for _ in range(d)]
    for u, v in g.edges:
        reach[idx[u]][idx[v]] = True
    for k in range(d):
        for i in range(d):
            if reach[i][k]:
                for j in range(d):
                    if reach[k][j]:
                        reach[i][j] = True
    return {(a, b): reach[idx[a]][idx[b]] for a in nodes for b in nodes}


def _all_paths(g: Dag, a: str, b: str):
    """All simple paths between a and b in the skeleton, as node sequences."""
    neighbors = {n: set() for n in g.nodes}
    for u, v in g.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    paths = []

    def walk(node, path):
        if node == b:
            paths.append(list(path))
            return
        for nxt in sorted(neighbors[node]):
            if nxt not in path:
                path.append(nxt)
                walk(nxt, path)
                path.pop()

    walk(a, [a])
    return paths


def _descendants(g: Dag, v: str) -> set:
    out, frontier = set(), [v]
    while frontier:
        for u, w in g.edges:
            if u == frontier[0] and w not in out:
                out.add(w)
                frontier.append(w)
        frontier.pop(0)
    return out


def _path_active(g: Dag, path, z: set) -> bool:
    """Standard d-connection rules applied node by node along one path."""
    for k in range(1, len(path) - 1):
        prev, node, nxt = path[k - 1], path[k], path[k + 1]
        into_prev = (prev, node) in g.edges
        into_next = (nxt, node) in g.edges
        collider = into_prev and into_next
        if collider:
            if node not in z and not (_descendants(g, node) & z):
                return False
        else:
            if node in z:
                return False
    return True


def d_separated_bruteforce(g: Dag, a: str, b: str, z) -> bool:
    z = set(z)
    return not any(_path_active(g, p, z) for p in _all_paths(g, a, b))


def _is_causal_path(g: Dag, path) -> bool:
    return all((path[k], path[k + 1]) in g.edges for k in range(len(path) - 1))


def valid_adjustment_bruteforce(g: Dag, i: str, j: str, z) -> bool:
    """Exhaustive single-node adjustment criterion via path enumeration."""
    z = set(z)
    if j in z:
        return j not in _descendants(g, i)
    paths = _all_paths(g, i, j)
    causal_nodes = set()
    for p in paths:
        if _is_causal_path(g, p):
            causal_nodes.update(p[1:])
    forbidden = set(causal_nodes)
    for w in causal_nodes:
        forbidden |= _descendants(g, w)
    if z & forbidden:
        return False
    for p in paths:
        if not _is_causal_path(g, p) and _path_active(g, p, z):
            return False
    return True


def sid_bruteforce(g1: Dag, g2: Dag) -> int:
    count = 0
    for i in g1.nodes:
        z = g1.parents(i)
        for j in g1.nodes:
            if i != j and not valid_adjustment_bruteforce(g2, i, j, z):
                count += 1
    return count


def mimd_sq_double_sum(w1, y1, w2, y2, bandwidth_sq: float) -> float:
    """Scalar-by-scalar expansion of the squared embedding distance."""
    from scmdist import KernelConfig, gaussian_kernel

    cfg = KernelConfig(bandwidth_sq)
    total = 0.0
    for s in range(len(w1)):
        for t in range(len(w1)):
            total += w1[s] * w1[t] * gaussian_kernel(y1[s], y1[t], cfg)
    for s in range(len(w2)):
        for t in range(len(w2)):
            total += w2[s] * w2[t] * gaussian_kernel(y2[s], y2[t], cfg)
    for s in range(len(w1)):
        for t in range(len(w2)):
            total -= 2.0 * w1[s] * w2[t] * gaussian_kernel(y1[s], y2[t], cfg)
    return total


def omega(g, data, i: str, j: str, v_i: float, cfg, cache=None) -> np.ndarray:
    """Embedding weights for the effect of do(V_i = v_i) on V_j, one pair at a
    time, by the case definitions.

    No directed path from i to j: the intervention cannot affect j, so the
    uniform marginal weights apply.  Otherwise the weights of do(V_i = v_i)
    with the parents of i as adjustment set (conditional when it is empty).
    """
    from scmdist.embedding import weight_columns

    if j not in g.descendants(i):
        return np.full(data.n, 1.0 / data.n)
    z = tuple(sorted(g.parents(i)))
    return weight_columns(data, i, z, [v_i], cfg, cache)[:, 0]


def scmd_pair_terms_loop(g1, d1, v1, g2, d2, v2, cfg, cache=None) -> dict:
    """SCMD pair terms by the per-pair definition: for every ordered pair
    (i, j), one weight vector per side from :func:`omega` and the three
    quadratic forms w1'K1w1 - 2 w1'K12w2 + w2'K2w2 over Grams assembled here.

    ``v1``, ``v2`` map each variable to its intervention value.  No canonical
    ordering of the two sides is applied.
    """
    from scmdist import GramCache

    cache = cache or GramCache()
    s2 = cfg.kernel.bandwidth_sq

    def gram(a, b):
        return np.exp(-np.subtract.outer(a, b) ** 2 / (2.0 * s2))

    names = sorted(d1.variable_names)
    terms = {}
    for i in names:
        for j in names:
            if i == j:
                continue
            w1 = omega(g1, d1, i, j, v1[i], cfg, cache)
            w2 = omega(g2, d2, i, j, v2[i], cfg, cache)
            y1, y2 = d1.column(j), d2.column(j)
            sq = (w1 @ gram(y1, y1) @ w1 - 2.0 * (w1 @ gram(y1, y2) @ w2)
                  + w2 @ gram(y2, y2) @ w2)
            terms[(i, j)] = math.sqrt(max(sq, 0.0))
    return terms


def median_heuristic_outer(col, max_points: int) -> float:
    """Median of the squared pairwise differences, from the full outer
    difference matrix and its strict upper triangle, over the same evenly
    strided subsample of at most ``max_points`` points as the package."""
    a = np.asarray(col, dtype=float).ravel()
    if a.size > max_points:
        a = a[np.linspace(0, a.size - 1, max_points).round().astype(int)]
    diff_sq = np.subtract.outer(a, a) ** 2
    return float(np.median(diff_sq[np.triu_indices(a.size, k=1)]))


def mmd_vstat_naive(a: np.ndarray, b: np.ndarray, bandwidth_sq: float) -> float:
    """Full-matrix V-statistic for 1-D or multi-D samples."""
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T

    def k(u, w):
        sq = ((u[:, None, :] - w[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-sq / (2.0 * bandwidth_sq))

    sq = (k(a, a).mean() + k(b, b).mean() - 2.0 * k(a, b).mean())
    return float(np.sqrt(max(sq, 0.0)))


class QuadratureNotConverged(RuntimeError):
    """Gauss-Hermite quadrature at n and 2n nodes per axis disagreed."""


@functools.lru_cache(maxsize=None)
def _hermite_rule(n: int):
    return hermgauss(n)


def _gaussian_nodes(mean, cov, n: int):
    """Tensor Gauss-Hermite rule for N(mean, cov) with n nodes per axis.

    Nodes are mean + sqrt(2) L t over the n^d grid t, with L the Cholesky
    factor of cov; weights are normalized to sum to one.  Nodes of weight
    below 1e-18 are dropped: together they carry at most n^d * 1e-18 of the
    mass, which bounds their share of any kernel mean (k <= 1).
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    chol = np.linalg.cholesky(np.atleast_2d(np.asarray(cov, dtype=float)))
    d = mean.size
    t, w = _hermite_rule(n)
    grid = np.stack(np.meshgrid(*[t] * d, indexing="ij"), axis=-1).reshape(-1, d)
    weights = functools.reduce(np.multiply.outer, [w] * d).ravel() / math.pi ** (d / 2)
    keep = weights >= 1e-18
    return mean + math.sqrt(2.0) * grid[keep] @ chol.T, weights[keep]


def _kernel_mean_at(mean_p, cov_p, mean_q, cov_q, bandwidth_sq: float, n: int) -> float:
    xp, wp = _gaussian_nodes(mean_p, cov_p, n)
    xq, wq = _gaussian_nodes(mean_q, cov_q, n)
    sq = sum(np.subtract.outer(xp[:, k], xq[:, k]) ** 2 for k in range(xp.shape[1]))
    return float(wp @ np.exp(-sq / (2.0 * bandwidth_sq)) @ wq)


def kernel_mean_quadrature(mean_p, cov_p, mean_q, cov_q, bandwidth_sq: float) -> float:
    """E k(X, Y) for independent X ~ N(mean_p, cov_p), Y ~ N(mean_q, cov_q).

    k is the isotropic Gaussian kernel with variance ``bandwidth_sq``.  The
    double integral is a tensor Gauss-Hermite sum over both node sets, with no
    sampling error and none of the closed-form algebra.  It is evaluated at n
    and 2n nodes per axis (n = 150 in 1-D, 40 in 2-D) and raises
    QuadratureNotConverged if the two differ by more than 1e-13; otherwise
    the finer value is returned.  Means and covariances are scalars (1-D) or
    arrays.
    """
    n = 150 if np.size(mean_p) == 1 else 40
    coarse = _kernel_mean_at(mean_p, cov_p, mean_q, cov_q, bandwidth_sq, n)
    fine = _kernel_mean_at(mean_p, cov_p, mean_q, cov_q, bandwidth_sq, 2 * n)
    if abs(coarse - fine) > 1e-13:
        raise QuadratureNotConverged(
            f"E k(X, Y) is {coarse!r} at {n} nodes per axis but {fine!r} at {2 * n}")
    return fine


def mmd_gaussians_quadrature(mean_p, cov_p, mean_q, cov_q, bandwidth_sq: float) -> float:
    """MMD between two Gaussians, expanded from three quadrature kernel means:
    sqrt(E k(X, X') + E k(Y, Y') - 2 E k(X, Y))."""
    sq = (kernel_mean_quadrature(mean_p, cov_p, mean_p, cov_p, bandwidth_sq)
          + kernel_mean_quadrature(mean_q, cov_q, mean_q, cov_q, bandwidth_sq)
          - 2.0 * kernel_mean_quadrature(mean_p, cov_p, mean_q, cov_q, bandwidth_sq))
    return math.sqrt(max(sq, 0.0))
