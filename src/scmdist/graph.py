"""Causal DAGs: parent/reachability queries, d-separation, and the SID baseline.

Nodes are identified by name; edge direction is parent -> child.  All query
operations are read-only, so a ``Dag`` can be shared freely.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Sequence

from .errors import ValidationError

__all__ = ["Dag", "d_separated", "sid"]


class Dag:
    """Immutable directed acyclic graph over named variables."""

    def __init__(self, nodes: Sequence[str], edges: Iterable[tuple[str, str]]):
        node_list = list(nodes)
        if len(set(node_list)) != len(node_list):
            raise ValidationError("duplicate node names")
        edge_list = list(edges)
        node_set = set(node_list)
        seen = set()
        for u, v in edge_list:
            if u not in node_set or v not in node_set:
                raise ValidationError(f"edge ({u!r} -> {v!r}) references unknown node")
            if u == v:
                raise ValidationError(f"self-loop on {u!r}")
            if (u, v) in seen:
                raise ValidationError(f"duplicate edge ({u!r} -> {v!r})")
            seen.add((u, v))
        self._nodes = tuple(node_list)
        self._edges = frozenset(seen)
        self._children = {n: set() for n in node_list}
        self._parents = {n: set() for n in node_list}
        for u, v in seen:
            self._children[u].add(v)
            self._parents[v].add(u)
        # Kahn's algorithm: ``order`` is its FIFO queue; children go in sorted order
        indeg = {n: len(self._parents[n]) for n in node_list}
        order = [n for n in node_list if indeg[n] == 0]
        for n in order:
            for c in sorted(self._children[n]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    order.append(c)
        if len(order) < len(node_list):
            # every node left over has a parent left over: walk back to a repeat
            n = next(n for n in node_list if indeg[n])
            path, at = [], {}
            while n not in at:
                at[n] = len(path)
                path.append(n)
                n = min(p for p in self._parents[n] if indeg[p])
            cycle = path[at[n]:] + [n]
            raise ValidationError("graph has a directed cycle: " + " -> ".join(reversed(cycle)))
        self._order = tuple(order)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return self._edges

    def _require(self, *names: str):
        for n in names:
            if n not in self._parents:
                raise ValidationError(f"unknown node {n!r}")

    def parents(self, v: str) -> frozenset[str]:
        self._require(v)
        return frozenset(self._parents[v])

    def children(self, v: str) -> frozenset[str]:
        self._require(v)
        return frozenset(self._children[v])

    def _closure(self, v: str, step: dict[str, set[str]]) -> frozenset[str]:
        self._require(v)
        out, frontier = set(), [v]
        while frontier:
            for c in step[frontier.pop()]:
                if c not in out:
                    out.add(c)
                    frontier.append(c)
        return frozenset(out)

    def descendants(self, v: str) -> frozenset[str]:
        """Strict descendants of v (v itself excluded)."""
        return self._closure(v, self._children)

    def ancestors(self, v: str) -> frozenset[str]:
        """Strict ancestors of v (v itself excluded)."""
        return self._closure(v, self._parents)

    def topological_order(self) -> list[str]:
        return list(self._order)

    def without_edges(self, removed: Iterable[tuple[str, str]]) -> "Dag":
        removed = set(removed)
        return Dag(self._nodes, [e for e in self._edges if e not in removed])

    def __eq__(self, other):
        if not isinstance(other, Dag):
            return NotImplemented
        return set(self._nodes) == set(other._nodes) and self._edges == other._edges

    def __hash__(self):
        return hash((frozenset(self._nodes), self._edges))

    def __repr__(self):
        return f"Dag(nodes={list(self._nodes)!r}, edges={sorted(self._edges)!r})"


def d_separated(g: Dag, a: str, b: str, s: AbstractSet[str]) -> bool:
    """d-separation of a and b given s, via the moralized ancestral graph.

    Restrict to ancestors of {a, b} | s, marry co-parents, drop directions,
    delete s; a and b are d-separated iff they are then disconnected.
    """
    s = frozenset(s)
    g._require(a, b, *s)
    if a == b:
        raise ValidationError("d_separated requires two distinct endpoint nodes")
    if a in s or b in s:
        raise ValidationError("conditioning set must not contain the endpoints")

    relevant = {a, b} | s
    anc = set(relevant)
    for n in relevant:
        anc |= g.ancestors(n)

    neighbors = {n: set() for n in anc}
    for n in anc:
        ps = [p for p in g.parents(n) if p in anc]
        for p in ps:
            neighbors[n].add(p)
            neighbors[p].add(n)
        for idx, p in enumerate(ps):
            for q in ps[idx + 1:]:
                neighbors[p].add(q)
                neighbors[q].add(p)

    frontier, seen = [a], {a}
    while frontier:
        n = frontier.pop()
        for m in neighbors[n]:
            if m in s or m in seen:
                continue
            if m == b:
                return False
            seen.add(m)
            frontier.append(m)
    return True


def _valid_adjustment(g: Dag, i: str, j: str, z: frozenset[str]) -> bool:
    """Whether z is a valid adjustment set for the effect of i on j in g.

    Uses the adjustment criterion for a single intervention node: no element
    of z may be on a directed i -> ... -> j path or descend from one, and z
    must block every non-causal path from i to j.  When j itself sits in z
    the adjusted estimate degenerates to the marginal of j, which is correct
    exactly when j is not a descendant of i.
    """
    if j in z:
        return j not in g.descendants(i)
    de_i = g.descendants(i)
    causal_nodes = {w for w in de_i if w == j or j in g.descendants(w)}
    forbidden = set(causal_nodes)
    for w in causal_nodes:
        forbidden |= g.descendants(w)
    if z & forbidden:
        return False
    # Remove the first edge of every proper causal path, then require
    # d-separation: exactly "all non-causal paths from i to j are blocked".
    first_edges = [(i, c) for c in g.children(i) if c in causal_nodes]
    g_bd = g.without_edges(first_edges) if first_edges else g
    return d_separated(g_bd, i, j, z)


def sid(g1: Dag, g2: Dag) -> int:
    """Structural intervention distance between two DAGs on the same nodes.

    Counts ordered pairs (i, j), i != j, for which the parent set of i in
    ``g1`` fails the adjustment criterion for the effect of i on j in ``g2``.
    Asymmetric in general; sid(g, g) = 0.
    """
    if set(g1.nodes) != set(g2.nodes):
        raise ValidationError("sid requires identical node sets")
    count = 0
    for i in g1.nodes:
        z = g1.parents(i)
        for j in g1.nodes:
            if i == j:
                continue
            if not _valid_adjustment(g2, i, j, z):
                count += 1
    return count
