import numpy as np
import pytest

from scmdist import Dag, ValidationError, d_separated, sachs_expert_graph, sid

from oracles import (
    d_separated_bruteforce,
    random_dag,
    sid_bruteforce,
    topological_order_fifo_kahn,
    transitive_closure,
)


def chain():
    return Dag(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])


def test_parents_chain_and_root():
    g = chain()
    assert g.parents("Z") == {"Y"}
    assert g.parents("X") == frozenset()


def test_parents_unknown_node():
    with pytest.raises(ValidationError):
        chain().parents("W")


def test_sachs_mid_pathway_parents():
    g = sachs_expert_graph()
    assert g.parents("Mek") == {"PKC", "PKA", "Raf"}
    assert g.parents("PIP2") == {"Plcg", "PIP3"}
    assert len(g.nodes) == 11
    assert len(g.edges) == 17


def test_reachable_direction():
    g = Dag(["X", "Y"], [("X", "Y")])
    assert "Y" in g.descendants("X")
    assert "X" not in g.descendants("Y")


def test_reachable_disconnected():
    g = Dag(["A", "B"], [])
    assert "B" not in g.descendants("A")


def test_reachable_matches_transitive_closure():
    rng = np.random.default_rng(10)
    for _ in range(25):
        g = random_dag(rng, 8, p_edge=0.35)
        closure = transitive_closure(g)
        for a in g.nodes:
            for b in g.nodes:
                if a != b:
                    assert (b in g.descendants(a)) == closure[(a, b)]


def test_reachable_transitivity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_dag(rng, 7, p_edge=0.4)
        for a in g.nodes:
            for b in g.nodes:
                for c in g.nodes:
                    if len({a, b, c}) == 3 and b in g.descendants(a) and c in g.descendants(b):
                        assert c in g.descendants(a)


def test_collider_blocks_without_conditioning():
    g = Dag(["X", "Y", "Z"], [("X", "Z"), ("Y", "Z")])
    assert d_separated(g, "X", "Y", set())
    assert not d_separated(g, "X", "Y", {"Z"})


def test_d_separation_symmetry_in_endpoints():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = random_dag(rng, 6)
        nodes = list(g.nodes)
        a, b = nodes[0], nodes[1]
        for s in (set(), set(nodes[2:4])):
            assert d_separated(g, a, b, s) == d_separated(g, b, a, s)


def test_d_separation_against_path_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(40):
        d = int(rng.integers(3, 7))
        g = random_dag(rng, d, p_edge=0.45)
        nodes = list(g.nodes)
        a, b = rng.choice(nodes, size=2, replace=False)
        others = [n for n in nodes if n not in (a, b)]
        size = int(rng.integers(0, len(others) + 1))
        s = set(rng.choice(others, size=size, replace=False)) if size else set()
        assert d_separated(g, a, b, s) == d_separated_bruteforce(g, a, b, s)


def test_d_separation_input_validation():
    g = chain()
    with pytest.raises(ValidationError):
        d_separated(g, "X", "X", set())
    with pytest.raises(ValidationError):
        d_separated(g, "X", "Y", {"X"})
    with pytest.raises(ValidationError):
        d_separated(g, "X", "W", set())


def test_sid_self_distance_zero():
    rng = np.random.default_rng(14)
    for _ in range(10):
        g = random_dag(rng, 6)
        assert sid(g, g) == 0
    assert sid(sachs_expert_graph(), sachs_expert_graph()) == 0


def test_sid_reversed_two_node():
    fwd = Dag(["X", "Y"], [("X", "Y")])
    rev = Dag(["X", "Y"], [("Y", "X")])
    assert sid(fwd, rev) == 2
    assert sid(rev, fwd) == 2


def test_sid_bounds_and_oracle():
    rng = np.random.default_rng(15)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        g1 = random_dag(rng, d, p_edge=0.5)
        g2 = random_dag(rng, d, p_edge=0.5)
        value = sid(g1, g2)
        assert 0 <= value <= d * (d - 1)
        assert value == sid_bruteforce(g1, g2)


def test_sid_node_set_mismatch():
    with pytest.raises(ValidationError):
        sid(Dag(["A", "B"], []), Dag(["A", "C"], []))


def test_dag_rejects_cycle_with_sequence():
    with pytest.raises(ValidationError) as err:
        Dag(["X", "Y"], [("X", "Y"), ("Y", "X")])
    assert "cycle" in str(err.value)
    assert "X" in str(err.value) and "Y" in str(err.value)


def test_topological_order_is_fifo_kahn_with_every_edge_forward():
    rng = np.random.default_rng(16)
    graphs = [sachs_expert_graph(), chain()]
    graphs += [random_dag(rng, int(rng.integers(1, 12)), p_edge=0.4) for _ in range(80)]
    for g in graphs:
        order = g.topological_order()
        assert order == topological_order_fifo_kahn(g)
        assert sorted(order) == sorted(g.nodes)
        pos = {n: k for k, n in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v in g.edges)


def test_dag_cycle_message_follows_edges():
    edges = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "B"), ("D", "E")]
    # listed backwards, the walk starts at E, off the cycle
    for nodes, expected in ((list("ABCDE"), list("BCDB")), (list("EDCBA"), list("DBCD"))):
        with pytest.raises(ValidationError) as err:
            Dag(nodes, edges)
        cycle = str(err.value).split(": ", 1)[1].split(" -> ")
        assert cycle == expected
        assert all((u, v) in edges for u, v in zip(cycle, cycle[1:]))


def test_dag_rejects_bad_edges():
    with pytest.raises(ValidationError):
        Dag(["X"], [("X", "X")])
    with pytest.raises(ValidationError):
        Dag(["X", "Y"], [("X", "Y"), ("X", "Y")])
    with pytest.raises(ValidationError):
        Dag(["X"], [("X", "W")])
    with pytest.raises(ValidationError):
        Dag(["X", "X"], [])
    for edge in (("X",), ("X", "Y", "Z"), 5, "XY"):
        with pytest.raises(ValidationError, match="is not a \\(parent, child\\) pair"):
            Dag(["X", "Y", "Z"], [edge])
