"""Tests for connected components — local BFS and Spark label propagation."""
import pytest

from repro.bipartite.components import (
    connected_components,
    connected_components_edges,
)
from repro.bipartite.core_decomp import alpha_beta_core_edges
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import BipartiteGraph
from repro.bipartite.spark_graph import edges_to_spark


def test_single_component():
    g = BipartiteGraph.from_edges([(0, 0), (1, 0), (1, 1)], n_left=2, n_right=2)
    ll, lr = connected_components(g)
    assert ll == [0, 0] and lr == [0, 0]


def test_two_components_and_isolates():
    g = BipartiteGraph.from_edges([(0, 0), (2, 1)], n_left=4, n_right=3)
    ll, lr = connected_components(g)
    assert ll[0] == lr[0]
    assert ll[2] == lr[1]
    assert ll[0] != ll[2]
    # isolated vertices get their own labels
    assert len({*ll, *lr}) == 5


def test_component_labels_partition_edges():
    g = random_bipartite_gnp(n_left=15, n_right=15, p=0.08, seed=4)
    ll, lr = connected_components(g)
    for v, u in g.edges():
        assert ll[v] == lr[u]


@pytest.mark.parametrize("seed,p", [(0, 0.05), (1, 0.1), (2, 0.03)])
def test_spark_components_match_local(spark, seed, p):
    g = random_bipartite_gnp(n_left=20, n_right=20, p=p, seed=seed)
    if g.n_edges == 0:
        pytest.skip("empty edge set")
    ll, lr = connected_components(g)
    got = connected_components_edges(edges_to_spark(spark, g)).collect()
    # Same partition of edges: our labels and Spark's labels must induce
    # identical groupings.
    spark_label = {}
    for row in got:
        v, u, c = int(row["src"]), int(row["dst"]), int(row["component"])
        spark_label[("L", v)] = c
        spark_label[("R", u)] = c
        assert ll[v] == lr[u]
    # bijection between label sets on non-isolated vertices
    pairs = {
        (ll[v], spark_label[("L", v)]) for v in range(g.n_left) if g.adj_l[v]
    }
    assert len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)


def test_spark_components_chain(spark):
    # A path graph spanning several hops (stress for propagation rounds):
    # v0-u0-v1-u1-v2-u2 ... all one component.
    edges = []
    for i in range(6):
        edges.append((i, i))
        edges.append((i + 1, i))
    g = BipartiteGraph.from_edges(edges, n_left=7, n_right=6)
    got = connected_components_edges(edges_to_spark(spark, g)).collect()
    assert len({int(r["component"]) for r in got}) == 1


def two_blocks(seed: int) -> BipartiteGraph:
    """Two random blocks side by side, with no edge between them."""
    a = random_bipartite_gnp(n_left=7, n_right=6, p=0.6, seed=seed)
    b = random_bipartite_gnp(n_left=5, n_right=8, p=0.6, seed=seed + 100)
    edges = a.edges() + [(v + a.n_left, u + a.n_right) for v, u in b.edges()]
    return BipartiteGraph.from_edges(
        edges, n_left=a.n_left + b.n_left, n_right=a.n_right + b.n_right
    )


@pytest.mark.parametrize("seed", range(20))
def test_induced_component_is_the_component(spark, seed):
    """The partition enumerator takes each core component's graph as G
    induced on the component's vertices. That must be exactly the
    component's labelled edges: peeling is vertex-induced, and a G-edge
    between two core vertices joins them in one component."""
    g = (two_blocks(seed) if seed % 2 else
         random_bipartite_gnp(n_left=12, n_right=12, p=0.25 + 0.02 * seed, seed=seed))
    core = alpha_beta_core_edges(edges_to_spark(spark, g), alpha=2, beta=2)
    components = {}
    for row in connected_components_edges(core).collect():
        components.setdefault(row["component"], set()).add((row["src"], row["dst"]))
    if seed % 2:
        assert len(components) >= 2
    for edges in components.values():
        sub, lids, rids = g.induced({v for v, _ in edges}, {u for _, u in edges})
        assert {(lids[i], rids[j]) for i, j in sub.edges()} == edges
