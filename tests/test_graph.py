"""Tests for the BipartiteGraph substrate."""
import pytest

from repro.bipartite.graph import BipartiteGraph, solution_key


@pytest.fixture()
def g():
    # 3 left, 4 right; left 0 fully connected, left 1 partial, left 2 one edge.
    return BipartiteGraph.from_edges(
        [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (2, 3)],
        n_left=3,
        n_right=4,
    )


def test_counts(g):
    assert g.n_left == 3
    assert g.n_right == 4
    assert g.n_edges == 7


def test_degrees(g):
    assert [g.degree_left(v) for v in range(3)] == [4, 2, 1]
    assert [g.degree_right(u) for u in range(4)] == [2, 1, 2, 2]


def test_edges_sorted(g):
    assert g.edges() == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (2, 3)]


def test_duplicate_edges_collapse():
    g = BipartiteGraph.from_edges([(0, 0), (0, 0), (0, 0)])
    assert g.n_edges == 1


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError):
        BipartiteGraph.from_edges([(0, 5)], n_left=1, n_right=2)


def test_from_biadjacency(g):
    g2 = BipartiteGraph.from_biadjacency(
        [[1, 1, 1, 1], [1, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert g2.edges() == g.edges()


def test_empty_graph():
    g = BipartiteGraph.from_edges([], n_left=0, n_right=0)
    assert g.n_edges == 0
    assert g.n_left == 0


def test_isolated_vertices():
    g = BipartiteGraph.from_edges([(0, 0)], n_left=3, n_right=2)
    assert g.degree_left(2) == 0
    assert g.degree_right(1) == 0


def test_gamma_and_miss(g):
    right = frozenset({0, 1, 3})
    assert g.miss_l(1, right) == 2
    left = frozenset({0, 1})
    assert g.miss_r(2, left) == 0


def test_transpose_roundtrip(g):
    gt = g.transpose()
    assert gt.n_left == g.n_right
    assert sorted((b, a) for a, b in gt.edges()) == g.edges()
    gtt = gt.transpose()
    assert gtt.edges() == g.edges()


def test_transpose_shares_adjacency(g):
    gt = g.transpose()
    assert gt.adj_l is g.adj_r
    assert gt.bits_l is g.bits_r and gt.bits_r is g.bits_l


def test_induced_reindexes(g):
    sub, left_ids, right_ids = g.induced([0, 2], [1, 3])
    assert left_ids == [0, 2]
    assert right_ids == [1, 3]
    # original edges kept: (0,1)->(0,0), (0,3)->(0,1), (2,3)->(1,1)
    assert sorted(sub.edges()) == [(0, 0), (0, 1), (1, 1)]


def test_induced_empty(g):
    sub, left_ids, right_ids = g.induced([], [])
    assert (sub.n_left, sub.n_right, sub.n_edges) == (0, 0, 0)


def test_solution_key_canonical():
    s1 = (frozenset([2, 0]), frozenset([1]))
    s2 = (frozenset([0, 2]), frozenset([1]))
    assert solution_key(s1) == solution_key(s2) == ((0, 2), (1,))


def test_solution_key_orderable():
    keys = sorted(
        [solution_key((frozenset([1]), frozenset([0]))),
         solution_key((frozenset([0]), frozenset([1])))]
    )
    assert keys[0] == ((0,), (1,))
