"""Differential tests for the baseline algorithms (iMB, FaPlexen, k-plex,
biclique, the δ-QB predicate)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.biclique import maximal_bicliques
from repro.baselines.imb import imb
from repro.baselines.inflation import (
    InflationBudgetExceeded,
    faplexen,
    inflated_edge_count,
)
from repro.baselines.kplex import enum_maximal_kplexes, inflate
from repro.bipartite.bruteforce import (
    all_maximal_bicliques,
    all_maximal_kbiplexes,
    all_maximal_kplexes,
)
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import BipartiteGraph, solution_key
from repro.bipartite.predicates import is_delta_qb


def keys(it):
    return {solution_key(s) for s in it}


# ---------------------------------------------------------------- k-plex
def _random_general(n, p, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i].add(j)
                adj[j].add(i)
    return [frozenset(s) for s in adj]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kplex_matches_bruteforce(k, seed):
    adj = _random_general(7, 0.45, seed)
    got = set(enum_maximal_kplexes(adj, k))
    assert got == all_maximal_kplexes(adj, k)


@pytest.mark.parametrize("seed", [0, 1])
def test_kplex_require_filters(seed):
    adj = _random_general(7, 0.5, seed)
    k = 2
    want = {p for p in all_maximal_kplexes(adj, k) if 0 in p}
    assert set(enum_maximal_kplexes(adj, k, require=0)) == want


def test_kplex_no_duplicates():
    adj = _random_general(8, 0.5, 5)
    out = list(enum_maximal_kplexes(adj, 2))
    assert len(out) == len(set(out))


def test_kplex_rejects_bad_k():
    with pytest.raises(ValueError):
        list(enum_maximal_kplexes([frozenset()], 0))


def test_inflate_structure():
    g = BipartiteGraph.from_biadjacency([[1, 0], [0, 1]])
    adj = inflate(g.n_left, g.n_right, g.adj_l)
    # Same-side cliques.
    assert 1 in adj[0] and 0 in adj[1]
    assert 3 in adj[2] and 2 in adj[3]
    # Cross edges only where the bipartite graph has them.
    assert 2 in adj[0] and 3 not in adj[0]
    assert inflated_edge_count(g) == 1 + 1 + 2


# -------------------------------------------------------------- FaPlexen
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_faplexen_matches_bruteforce(k, seed):
    g = random_bipartite_gnp(n_left=4, n_right=5, p=0.5, seed=seed)
    assert keys(faplexen(g, k)) == all_maximal_kbiplexes(g, k)


def test_faplexen_budget_guard():
    g = random_bipartite_gnp(n_left=30, n_right=30, p=0.1, seed=0)
    with pytest.raises(InflationBudgetExceeded):
        list(faplexen(g, 1, max_inflated_edges=100))


# ------------------------------------------------------------------- iMB
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed,p", [(0, 0.5), (1, 0.4), (2, 0.6)])
def test_imb_matches_bruteforce(k, seed, p):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=p, seed=seed)
    assert keys(imb(g, k)) == all_maximal_kbiplexes(g, k)


@pytest.mark.parametrize("tl,tr", [(2, 2), (3, 2), (1, 4)])
def test_imb_theta_matches_filtered_bruteforce(tl, tr):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.65, seed=3)
    k = 1
    want = {
        (l, r)
        for l, r in all_maximal_kbiplexes(g, k)
        if len(l) >= tl and len(r) >= tr
    }
    assert keys(imb(g, k, theta_l=tl, theta_r=tr)) == want


def test_imb_no_duplicates():
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.5, seed=9)
    out = [solution_key(s) for s in imb(g, 1)]
    assert len(out) == len(set(out))


def test_imb_rejects_bad_k():
    g = random_bipartite_gnp(n_left=3, n_right=3, p=0.5, seed=0)
    with pytest.raises(ValueError):
        list(imb(g, 0))


@pytest.mark.parametrize("bad", [-1, 1.5, True, "a", None])
@pytest.mark.parametrize("side", ["theta_l", "theta_r"])
def test_imb_rejects_bad_theta(side, bad):
    g = random_bipartite_gnp(n_left=3, n_right=3, p=0.5, seed=0)
    theta = {"theta_l": 1, "theta_r": 2, side: bad}
    with pytest.raises(ValueError, match="theta"):
        list(imb(g, 1, **theta))


@settings(max_examples=25, deadline=None)
@given(bits=st.integers(min_value=0, max_value=2**16 - 1))
def test_hypothesis_imb_and_faplexen(bits):
    rows = [[(bits >> (i * 4 + j)) & 1 for j in range(4)] for i in range(4)]
    g = BipartiteGraph.from_biadjacency(rows)
    want = all_maximal_kbiplexes(g, 1)
    assert keys(imb(g, 1)) == want
    assert keys(faplexen(g, 1)) == want


# -------------------------------------------------------------- biclique
@pytest.mark.parametrize("seed,p", [(0, 0.5), (1, 0.6), (2, 0.4), (3, 0.7)])
def test_bicliques_match_bruteforce(seed, p):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=p, seed=seed)
    assert keys(maximal_bicliques(g)) == all_maximal_bicliques(g)


@pytest.mark.parametrize("tl,tr", [(2, 1), (1, 2), (2, 2), (3, 2)])
def test_bicliques_thresholds(tl, tr):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.6, seed=4)
    want = all_maximal_bicliques(g, min_left=tl, min_right=tr)
    assert keys(maximal_bicliques(g, min_left=tl, min_right=tr)) == want


def test_bicliques_complete_graph():
    g = BipartiteGraph.from_biadjacency([[1, 1], [1, 1]])
    assert keys(maximal_bicliques(g)) == {((0, 1), (0, 1))}


def test_bicliques_no_duplicates():
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.5, seed=8)
    out = [solution_key(s) for s in maximal_bicliques(g)]
    assert len(out) == len(set(out))


def test_bicliques_reject_zero_threshold():
    g = BipartiteGraph.from_biadjacency([[1]])
    with pytest.raises(ValueError):
        list(maximal_bicliques(g, min_left=0))


@settings(max_examples=30, deadline=None)
@given(bits=st.integers(min_value=0, max_value=2**20 - 1))
def test_hypothesis_bicliques(bits):
    rows = [[(bits >> (i * 5 + j)) & 1 for j in range(5)] for i in range(4)]
    g = BipartiteGraph.from_biadjacency(rows)
    assert keys(maximal_bicliques(g)) == all_maximal_bicliques(g)


# ------------------------------------------------------------------ δ-QB
def test_delta_qb_predicate():
    g = BipartiteGraph.from_biadjacency([[1, 1, 0], [1, 1, 1]])
    # v0 misses 1 of 3 (needs δ ≥ 1/3); u2 misses 1 of 2 (needs δ ≥ 1/2).
    assert is_delta_qb(g, frozenset({0, 1}), frozenset({0, 1, 2}), 0.5)
    assert not is_delta_qb(g, frozenset({0, 1}), frozenset({0, 1, 2}), 0.34)
