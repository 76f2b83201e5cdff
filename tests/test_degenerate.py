"""Degenerate and invalid inputs: they work, or they fail loudly.

Empty sides, graphs without edges and k ≥ |R| must enumerate exactly what
brute force finds, in every Fig 11 row and in θ mode; a `k` that is not an
int ≥ 1 must be a ValueError before any enumeration, in the local engine
and in the frontier successor step alike.
"""
import pytest

from repro.bipartite.bruteforce import all_maximal_kbiplexes
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import BipartiteGraph, solution_key
from repro.core.extend import initial_solution_left
from repro.core.itraversal import VARIANTS, TraversalStats, btraversal, itraversal
from repro.distributed.frontier import frontier_enumerate, rs_successors

DEGENERATE = {
    "0x0": BipartiteGraph.from_edges([], n_left=0, n_right=0),
    "no-edges-3x2": BipartiteGraph.from_edges([], n_left=3, n_right=2),
    "empty-left": BipartiteGraph.from_edges([], n_left=0, n_right=3),
    "empty-right": BipartiteGraph.from_edges([], n_left=3, n_right=0),
    # k ≥ |R| at every k below: one right vertex.
    "one-right": BipartiteGraph.from_edges([(0, 0), (2, 0)], n_left=4, n_right=1),
    # k ≥ |R| at k = 3.
    "two-right": random_bipartite_gnp(n_left=4, n_right=2, p=0.5, seed=3),
}


def run(variant, g, k, **kw):
    """Emitted keys, checked against the stats' solution count."""
    st = TraversalStats()
    out = [solution_key(s) for s in variant(g, k, stats=st, **kw)]
    assert st.solutions == len(out)
    assert len(out) == len(set(out))
    return set(out)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", list(DEGENERATE))
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_degenerate_variants_match_bruteforce(variant, name, k):
    g = DEGENERATE[name]
    assert run(VARIANTS[variant], g, k) == all_maximal_kbiplexes(g, k)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", list(DEGENERATE))
@pytest.mark.parametrize("theta", [0, 1, 2, (0, 2), (2, 0)])
def test_degenerate_theta_match_bruteforce(theta, name, k):
    g = DEGENERATE[name]
    t_l, t_r = (theta, theta) if isinstance(theta, int) else theta
    want = {(a, b) for a, b in all_maximal_kbiplexes(g, k)
            if len(a) >= t_l and len(b) >= t_r}
    assert run(itraversal, g, k, theta=theta) == want


BAD_K = [0, -1, 1.5, 2.0, True, False, "1", None]


@pytest.mark.parametrize("k", BAD_K, ids=repr)
def test_bad_k_rejected(k):
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.5, seed=0)
    for enumerate_ in (itraversal, btraversal, VARIANTS["iTraversal-ES"]):
        with pytest.raises(ValueError, match="k must be"):
            list(enumerate_(g, k))
    h0 = initial_solution_left(g, 1)
    with pytest.raises(ValueError, match="k must be"):
        rs_successors(g, k, h0, None)


@pytest.mark.parametrize("k", BAD_K, ids=repr)
def test_bad_k_rejected_by_frontier(spark, k):
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.5, seed=0)
    with pytest.raises(ValueError, match="k must be"):
        frontier_enumerate(spark, g, k)
