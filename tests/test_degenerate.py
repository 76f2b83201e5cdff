"""Degenerate and invalid inputs: they work, or they fail loudly.

Empty sides, graphs without edges and k ≥ |R| must enumerate exactly what
brute force finds, in every Fig 11 row, in the baselines, in θ mode and
through both Spark enumerators; a `k` that is not an int ≥ 1 must be a ValueError before any
enumeration, in the local engine, the baselines, the frontier successor
step and both Spark enumerators alike.
"""
import pytest

from repro.baselines.imb import imb
from repro.baselines.inflation import faplexen
from repro.bipartite.bruteforce import all_maximal_kbiplexes
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import BipartiteGraph, solution_key
from repro.core.itraversal import VARIANTS, TraversalStats, btraversal, itraversal
from repro.distributed.frontier import (
    collect_solutions,
    frontier_enumerate,
    frontier_step,
)
from repro.distributed.partition import enumerate_large_mbps_partitioned

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

# §6's baselines; bTraversal is the inflation variant of its Fig 11 row.
BASELINES = {"iMB": imb, "FaPlexen": faplexen, "bTraversal": btraversal}


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
@pytest.mark.parametrize("baseline", list(BASELINES))
def test_degenerate_baselines_match_bruteforce(baseline, name, k):
    g = DEGENERATE[name]
    got = [solution_key(s) for s in BASELINES[baseline](g, k)]
    assert len(got) == len(set(got))
    assert set(got) == all_maximal_kbiplexes(g, k)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", list(DEGENERATE))
@pytest.mark.parametrize("theta", [0, 1, 2, (0, 2), (2, 0)])
def test_degenerate_theta_match_bruteforce(theta, name, k):
    g = DEGENERATE[name]
    t_l, t_r = (theta, theta) if isinstance(theta, int) else theta
    want = {(a, b) for a, b in all_maximal_kbiplexes(g, k)
            if len(a) >= t_l and len(b) >= t_r}
    assert run(itraversal, g, k, theta=theta) == want


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", list(DEGENERATE))
def test_degenerate_frontier_matches_bruteforce(spark, name, k):
    g = DEGENERATE[name]
    got = collect_solutions(frontier_enumerate(spark, g, k))
    assert got == all_maximal_kbiplexes(g, k)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", list(DEGENERATE))
def test_degenerate_partition_matches_bruteforce(spark, name, k):
    """At the smallest θ the partition enumerator accepts, (k+1, 2k+1).
    Every core here is empty but that of "two-right" at k = 1, which
    holds no large MBP."""
    g = DEGENERATE[name]
    t_l, t_r = k + 1, 2 * k + 1
    want = {(a, b) for a, b in all_maximal_kbiplexes(g, k)
            if len(a) >= t_l and len(b) >= t_r}
    got = collect_solutions(enumerate_large_mbps_partitioned(spark, g, k, (t_l, t_r)))
    assert got == want


BAD_K = [0, -1, 1.5, 2.0, True, False, "1", None]


@pytest.mark.parametrize("k", BAD_K, ids=repr)
def test_bad_k_rejected(k):
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.5, seed=0)
    for enumerate_ in (itraversal, btraversal, VARIANTS["iTraversal-ES"], imb,
                       faplexen):
        with pytest.raises(ValueError, match="k must be"):
            list(enumerate_(g, k))
    with pytest.raises(ValueError, match="k must be"):
        frontier_step(g, k, None)


@pytest.mark.parametrize("k", BAD_K, ids=repr)
def test_bad_k_rejected_by_frontier(spark, k):
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.5, seed=0)
    with pytest.raises(ValueError, match="k must be"):
        frontier_enumerate(spark, g, k)


@pytest.mark.parametrize("k", BAD_K, ids=repr)
def test_bad_k_rejected_by_partition(spark, k):
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.5, seed=0)
    with pytest.raises(ValueError, match="k must be"):
        enumerate_large_mbps_partitioned(spark, g, k, 3)
