"""Distributed == local: the decisive tests for the PySpark enumerators."""
import itertools

import pytest

from repro.bipartite.bruteforce import all_maximal_kbiplexes
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import (
    BipartiteGraph,
    mask_of,
    masks_to_solution,
    solution_key,
)
from repro.core.itraversal import itraversal
from repro.distributed.frontier import (
    collect_solutions,
    frontier_enumerate,
    frontier_step,
    solution_row,
)
from repro.distributed.partition import enumerate_large_mbps_partitioned


def local_keys(it):
    return {solution_key(s) for s in it}


def successors(g, k, sol):
    """The frontier's successors of one solution, without θ."""
    step = frontier_step(g, k, None)
    return [masks_to_solution(*succ)
            for succ, _ in step(mask_of(sol[0]), mask_of(sol[1]), 0)]


def test_solution_row_canonical():
    row = solution_row((frozenset({2, 0}), frozenset({1})))
    assert row == {"l": [0, 2], "r": [1]}


def test_frontier_successors_are_right_shrinking_mbps():
    # Successors from H0 must all be maximal k-biplexes.
    from repro.bipartite.predicates import is_maximal_kbiplex
    from repro.core.extend import initial_solution_left

    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.5, seed=3)
    k = 1
    h0 = masks_to_solution(*initial_solution_left(g, k))
    for lp, rp in successors(g, k, h0):
        assert is_maximal_kbiplex(g, lp, rp, k)
        assert rp <= h0[1]  # right-shrinking


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed,p", [(0, 0.5), (1, 0.4)])
def test_frontier_matches_bruteforce(spark, k, seed, p):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=p, seed=seed)
    df = frontier_enumerate(spark, g, k)
    assert collect_solutions(df) == all_maximal_kbiplexes(g, k)


def test_frontier_matches_local_itraversal_larger(spark):
    g = random_bipartite_gnp(n_left=7, n_right=6, p=0.45, seed=7)
    k = 1
    df = frontier_enumerate(spark, g, k)
    assert collect_solutions(df) == local_keys(itraversal(g, k))


def test_frontier_theta(spark):
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.65, seed=5)
    k, theta = 1, 3
    want = {
        (l, r)
        for l, r in all_maximal_kbiplexes(g, k)
        if len(l) >= theta and len(r) >= theta
    }
    df = frontier_enumerate(spark, g, k, theta=theta)
    assert collect_solutions(df) == want


def test_frontier_partition_local_agree_beyond_bruteforce(spark):
    """28 vertices are past brute force's reach; the frontier BFS, the
    partition enumerator and local iTraversal must find the same large
    MBPs. θ = 3 prunes here: without exclusion it cuts the local
    traversal from 1,635 to 1,126 expansions."""
    g = random_bipartite_gnp(n_left=14, n_right=14, p=0.45, seed=4)
    k, theta = 1, 3
    want = local_keys(itraversal(g, k, theta=theta))
    assert len(want) == 750
    assert collect_solutions(frontier_enumerate(spark, g, k, theta=theta)) == want
    df = enumerate_large_mbps_partitioned(spark, g, k, theta)
    assert collect_solutions(df) == want


def bfs_depth(g, k):
    """Expansion rounds the frontier BFS needs to drain, counted locally."""
    from repro.core.extend import initial_solution_left

    frontier = {solution_key(masks_to_solution(*initial_solution_left(g, k)))}
    visited, rounds = set(frontier), 0
    while frontier:
        rounds += 1
        succ = {solution_key(s)
                for l, r in frontier
                for s in successors(g, k, (l, r))}
        frontier = succ - visited
        visited |= frontier
    return rounds


def test_frontier_max_rounds_exhaustion(spark):
    """A frontier that drains on exactly the last allowed round is a
    complete result; one round fewer is an error, not a partial result."""
    g = random_bipartite_gnp(n_left=6, n_right=5, p=0.5, seed=9)
    k = 1
    depth = bfs_depth(g, k)
    assert depth >= 2
    df = frontier_enumerate(spark, g, k, max_rounds=depth)
    assert collect_solutions(df) == local_keys(itraversal(g, k))
    with pytest.raises(RuntimeError, match="did not drain"):
        frontier_enumerate(spark, g, k, max_rounds=depth - 1)


def test_frontier_max_rounds_single_mbp(spark):
    # The complete 2×2 graph has one MBP, found and drained in one round.
    g = random_bipartite_gnp(n_left=2, n_right=2, p=1.0, seed=0)
    assert bfs_depth(g, 1) == 1
    df = frontier_enumerate(spark, g, 1, max_rounds=1)
    assert collect_solutions(df) == {((0, 1), (0, 1))}


def test_frontier_h0_failing_theta_gate(spark):
    """H0 = (∅, 𝓡) of a 6×6 perfect matching fails the step's θ gate at
    θ = 3, k = 1: the BFS spends one round that finds nothing, so it
    drains within ``max_rounds=1`` and returns no rows."""
    g = BipartiteGraph.from_edges([(i, i) for i in range(6)])
    df = frontier_enumerate(spark, g, 1, theta=3, max_rounds=1)
    assert collect_solutions(df) == set()


def test_frontier_no_duplicate_keys(spark):
    g = random_bipartite_gnp(n_left=6, n_right=5, p=0.5, seed=9)
    df = frontier_enumerate(spark, g, 1)
    assert df.count() == df.select("l", "r").distinct().count()


@pytest.mark.parametrize("seed", [0, 1])
def test_partitioned_matches_filtered_bruteforce(spark, seed):
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.7, seed=seed)
    k, theta = 1, 3  # theta = 2k+1: the partition-validity bound
    want = {
        (l, r)
        for l, r in all_maximal_kbiplexes(g, k)
        if len(l) >= theta and len(r) >= theta
    }
    df = enumerate_large_mbps_partitioned(spark, g, k, theta)
    assert collect_solutions(df) == want


def test_partitioned_multi_component(spark):
    # Two disjoint dense blocks; each contributes its own large MBPs.
    import itertools

    from repro.bipartite.graph import BipartiteGraph

    edges = [(v, u) for v, u in itertools.product(range(4), range(4))]
    edges += [(v + 4, u + 4) for v, u in itertools.product(range(4), range(4))]
    edges.remove((0, 0))
    edges.remove((4, 4))
    g = BipartiteGraph.from_edges(edges, n_left=8, n_right=8)
    k, theta = 1, 3
    want = local_keys(itraversal(g, k, theta=theta))
    df = enumerate_large_mbps_partitioned(spark, g, k, theta)
    assert collect_solutions(df) == want
    assert len(want) >= 2  # both blocks represented


def test_partitioned_long_cycle(spark):
    """Core peeling and label propagation run until they stop moving,
    however many rounds that takes: on a cycle with n vertices per side,
    the minimum label needs about n rounds to reach the far side. A dense
    block on the cycle's first vertices holds the large MBPs."""
    n = 110
    edges = {(i, i) for i in range(n)} | {((i + 1) % n, i) for i in range(n)}
    edges |= set(itertools.product(range(4), range(4))) - {(0, 3)}
    g = BipartiteGraph.from_edges(sorted(edges), n_left=n, n_right=n)
    k, theta = 1, 3
    want = local_keys(itraversal(g, k, theta=theta))
    df = enumerate_large_mbps_partitioned(spark, g, k, theta)
    assert collect_solutions(df) == want
    assert want


def test_partitioned_rejects_unsafe_theta(spark):
    g = random_bipartite_gnp(n_left=4, n_right=4, p=0.5, seed=0)
    with pytest.raises(ValueError):
        enumerate_large_mbps_partitioned(spark, g, k=2, theta=3)


def test_partitioned_empty_core(spark):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.15, seed=2)
    df = enumerate_large_mbps_partitioned(spark, g, k=1, theta=4)
    assert df.count() == 0
