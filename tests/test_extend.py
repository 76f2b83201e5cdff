"""Tests for deterministic extension and initial solutions."""
import pytest

from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import BipartiteGraph, mask_of, masks_to_solution
from repro.bipartite.predicates import (
    can_add_right,
    is_kbiplex,
    is_maximal_kbiplex,
)
from repro.core.extend import (
    extend_to_maximal,
    initial_solution_any,
    initial_solution_left,
)


def extend(g, left, right, k, **kwargs):
    """`extend_to_maximal` on frozensets."""
    return masks_to_solution(
        *extend_to_maximal(g, mask_of(left), mask_of(right), k, **kwargs))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [1, 2])
def test_extension_is_maximal(seed, k):
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.5, seed=seed)
    sol = extend(g, frozenset(), frozenset(), k)
    assert is_maximal_kbiplex(g, sol[0], sol[1], k)


def test_extension_is_deterministic():
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.5, seed=7)
    a = extend(g, frozenset({1}), frozenset({2}), 1)
    b = extend(g, frozenset({1}), frozenset({2}), 1)
    assert a == b


def test_extension_preserves_input():
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.6, seed=3)
    base = (frozenset({0}), frozenset({0, 1}))
    assert is_kbiplex(g, *base, 1)
    sol = extend(g, base[0], base[1], 1)
    assert base[0] <= sol[0] and base[1] <= sol[1]


@pytest.mark.parametrize("seed", range(4))
def test_left_only_extension_keeps_right_fixed(seed):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.5, seed=seed)
    base = (frozenset(), frozenset({0, 1}))
    sol = extend(g, base[0], base[1], 1, allow_right=False)
    assert sol[1] == base[1]
    assert is_kbiplex(g, *sol, 1)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_initial_solution_left_is_right_full_mbp(k, seed):
    g = random_bipartite_gnp(n_left=6, n_right=5, p=0.4, seed=seed)
    l0, r0 = masks_to_solution(*initial_solution_left(g, k))
    assert r0 == frozenset(range(g.n_right))
    assert is_maximal_kbiplex(g, l0, r0, k)


def test_initial_solution_left_sparse_graph_empty_left():
    # In a big sparse graph no left vertex connects nearly all of R,
    # so H0 = (∅, R) — and it is still a maximal k-biplex.
    g = random_bipartite_gnp(n_left=8, n_right=8, p=0.2, seed=0)
    l0, r0 = masks_to_solution(*initial_solution_left(g, 1))
    assert l0 == frozenset()
    assert not any(
        can_add_right(g, (l0, r0), u, 1) for u in range(g.n_right) if u not in r0
    )


@pytest.mark.parametrize("k", [1, 2])
def test_initial_solution_any_is_mbp(k):
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.5, seed=9)
    sol = masks_to_solution(*initial_solution_any(g, k))
    assert is_maximal_kbiplex(g, sol[0], sol[1], k)


def test_initial_on_edgeless_graph():
    g = BipartiteGraph.from_edges([], n_left=3, n_right=3)
    k = 2
    # No left vertex tolerates 3 misses with k=2: H0 = (∅, R), as masks.
    assert initial_solution_left(g, k) == (0, 0b111)
