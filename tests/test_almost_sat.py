"""Differential tests for EnumAlmostSat (paper §4).

All four refined variants and the inflation baseline must return exactly
the local solutions of the brute-force reference, on hand-built and
random almost-satisfying graphs.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bipartite.bruteforce import all_maximal_kbiplexes, enum_almost_sat_brute
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import (
    BipartiteGraph,
    mask_of,
    masks_to_solution,
    solution_key,
)
from repro.bipartite.predicates import is_kbiplex
from repro.core.almost_sat import enum_almost_sat, enum_almost_sat_inflation
from repro.core.extend import extend_to_maximal, initial_solution_left

VARIANTS = [
    dict(l2=False, r2=False),
    dict(l2=False, r2=True),
    dict(l2=True, r2=False),
    dict(l2=True, r2=True),
]


def local_solutions(g, sol, v, k, enum=enum_almost_sat, **kwargs):
    """The local solutions ``enum`` yields for H = ``sol`` (frozensets)
    and anchor v, as frozenset pairs."""
    return [masks_to_solution(a, b)
            for a, b in enum(g, mask_of(sol[0]), mask_of(sol[1]), v, k, **kwargs)]


def h0(g, k):
    """iTraversal's initial solution as frozensets."""
    return masks_to_solution(*initial_solution_left(g, k))


def _almost_sat_instances(g, k, side="L"):
    """All (maximal solution, outside vertex) pairs of a small graph."""
    out = []
    for lk, rk in all_maximal_kbiplexes(g, k):
        sol = (frozenset(lk), frozenset(rk))
        outside = (
            set(range(g.n_left)) - sol[0]
            if side == "L"
            else set(range(g.n_right)) - sol[1]
        )
        out.extend((sol, v) for v in sorted(outside))
    return out


@pytest.mark.parametrize("variant", VARIANTS, ids=["l1r1", "l1r2", "l2r1", "l2r2"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_variants_match_brute_left(variant, k, seed):
    g = random_bipartite_gnp(n_left=4, n_right=5, p=0.55, seed=seed)
    for sol, v in _almost_sat_instances(g, k, "L"):
        got = {
            solution_key(s)
            for s in local_solutions(g, sol, v, k, side="L", **variant)
        }
        want = enum_almost_sat_brute(g, sol, v, k, side="L")
        assert got == want, (sol, v)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", [0, 3])
def test_right_side_matches_brute(k, seed):
    g = random_bipartite_gnp(n_left=5, n_right=4, p=0.5, seed=seed)
    for sol, u in _almost_sat_instances(g, k, "R"):
        got = {solution_key(s) for s in local_solutions(g, sol, u, k, side="R")}
        want = enum_almost_sat_brute(g, sol, u, k, side="R")
        assert got == want, (sol, u)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("side", ["L", "R"])
def test_inflation_matches_brute(k, seed, side):
    g = random_bipartite_gnp(n_left=4, n_right=4, p=0.5, seed=seed)
    for sol, v in _almost_sat_instances(g, k, side):
        got = {
            solution_key(s)
            for s in local_solutions(g, sol, v, k, enum_almost_sat_inflation,
                                     side=side)
        }
        want = enum_almost_sat_brute(g, sol, v, k, side=side)
        assert got == want, (sol, v)


def test_local_solutions_contain_anchor_and_rkeep():
    # Lemma 4.1: every local solution contains v and all of Γ(v, R).
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.6, seed=9)
    k = 1
    sol = h0(g, k)
    for v in sorted(set(range(g.n_left)) - sol[0]):
        r_keep = g.adj_l[v] & sol[1]
        for lp, rp in local_solutions(g, sol, v, k):
            assert v in lp
            assert r_keep <= rp


def test_local_solutions_are_kbiplexes():
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.5, seed=11)
    for k in (1, 2):
        sol = h0(g, k)
        for v in sorted(set(range(g.n_left)) - sol[0]):
            for lp, rp in local_solutions(g, sol, v, k):
                assert is_kbiplex(g, lp, rp, k)


def test_r_min_filters_small_right_sides():
    g = random_bipartite_gnp(n_left=5, n_right=6, p=0.6, seed=5)
    k = 1
    sol = h0(g, k)
    for v in sorted(set(range(g.n_left)) - sol[0]):
        full = local_solutions(g, sol, v, k)
        for r_min in (1, 3, 5):
            got = {
                solution_key(s)
                for s in local_solutions(g, sol, v, k, r_min=r_min)
            }
            want = {solution_key(s) for s in full if len(s[1]) >= r_min}
            assert got == want


def test_r_min_rejected_for_right_side():
    g = random_bipartite_gnp(n_left=3, n_right=3, p=0.5, seed=0)
    with pytest.raises(ValueError):
        list(enum_almost_sat(g, 0, 0b1, 1, 1, side="R", r_min=2))


def test_bad_side_rejected():
    g = random_bipartite_gnp(n_left=3, n_right=3, p=0.5, seed=0)
    with pytest.raises(ValueError):
        list(enum_almost_sat(g, 0, 0, 0, 1, side="X"))


@settings(max_examples=40, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=2**20 - 1),
    k=st.integers(min_value=1, max_value=2),
)
def test_hypothesis_all_variants_agree(bits, k):
    """On arbitrary 4x5 graphs, all 4 variants equal the brute reference."""
    rows = [[(bits >> (i * 5 + j)) & 1 for j in range(5)] for i in range(4)]
    g = BipartiteGraph.from_biadjacency(rows)
    instances = _almost_sat_instances(g, k, "L")[:3]
    for sol, v in instances:
        want = enum_almost_sat_brute(g, sol, v, k, side="L")
        for variant in VARIANTS:
            got = {
                solution_key(s)
                for s in local_solutions(g, sol, v, k, side="L", **variant)
            }
            assert got == want


def test_dense_graph_unique_local_solution():
    # Complete 3x3 plus an isolated-ish anchor vertex.
    g = BipartiteGraph.from_edges(
        [(v, u) for v, u in itertools.product(range(3), range(3))] + [(3, 0)],
        n_left=4,
        n_right=3,
    )
    k = 1
    sol = (frozenset({0, 1, 2}), frozenset({0, 1, 2}))
    got = {solution_key(s) for s in local_solutions(g, sol, 3, k)}
    assert got == enum_almost_sat_brute(g, sol, 3, k)
    assert got  # the anchor always yields at least one local solution


def test_extension_of_local_solution_is_maximal():
    from repro.bipartite.predicates import is_maximal_kbiplex

    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.5, seed=21)
    k = 1
    sol = h0(g, k)
    for v in sorted(set(range(g.n_left)) - sol[0]):
        for lp, rp in local_solutions(g, sol, v, k):
            full = masks_to_solution(
                *extend_to_maximal(g, mask_of(lp), mask_of(rp), k))
            assert is_maximal_kbiplex(g, full[0], full[1], k)
