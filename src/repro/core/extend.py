"""Deterministic extension to maximal k-biplexes and initial solutions.

Paper §3.1 Step 3 requires each local solution to extend to exactly *one*
maximal k-biplex via "a pre-set order on all vertices"; §3.2 defines the
initial solution H0 = (L0, R) of iTraversal. Both live here, on int
bitmasks: every function takes and returns a solution's sides as masks.

A single ascending pass is sufficient for maximality: addability is
monotone — once a vertex cannot be added to the current solution, growing
the solution only increases miss-counts, so it can never become addable
later. Tests assert the results against `is_maximal_kbiplex`.
"""
from __future__ import annotations

from ..bipartite.graph import BipartiteGraph, MaskPair, ids_of


def _grow(grow: int, fixed: int, adj_grow: list[int], adj_fixed: list[int],
          n_grow: int, k: int) -> int:
    """One ascending pass adding vertices to side ``grow`` of the k-biplex
    (grow, fixed); ``fixed`` is constant during the pass.

    A vertex x joins iff its own misses against ``fixed`` are ≤ k and it
    is adjacent to every "tight" fixed vertex (one already at k misses).
    Candidates come from adjacency, never from a scan of the side: with
    |fixed| > k, x needs a neighbour in ``fixed``, so the candidates start
    as the union of the fixed side's neighbour masks; every vertex that
    turns tight ANDs its neighbour mask in. Skipped ids are exactly the
    non-addable ones, so the result is that of the plain ascending greedy.
    """
    if not fixed:
        # Nothing constrains: every vertex joins (e.g. extending a local
        # solution whose right side is empty).
        return (1 << n_grow) - 1
    n_fixed = fixed.bit_count()
    n_grow_now = grow.bit_count()
    miss = {y: n_grow_now - (adj_fixed[y] & grow).bit_count()
            for y in ids_of(fixed)}
    if n_fixed <= k:
        # Every vertex passes its own miss bound (≤ |fixed| ≤ k).
        cand = (1 << n_grow) - 1
    else:
        cand = 0
        for y in miss:
            cand |= adj_fixed[y]
    cand &= ~grow
    for y, m in miss.items():
        if m >= k:
            cand &= adj_fixed[y]
    while cand:
        low = cand & -cand
        cand ^= low
        ax = adj_grow[low.bit_length() - 1]
        if n_fixed - (ax & fixed).bit_count() > k:
            continue
        grow |= low
        for y in ids_of(fixed & ~ax):
            miss[y] += 1
            if miss[y] == k:
                cand &= adj_fixed[y]
    return grow


def extend_to_maximal(
    g: BipartiteGraph, left: int, right: int, k: int, *, allow_right: bool = True
) -> MaskPair:
    """Grow the k-biplex (``left``, ``right``), given as masks, to a
    maximal one in ascending vertex order.

    With ``allow_right=False`` only left vertices are considered — used by
    iTraversal's right-shrinking mode (Algorithm 2 line 8), where the
    input is already right-maximal so the result is still a global MBP.
    """
    left = _grow(left, right, g.bits_l, g.bits_r, g.n_left, k)
    if allow_right:
        right = _grow(right, left, g.bits_r, g.bits_l, g.n_right, k)
    return left, right


def initial_solution_left(g: BipartiteGraph, k: int) -> MaskPair:
    """iTraversal's H0 = (L0, R): start from (∅, R), greedily add left
    vertices in ascending order while the k-biplex property holds (§3.2).

    (∅, R) is always a k-biplex, and the result is right-full hence a
    global MBP."""
    return extend_to_maximal(g, 0, (1 << g.n_right) - 1, k, allow_right=False)


def initial_solution_any(g: BipartiteGraph, k: int) -> MaskPair:
    """bTraversal's arbitrary H0: greedy extension of the empty biplex."""
    return extend_to_maximal(g, 0, 0, k)
