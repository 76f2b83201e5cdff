"""Brute-force enumeration oracles.

These enumerate by explicit subset enumeration (exponential), so they are
only usable on tiny graphs (≲ 16 vertices total) — which is exactly their
job: providing ground truth for differential tests of every optimized
enumerator in this repo (bTraversal, iTraversal and its ablations, iMB,
FaPlexen, the Spark frontier/partition enumerators, and EnumAlmostSat's
local solutions).
"""
from __future__ import annotations

from itertools import combinations

from .graph import BipartiteGraph, Solution, SolutionKey, solution_key
from .predicates import can_add_left, can_add_right, is_kbiplex, is_maximal_kbiplex

_MAX_BRUTE_VERTICES = 22


def _subsets(n: int):
    universe = list(range(n))
    for size in range(n + 1):
        yield from (frozenset(c) for c in combinations(universe, size))


def all_maximal_kbiplexes(g: BipartiteGraph, k: int) -> set[SolutionKey]:
    """All MBPs of ``g`` by checking every (L, R) pair. Ground truth."""
    if g.n_left + g.n_right > _MAX_BRUTE_VERTICES:
        raise ValueError("graph too large for brute force")
    out: set[SolutionKey] = set()
    for left in _subsets(g.n_left):
        # Hereditary property: if (left, full R) misses nothing... still
        # need all R subsets since maximality couples both sides.
        for right in _subsets(g.n_right):
            if is_maximal_kbiplex(g, left, right, k):
                out.add(solution_key((left, right)))
    return out


def all_kbiplexes(g: BipartiteGraph, k: int) -> set[SolutionKey]:
    """All (not necessarily maximal) k-biplexes. For small sanity tests."""
    if g.n_left + g.n_right > _MAX_BRUTE_VERTICES:
        raise ValueError("graph too large for brute force")
    return {
        solution_key((left, right))
        for left in _subsets(g.n_left)
        for right in _subsets(g.n_right)
        if is_kbiplex(g, left, right, k)
    }


def enum_almost_sat_brute(
    g: BipartiteGraph, sol: Solution, v: int, k: int, *, side: str = "L"
) -> set[SolutionKey]:
    """The local solutions of G[H ∪ v] for H = ``sol`` and v on ``side``
    (EnumAlmostSat, §4), by checking every subset of H ∪ v that holds v."""
    left, right = sol
    if side == "L":
        all_left, all_right = left | {v}, right
    else:
        all_left, all_right = left, right | {v}
    ls, rs = sorted(all_left), sorted(all_right)
    out: set[SolutionKey] = set()
    for lm in range(1 << len(ls)):
        lsub = frozenset(x for i, x in enumerate(ls) if lm >> i & 1)
        if side == "L" and v not in lsub:
            continue
        for rm in range(1 << len(rs)):
            rsub = frozenset(u for j, u in enumerate(rs) if rm >> j & 1)
            if side == "R" and v not in rsub:
                continue
            h = (lsub, rsub)
            if (is_kbiplex(g, lsub, rsub, k)
                    and not any(can_add_left(g, h, x, k) for x in all_left - lsub)
                    and not any(can_add_right(g, h, u, k) for u in all_right - rsub)):
                out.add(solution_key(h))
    return out


def all_maximal_bicliques(
    g: BipartiteGraph, *, min_left: int = 1, min_right: int = 1
) -> set[SolutionKey]:
    """All maximal bicliques (complete bipartite induced subgraphs).

    Maximality is tested against *all* bicliques (including those below
    the size thresholds); the thresholds only filter the output, matching
    the case-study semantics of "maximal bicliques of size ≥ θ".
    """
    if g.n_left + g.n_right > _MAX_BRUTE_VERTICES:
        raise ValueError("graph too large for brute force")

    def is_biclique(left: frozenset[int], right: frozenset[int]) -> bool:
        return all(right <= g.adj_l[v] for v in left)

    bicliques = [
        (left, right)
        for left in _subsets(g.n_left)
        for right in _subsets(g.n_right)
        if left and right and is_biclique(left, right)
    ]
    out: set[SolutionKey] = set()
    for left, right in bicliques:
        if len(left) < min_left or len(right) < min_right:
            continue
        maximal = not any(
            (left < l2 and right <= r2) or (left <= l2 and right < r2)
            for l2, r2 in bicliques
        )
        if maximal:
            out.add(solution_key((left, right)))
    return out


def is_kplex(adj: list[frozenset[int]], s: frozenset[int], k: int) -> bool:
    """General-graph k-plex: each v∈S disconnects ≤ k vertices of S,
    counting v itself (paper §1 / Berlowitz et al. convention)."""
    return all(len(s) - len(adj[v] & s) <= k for v in s)


def all_maximal_kplexes(adj: list[frozenset[int]], k: int) -> set[tuple[int, ...]]:
    """All maximal k-plexes of a general graph given as adjacency sets."""
    n = len(adj)
    if n > _MAX_BRUTE_VERTICES:
        raise ValueError("graph too large for brute force")
    plexes = [s for s in _subsets(n) if s and is_kplex(adj, s, k)]
    plex_set = set(plexes)
    out: set[tuple[int, ...]] = set()
    for s in plexes:
        if not any(v not in s and (s | {v}) in plex_set for v in range(n)):
            out.add(tuple(sorted(s)))
    return out
