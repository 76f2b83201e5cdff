"""Maximal k-plex enumeration on general graphs.

Substrate for two things the paper uses:

* the FaPlexen baseline (§6.1): enumerate maximal (k+1)-plexes on the
  *inflated* general graph of a bipartite graph;
* the inflation-based implementation of ``EnumAlmostSat`` used by the
  bTraversal baseline and by Fig 12's "Inflation" variant.

FaPlexen's exact branching scheme ("pivot-based binary branching with a
worst-case guarantee") is not reproducible from the paper alone, so this
is a Berlowitz-style Bron–Kerbosch adaptation: branch on candidate
vertices with exact feasibility filtering (hereditary, so filtering the
candidate/excluded sets by "S ∪ {x} is still a k-plex" is sound), emit at
leaves where neither candidates nor excluded vertices remain. It shares
FaPlexen's essential profile for the paper's tables: exponential delay,
and cost driven by the density of the (inflated) input graph.

Convention (paper §1): a k-plex is a vertex set S where every v ∈ S
disconnects at most k vertices *of S, counting v itself* — i.e. has at
least |S| - k neighbours in S.
"""
from __future__ import annotations

import time
from typing import Iterator

from ..bipartite.predicates import normalize_k


def _feasible(adj: list[frozenset[int]], s: set[int], k: int, x: int) -> bool:
    """Is S ∪ {x} still a k-plex?"""
    s2 = s | {x}
    need = len(s2) - k
    if len(adj[x] & s) < need:
        return False
    # Only vertices not adjacent to x lose slack.
    return all(len(adj[y] & s2) >= need for y in s if y not in adj[x])


def enum_maximal_kplexes(
    adj: list[frozenset[int]],
    k: int,
    *,
    require: int | None = None,
    deadline: float | None = None,
) -> Iterator[tuple[int, ...]]:
    """Lazily enumerate maximal k-plexes, each exactly once.

    ``require``: only k-plexes containing this vertex (still maximal with
    respect to the *whole* graph). Used to seed `EnumAlmostSat`'s "local
    solutions involving v".
    ``deadline``: ``time.monotonic()`` timestamp after which the
    enumeration stops.

    Iterative DFS (explicit stack) so deep searches cannot overflow the
    Python recursion limit.
    """
    k = normalize_k(k)
    n = len(adj)
    if n == 0:
        return
    if require is not None:
        seed = {require}
        cand0 = [x for x in range(n) if x != require and _feasible(adj, seed, k, x)]
        start = (seed, cand0, set())
    else:
        start = (set(), list(range(n)), set())

    # Stack entries: (S, cand list as a mutable queue, excl set).
    stack: list[tuple[set[int], list[int], set[int]]] = [start]
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            return
        s, cand, excl = stack[-1]
        if not cand:
            stack.pop()
            if not excl and s:
                yield tuple(sorted(s))
            continue
        x = cand.pop(0)
        s2 = s | {x}
        cand2 = [y for y in cand if _feasible(adj, s2, k, y)]
        excl2 = {y for y in excl if _feasible(adj, s2, k, y)}
        # After the child branch returns, x is excluded at this node.
        excl.add(x)
        stack.append((s2, cand2, excl2))


def inflate(
    n_left: int,
    n_right: int,
    cross_adj_l: list[frozenset[int]],
    deadline: float | None = None,
) -> list[frozenset[int]] | None:
    """Graph inflation (§1): clique-connect each side, keep cross edges.

    Vertex ids: left vertices keep their ids, right vertex ``u`` becomes
    ``n_left + u``. Returns adjacency sets of the inflated general graph,
    or None once ``time.monotonic()`` passes ``deadline``. Quadratic in
    side sizes by construction — exactly the blow-up that makes FaPlexen
    OOM in the paper's Figure 7.
    """

    def expired() -> bool:
        return deadline is not None and time.monotonic() > deadline

    left_ids = frozenset(range(n_left))
    right_ids = frozenset(range(n_left, n_left + n_right))
    adj: list[frozenset[int]] = []
    for v in range(n_left):
        if expired():
            return None
        cross = frozenset(n_left + u for u in cross_adj_l[v])
        adj.append((left_ids - {v}) | cross)
    back: list[set[int]] = [set() for _ in range(n_right)]
    for v in range(n_left):
        for u in cross_adj_l[v]:
            back[u].add(v)
    for u in range(n_right):
        if expired():
            return None
        adj.append((right_ids - {n_left + u}) | frozenset(back[u]))
    return adj
