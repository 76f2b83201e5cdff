"""FaPlexen baseline: MBP enumeration via graph inflation (§1, §6).

The paper's second baseline inflates the bipartite graph into a general
graph (clique-connect each side) and enumerates maximal (k+1)-plexes with
FaPlexen [51]; each (k+1)-plex of the inflation is exactly a k-biplex of
the bipartite graph. FaPlexen's C++ implementation is not available
offline, so the k-plex enumerator is our Berlowitz-style branch & bound
(`repro.baselines.kplex`) — see that module's docstring for why the
substitution preserves the baseline's profile.

The inflation step is the baseline's Achilles heel (Fig 7: OUT on
anything big — Marvel's 96K edges inflate to >200M). ``max_inflated_edges``
reproduces the paper's 32 GB memory budget (OUT) at our scale: the run is
aborted with `InflationBudgetExceeded` before materializing the blow-up.
"""
from __future__ import annotations

from typing import Iterator

from ..bipartite.graph import BipartiteGraph, Solution
from ..bipartite.predicates import normalize_k
from .kplex import enum_maximal_kplexes, inflate


class InflationBudgetExceeded(RuntimeError):
    """Raised when the inflated graph would exceed the memory budget."""


def inflated_edge_count(g: BipartiteGraph) -> int:
    """|E| of the inflated general graph: both side-cliques + cross edges."""
    nl, nr = g.n_left, g.n_right
    return nl * (nl - 1) // 2 + nr * (nr - 1) // 2 + g.n_edges


def faplexen(
    g: BipartiteGraph,
    k: int,
    *,
    max_inflated_edges: int | None = None,
    deadline: float | None = None,
) -> Iterator[Solution]:
    """Lazily enumerate maximal k-biplexes through the inflated graph;
    stops once ``time.monotonic()`` passes ``deadline``."""
    k = normalize_k(k)
    if max_inflated_edges is not None:
        n = inflated_edge_count(g)
        if n > max_inflated_edges:
            raise InflationBudgetExceeded(
                f"inflated graph has {n} edges > budget {max_inflated_edges}"
            )
    adj = inflate(g.n_left, g.n_right, g.adj_l, deadline)
    if adj is None:
        return
    if not adj:  # the k-plex search emits only non-empty plexes
        yield (frozenset(), frozenset())
        return
    for plex in enum_maximal_kplexes(adj, k + 1, deadline=deadline):
        left = frozenset(i for i in plex if i < g.n_left)
        right = frozenset(i - g.n_left for i in plex if i >= g.n_left)
        yield (left, right)
