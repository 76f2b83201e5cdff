"""(α, β)-core computation — local peeling and distributed (Spark) peeling.

The (α, β)-core of a bipartite graph is the maximal subgraph where every
left vertex has degree ≥ α and every right vertex degree ≥ β [28]. The
paper uses it twice: as the (θ−k)-core preprocessing for large-MBP
enumeration (§5/Fig 10 — every MBP with both sides ≥ θ lies inside the
(θ−k, θ−k)-core), and as a comparator structure in the fraud-detection
case study (Fig 13).

The Spark version is the classic iterative dataflow: alternately filter
out under-degree vertices with groupBy/semi-join rounds until a fixpoint.
Each round materializes via ``localCheckpoint`` so the lineage does not
grow with the iteration count. pyspark is imported inside that function,
so local peeling (`theta_k_core`) does not load it.
"""
from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .graph import BipartiteGraph

if TYPE_CHECKING:
    from pyspark.sql import DataFrame


def alpha_beta_core(
    g: BipartiteGraph, alpha: int, beta: int
) -> tuple[set[int], set[int]]:
    """Left/right vertex sets of the (α, β)-core, by queue-driven peeling."""
    deg_l = [g.degree_left(v) for v in range(g.n_left)]
    deg_r = [g.degree_right(u) for u in range(g.n_right)]
    alive_l = [d >= alpha for d in deg_l]
    alive_r = [d >= beta for d in deg_r]
    queue: deque[tuple[str, int]] = deque()
    # Removing an initially-dead vertex must decrement its neighbours.
    queue.extend(("L", v) for v in range(g.n_left) if not alive_l[v])
    queue.extend(("R", u) for u in range(g.n_right) if not alive_r[u])
    while queue:
        side, x = queue.popleft()
        if side == "L":
            for u in g.adj_l[x]:
                if alive_r[u]:
                    deg_r[u] -= 1
                    if deg_r[u] < beta:
                        alive_r[u] = False
                        queue.append(("R", u))
        else:
            for v in g.adj_r[x]:
                if alive_l[v]:
                    deg_l[v] -= 1
                    if deg_l[v] < alpha:
                        alive_l[v] = False
                        queue.append(("L", v))
    return (
        {v for v in range(g.n_left) if alive_l[v]},
        {u for u in range(g.n_right) if alive_r[u]},
    )


def alpha_beta_core_edges(edges: DataFrame, alpha: int, beta: int) -> DataFrame:
    """Edge DataFrame of the (α, β)-core (distributed peeling).

    One round = drop left vertices with degree < α, then right vertices
    with degree < β; a fixpoint is reached when the edge count stops
    shrinking. Every round but the last removes an edge, so the loop
    stops after at most |E| + 1 rounds; a path peels from both ends, so
    it takes about half its length.
    """
    from pyspark.sql import functions as F

    cur = edges.select("src", "dst").localCheckpoint(eager=True)
    n_prev = cur.count()
    while True:
        good_l = (
            cur.groupBy("src").agg(F.count("*").alias("d"))
            .where(F.col("d") >= alpha)
            .select("src")
        )
        cur = cur.join(good_l, "src", "leftsemi")
        good_r = (
            cur.groupBy("dst").agg(F.count("*").alias("d"))
            .where(F.col("d") >= beta)
            .select("dst")
        )
        cur = cur.join(good_r, "dst", "leftsemi").select("src", "dst")
        cur = cur.localCheckpoint(eager=True)
        n_cur = cur.count()
        if n_cur == n_prev:
            return cur
        n_prev = n_cur


def theta_k_core(g: BipartiteGraph, theta: int, k: int) -> tuple[set[int], set[int]]:
    """(θ−k)-core preprocessing of §5/§6.1: the (θ−k, θ−k)-core.

    Sound for large-MBP enumeration: inside an MBP with both sides ≥ θ,
    every vertex has internal degree ≥ θ−k, and the MBP subgraph is
    closed under peeling, so no MBP vertex is ever removed.
    """
    d = max(theta - k, 0)
    return alpha_beta_core(g, d, d)
