"""Connected components of a bipartite graph — local BFS and Spark
label propagation.

Used by the partition-parallel large-MBP enumerator
(`repro.distributed.partition`): for θ ≥ 2k+1 every large MBP is
connected (each left vertex touches ≥ |R|−k > |R|/2 right vertices, so
any two left vertices share a neighbour), hence confined to one
component and enumerable per-component independently. The Spark pass
labels the core's edge rows; the enumerator then reads each component's
graph off the broadcast input graph, induced on the labelled vertices.
"""
from __future__ import annotations

from collections import deque

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph import BipartiteGraph


def connected_components(g: BipartiteGraph) -> tuple[list[int], list[int]]:
    """Component label per vertex: (labels_left, labels_right).

    Labels are dense ints 0..c-1 in order of discovery from ascending
    left ids; isolated vertices get their own components.
    """
    label_l = [-1] * g.n_left
    label_r = [-1] * g.n_right
    comp = 0
    for start_side, start, labels in (
        *((("L", v, label_l)) for v in range(g.n_left)),
        *((("R", u, label_r)) for u in range(g.n_right)),
    ):
        if labels[start] != -1:
            continue
        queue: deque[tuple[str, int]] = deque([(start_side, start)])
        labels[start] = comp
        while queue:
            side, x = queue.popleft()
            if side == "L":
                for u in g.adj_l[x]:
                    if label_r[u] == -1:
                        label_r[u] = comp
                        queue.append(("R", u))
            else:
                for v in g.adj_r[x]:
                    if label_l[v] == -1:
                        label_l[v] = comp
                        queue.append(("L", v))
        comp += 1
    return label_l, label_r


def connected_components_edges(edges: DataFrame) -> DataFrame:
    """Distributed min-label propagation over the edge DataFrame.

    Returns edges annotated with a ``component`` column (the minimum
    vertex key reachable from the edge). Vertex keys: left v → 2v,
    right u → 2u+1, so the two id spaces never collide. Each round
    re-materializes via localCheckpoint. Labels are non-negative and
    only fall, so a round whose label sum equals the last one's moved no
    label, and every other round lowers the sum: one aggregate per
    round tests convergence, and the loop stops. A label moves one hop
    per round, so it takes O(diameter) rounds: about n for a cycle with
    n vertices per side.
    """
    cur = edges.select(
        "src",
        "dst",
        F.least(2 * F.col("src"), 2 * F.col("dst") + 1).alias("component"),
    ).localCheckpoint(eager=True)
    total = cur.agg(F.sum("component")).first()[0]
    while True:
        min_l = cur.groupBy("src").agg(F.min("component").alias("cl"))
        min_r = cur.groupBy("dst").agg(F.min("component").alias("cr"))
        cur = (
            cur.join(min_l, "src")
            .join(min_r, "dst")
            .select(
                "src",
                "dst",
                F.least("component", "cl", "cr").alias("component"),
            )
        ).localCheckpoint(eager=True)
        total, last = cur.agg(F.sum("component")).first()[0], total
        if total == last:
            return cur
