"""Partition-parallel large-MBP enumeration (PySpark).

The "pruning over bipartite graph partitions" pipeline:

1. distributed (θ−k)-core peeling of the edge DataFrame
   (`alpha_beta_core_edges`) — §5/§6.1 preprocessing;
2. distributed connected components over the surviving edges
   (`connected_components_edges`);
3. one *independent local* θ-constrained iTraversal per component,
   fanned out with ``applyInPandas`` (one Arrow group per component).

Exactness (asserted by tests against brute force / local iTraversal):

* every large MBP survives peeling: inside an MBP with |L| ≥ θ_L and
  |R| ≥ θ_R each left vertex has internal degree ≥ θ_R − k and each
  right vertex ≥ θ_L − k, and the MBP subgraph is closed under peeling;
* for θ_R ≥ 2k+1 any two left vertices of a large MBP share a right
  neighbour (each touches > |R|/2 of R) and for θ_L ≥ k+1 every right
  vertex touches some left vertex, so the MBP is connected — it lives in
  exactly one component;
* maximality local to the core component equals global maximality: a
  vertex addable to a large MBP would make the union survive peeling
  too (so it is in the core) and has ≥ θ−k > 0 edges into the MBP (so it
  is in the same component).

Each component's graph is the broadcast G induced on the component's
vertices, and that is exactly the component: core peeling is
vertex-induced (an edge survives iff both its endpoints do), so every
G-edge between two core vertices is a core edge, and such an edge puts
its endpoints in one component. Ids are lifted back through the maps
that `BipartiteGraph.induced` returns.
"""
from __future__ import annotations

import time

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..bipartite.components import connected_components_edges
from ..bipartite.core_decomp import alpha_beta_core_edges
from ..bipartite.graph import BipartiteGraph
from ..bipartite.predicates import normalize_k, normalize_theta
from ..bipartite.spark_graph import edges_to_spark
from ..core.itraversal import itraversal
from .frontier import SOLUTION_SCHEMA, solution_row


def enumerate_large_mbps_partitioned(
    spark: SparkSession,
    g: BipartiteGraph,
    k: int,
    theta: int | tuple[int, int],
    *,
    deadline: float | None = None,
) -> DataFrame:
    """Large MBPs of ``g`` as a DataFrame (l, r), component-parallel.

    ``deadline``, a ``time.monotonic()`` timestamp of the driver, stops
    every component's enumeration once it passes. Monotonic clocks are
    per host, so it travels to the executors as wall-clock time.
    """
    k, th = normalize_k(k), normalize_theta(theta)
    theta_l, theta_r = th
    if theta_r < 2 * k + 1 or theta_l < k + 1:
        raise ValueError(
            "component partitioning is exact only for theta_r >= 2k+1 and "
            f"theta_l >= k+1; got theta={th}, k={k}"
        )
    edges = edges_to_spark(spark, g)
    core = alpha_beta_core_edges(edges, alpha=theta_r - k, beta=theta_l - k)
    if core.isEmpty():
        return spark.createDataFrame([], SOLUTION_SCHEMA)
    labeled = connected_components_edges(core)
    bc = spark.sparkContext.broadcast(g)
    wall_deadline = (
        None if deadline is None else time.time() + deadline - time.monotonic()
    )

    def enumerate_component(pdf: pd.DataFrame) -> pd.DataFrame:
        sub, lids, rids = bc.value.induced(
            pdf["src"].unique().tolist(), pdf["dst"].unique().tolist()
        )
        local_deadline = (
            None if wall_deadline is None
            else time.monotonic() + wall_deadline - time.time()
        )
        rows = [
            solution_row(([lids[i] for i in lp], [rids[j] for j in rp]))
            for lp, rp in itraversal(sub, k, theta=th, deadline=local_deadline)
        ]
        return pd.DataFrame(rows, columns=["l", "r"])

    return labeled.groupBy("component").applyInPandas(
        enumerate_component, schema=SOLUTION_SCHEMA
    )
