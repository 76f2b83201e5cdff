"""Local → Spark bipartite graph plumbing.

Edge DataFrames use the schema ``(src: long, dst: long)`` where ``src``
is a left-side id and ``dst`` a right-side id. All distributed pipelines
(edge counts, core peeling, components, frontier enumeration) start from
this schema.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .graph import BipartiteGraph

EDGE_COLUMNS = ("src", "dst")


def edges_to_spark(spark: SparkSession, g: BipartiteGraph) -> DataFrame:
    """Lift a local graph into an edge DataFrame."""
    pdf = pd.DataFrame(g.edges(), columns=list(EDGE_COLUMNS), dtype="int64")
    if pdf.empty:  # createDataFrame needs a schema for empty frames
        return spark.createDataFrame([], "src long, dst long")
    return spark.createDataFrame(pdf)


def graph_stats(edges: DataFrame) -> dict[str, int]:
    """|L|, |R| (non-isolated), |E| — the Table 1 columns."""
    row = edges.agg(
        F.countDistinct("src").alias("n_left"),
        F.countDistinct("dst").alias("n_right"),
        F.count("*").alias("n_edges"),
    ).collect()[0]
    return {
        "n_left": row["n_left"],
        "n_right": row["n_right"],
        "n_edges": row["n_edges"],
    }
