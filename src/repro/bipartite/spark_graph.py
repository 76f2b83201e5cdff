"""Local → Spark bipartite graph plumbing.

Edge DataFrames use the schema ``(src: long, dst: long)`` where ``src``
is a left-side id and ``dst`` a right-side id. The Spark core peeling and
label propagation that the partition enumerator runs start from this
schema.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .graph import BipartiteGraph

EDGE_COLUMNS = ("src", "dst")


def edges_to_spark(spark: SparkSession, g: BipartiteGraph) -> DataFrame:
    """Lift a local graph into an edge DataFrame."""
    pdf = pd.DataFrame(g.edges(), columns=list(EDGE_COLUMNS), dtype="int64")
    if pdf.empty:  # createDataFrame needs a schema for empty frames
        return spark.createDataFrame([], "src long, dst long")
    return spark.createDataFrame(pdf)

