"""Shared plumbing for the job entrypoints.

Each job prints its table to stdout and writes it to
``results/tableN.txt`` so EXPERIMENTS.md can be assembled from the raw
artifacts. The job that needs Spark (T5) builds a local session
compatible with the test fixture's settings.
"""
from __future__ import annotations

import os
import sys


def get_spark(app: str):
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .getOrCreate()
    )


def emit(table_id: str, text: str) -> None:
    print(text)
    sys.stdout.flush()
    os.makedirs("results", exist_ok=True)
    with open(os.path.join("results", f"{table_id}.txt"), "w") as f:
        f.write(text + "\n")
