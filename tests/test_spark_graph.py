"""Tests for Spark graph I/O: the edge DataFrame and its Table 1 counts,
checked against the local graph and DuckDB."""
import pandas as pd
import pytest

from repro.bipartite.generators import powerlaw_bipartite, random_bipartite_gnp
from repro.bipartite.graph import BipartiteGraph
from repro.bipartite.spark_graph import edges_to_spark, graph_stats


@pytest.fixture(scope="module")
def g():
    return powerlaw_bipartite(n_left=40, n_right=30, n_edges=200, seed=3)


@pytest.fixture(scope="module")
def edges(spark, g):
    return edges_to_spark(spark, g).cache()


def _edges_pdf(g):
    return pd.DataFrame(g.edges(), columns=["src", "dst"], dtype="int64")


def test_roundtrip(spark, g, edges):
    rows = edges.select("src", "dst").collect()
    assert sorted((r["src"], r["dst"]) for r in rows) == g.edges()


def test_roundtrip_empty(spark):
    g = BipartiteGraph.from_edges([], n_left=2, n_right=2)
    df = edges_to_spark(spark, g)
    assert df.count() == 0
    assert df.columns == ["src", "dst"]


def test_graph_stats(spark, g, edges):
    stats = graph_stats(edges)
    assert stats["n_edges"] == g.n_edges
    assert stats["n_left"] == sum(1 for v in range(g.n_left) if g.adj_l[v])
    assert stats["n_right"] == sum(1 for u in range(g.n_right) if g.adj_r[u])


def test_graph_stats_against_duckdb(spark, g, edges):
    import duckdb

    con = duckdb.connect()
    con.register("e", _edges_pdf(g))
    want = con.execute(
        "SELECT count(DISTINCT src) a, count(DISTINCT dst) b, count(*) c FROM e"
    ).fetchone()
    con.close()
    stats = graph_stats(edges)
    assert (stats["n_left"], stats["n_right"], stats["n_edges"]) == want


def test_spark_generator_shapes(spark):
    g = random_bipartite_gnp(n_left=10, n_right=10, p=0.3, seed=1)
    df = edges_to_spark(spark, g)
    assert df.columns == ["src", "dst"]
    assert df.count() == g.n_edges
