"""Tests for Spark graph I/O: the edge DataFrame, checked against the
local graph."""
import pytest

from repro.bipartite.generators import powerlaw_bipartite, random_bipartite_gnp
from repro.bipartite.graph import BipartiteGraph
from repro.bipartite.spark_graph import edges_to_spark


@pytest.fixture(scope="module")
def g():
    return powerlaw_bipartite(n_left=40, n_right=30, n_edges=200, seed=3)


@pytest.fixture(scope="module")
def edges(spark, g):
    return edges_to_spark(spark, g).cache()


def test_roundtrip(spark, g, edges):
    rows = edges.select("src", "dst").collect()
    assert sorted((r["src"], r["dst"]) for r in rows) == g.edges()


def test_roundtrip_empty(spark):
    g = BipartiteGraph.from_edges([], n_left=2, n_right=2)
    df = edges_to_spark(spark, g)
    assert df.count() == 0
    assert df.columns == ["src", "dst"]


def test_spark_generator_shapes(spark):
    g = random_bipartite_gnp(n_left=10, n_right=10, p=0.3, seed=1)
    df = edges_to_spark(spark, g)
    assert df.columns == ["src", "dst"]
    assert df.count() == g.n_edges
