"""Frontier-parallel reverse search over the solution graph (PySpark).

The paper's traversal is a *DFS* over the implicit solution graph 𝒢_R
(left-anchored + right-shrinking links). 𝒢_R itself does not depend on
traversal order — every solution stays reachable from H0 along its links
— so the DFS can be replaced by a level-synchronous BFS whose frontier is
a DataFrame of newly-discovered MBPs:

    round:  frontier --mapInPandas(successors)--> candidates
            candidates --dropDuplicates / anti-join visited--> new
            visited ∪= new;  frontier = new

Every per-solution decision is the one local iTraversal makes
(`SuccessorStep`: the successors — EnumAlmostSat → θ-potential and
right-shrinking checks → left-only extension — and, with θ, whether H0
is worth expanding), executed inside executors against a broadcast
adjacency; this module is the BFS alone. The *exclusion
strategy* is inherently order-dependent (it threads state along the DFS),
so the distributed traversal omits it; the result set is identical —
asserted against local iTraversal in the tests — only the number of
traversed links differs.

Lineage is cut with ``localCheckpoint`` every round, the standard idiom
for iterative dataflows.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..bipartite.graph import BipartiteGraph, Solution, mask_of
from ..core.itraversal import SuccessorStep

SOLUTION_SCHEMA = "key string, l array<long>, r array<long>"


def solution_row(sol: Solution) -> dict:
    l, r = sorted(sol[0]), sorted(sol[1])
    return {
        "key": ",".join(map(str, l)) + "|" + ",".join(map(str, r)),
        "l": l,
        "r": r,
    }


def frontier_step(
    g: BipartiteGraph, k: int, theta: int | tuple[int, int] | None
) -> SuccessorStep:
    """The frontier's successor step: iTraversal without the exclusion
    strategy (see module docstring for why)."""
    return SuccessorStep(g, k, exclusion=False, theta=theta)


def frontier_enumerate(
    spark: SparkSession,
    g: BipartiteGraph,
    k: int,
    *,
    theta: int | tuple[int, int] | None = None,
    max_rounds: int = 10_000,
) -> DataFrame:
    """All maximal k-biplexes of ``g`` as a DataFrame (key, l, r).

    With ``theta`` set, only large MBPs are returned, and the BFS starts
    only when the step finds H0's subtree can hold one. Without exclusion
    that one test suffices: a successor's right side is its local
    solution's, which already passed the same potential test in the step.
    A RuntimeError is raised when the frontier is still non-empty after
    ``max_rounds`` expansion rounds.
    """
    step = frontier_step(g, k, theta)  # validates k and θ before any job
    sc = spark.sparkContext
    bc = sc.broadcast((g.adj_l, g.adj_r, g.n_left, g.n_right, step.k, step.theta))

    def expand(batches):
        adj_l, adj_r, n_left, n_right, kk, tt = bc.value
        gg = BipartiteGraph(n_left=n_left, n_right=n_right, adj_l=adj_l, adj_r=adj_r)
        for pdf in batches:
            batch_step = frontier_step(gg, kk, tt)
            rows = []
            for l_arr, r_arr in zip(pdf["l"], pdf["r"]):
                left, right = mask_of(map(int, l_arr)), mask_of(map(int, r_arr))
                rows += [solution_row(succ)
                         for succ, _, _ in batch_step(left, right, 0)]
            yield pd.DataFrame(rows, columns=["key", "l", "r"])

    h0 = step.root()
    seed = spark.createDataFrame(
        pd.DataFrame([solution_row(h0)]), schema=SOLUTION_SCHEMA
    )
    visited = seed.localCheckpoint(eager=True)
    frontier = visited if step.expandable(mask_of(h0[1]), 0) else visited.limit(0)
    rounds = 0
    while not frontier.isEmpty():
        if rounds == max_rounds:
            raise RuntimeError(f"frontier BFS did not drain in {max_rounds} rounds")
        rounds += 1
        candidates = frontier.mapInPandas(expand, schema=SOLUTION_SCHEMA)
        new = (
            candidates.dropDuplicates(["key"])
            .join(visited.select("key"), "key", "left_anti")
            .localCheckpoint(eager=True)
        )
        visited = visited.unionByName(new).localCheckpoint(eager=True)
        frontier = new

    if step.theta is not None:
        theta_l, theta_r = step.theta
        visited = visited.where((F.size("l") >= theta_l) & (F.size("r") >= theta_r))
    return visited


def collect_solutions(df: DataFrame) -> set:
    """DataFrame (key,l,r) → set of canonical solution keys."""
    pdf = df.select("l", "r").toPandas()
    return {
        (tuple(int(x) for x in l), tuple(int(x) for x in r))
        for l, r in zip(pdf["l"], pdf["r"])
    }
