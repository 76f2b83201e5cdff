"""Frontier-parallel reverse search over the solution graph (PySpark).

The paper's traversal is a *DFS* over the implicit solution graph 𝒢_R
(left-anchored + right-shrinking links). 𝒢_R itself does not depend on
traversal order — every solution stays reachable from H0 along its links
— so the DFS can be replaced by a level-synchronous BFS whose frontier is
a DataFrame of newly-discovered MBPs, one ``(l, r)`` row of ascending ids
per solution:

    round:  frontier --mapInPandas(successors)--> candidates
            candidates --dropDuplicates / anti-join visited on (l, r)--> new
            visited ∪= new;  frontier = new

Every per-solution decision is the one local iTraversal makes
(`SuccessorStep`: the θ gate, then the successors — EnumAlmostSat →
θ-potential and right-shrinking checks → left-only extension). The
driver broadcasts the `BipartiteGraph` itself, and each executor
partition builds one step from it, so the step's local-solution memo
serves every frontier row of that partition. This module is the BFS
alone and tests no θ of its own. The *exclusion strategy* is inherently
order-dependent (it threads state along the DFS), so the distributed
traversal omits it; the result set is identical — asserted against local
iTraversal in the tests — only the number of traversed links differs.

Lineage is cut with ``localCheckpoint`` every round, the standard idiom
for iterative dataflows: the seed once, then the new solutions and
visited ∪ new each round.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..bipartite.graph import BipartiteGraph, Solution, ids_of, mask_of
from ..core.itraversal import SuccessorStep

SOLUTION_SCHEMA = "l array<long>, r array<long>"


def solution_row(sol: Solution) -> dict:
    """The row of a solution: each side as a list of ascending ids."""
    return {"l": sorted(sol[0]), "r": sorted(sol[1])}


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
    """All maximal k-biplexes of ``g`` as a DataFrame (l, r).

    With ``theta`` set, only large MBPs are returned. A solution whose
    subtree cannot hold one fails the step's θ gate and has no successors,
    so when H0 fails it the BFS spends one round that finds nothing.
    A RuntimeError is raised when the frontier is still non-empty after
    ``max_rounds`` expansion rounds.
    """
    step = frontier_step(g, k, theta)  # validates k and θ before any job
    k, theta = step.k, step.theta
    bc = spark.sparkContext.broadcast(g)

    def expand(batches):
        partition_step = frontier_step(bc.value, k, theta)
        for pdf in batches:
            rows = [
                (list(ids_of(left)), list(ids_of(right)))
                for l_arr, r_arr in zip(pdf["l"], pdf["r"])
                for (left, right), _ in partition_step(
                    mask_of(map(int, l_arr)), mask_of(map(int, r_arr)), 0
                )
            ]
            yield pd.DataFrame(rows, columns=["l", "r"])

    h0_left, h0_right = step.root()
    seed = spark.createDataFrame(
        [(list(ids_of(h0_left)), list(ids_of(h0_right)))], schema=SOLUTION_SCHEMA
    )
    visited = frontier = seed.localCheckpoint(eager=True)
    rounds = 0
    while not frontier.isEmpty():
        if rounds == max_rounds:
            raise RuntimeError(f"frontier BFS did not drain in {max_rounds} rounds")
        rounds += 1
        new = (
            frontier.mapInPandas(expand, schema=SOLUTION_SCHEMA)
            .dropDuplicates(["l", "r"])
            .join(visited, ["l", "r"], "left_anti")
            .localCheckpoint(eager=True)
        )
        visited = visited.unionByName(new).localCheckpoint(eager=True)
        frontier = new

    if theta is not None:
        theta_l, theta_r = theta
        visited = visited.where((F.size("l") >= theta_l) & (F.size("r") >= theta_r))
    return visited


def collect_solutions(df: DataFrame) -> set:
    """DataFrame (l, r) → set of canonical solution keys."""
    pdf = df.select("l", "r").toPandas()
    return {
        (tuple(int(x) for x in l), tuple(int(x) for x in r))
        for l, r in zip(pdf["l"], pdf["r"])
    }
