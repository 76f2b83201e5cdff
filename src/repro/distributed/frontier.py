"""Frontier-parallel reverse search over the solution graph (PySpark).

The paper's traversal is a *DFS* over the implicit solution graph 𝒢_R
(left-anchored + right-shrinking links). 𝒢_R itself does not depend on
traversal order — every solution stays reachable from H0 along its links
— so the DFS can be replaced by a level-synchronous BFS whose frontier is
a DataFrame of newly-discovered MBPs:

    round:  frontier --mapInPandas(successors)--> candidates
            candidates --dropDuplicates / anti-join visited--> new
            visited ∪= new;  frontier = new

The per-solution successor computation is the successor step of local
iTraversal itself (`SuccessorStep`: EnumAlmostSat → θ-potential and
right-shrinking checks → left-only extension), executed inside executors
against a broadcast adjacency. The *exclusion strategy* is inherently
order-dependent (it threads state along the DFS), so the distributed
traversal omits it; the result set is identical — asserted against local
iTraversal in the tests — only the number of traversed links differs.

Lineage is cut with ``localCheckpoint`` every round, the standard idiom
for iterative dataflows.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..bipartite.graph import BipartiteGraph, Solution, mask_of
from ..core.extend import initial_solution_left
from ..core.itraversal import SuccessorStep, _normalize_k, _normalize_theta

SOLUTION_SCHEMA = "key string, l array<long>, r array<long>"


def solution_row(sol: Solution) -> dict:
    l, r = sorted(sol[0]), sorted(sol[1])
    return {
        "key": ",".join(map(str, l)) + "|" + ",".join(map(str, r)),
        "l": l,
        "r": r,
    }


def rs_successors(
    g: BipartiteGraph, k: int, sol: Solution, theta: tuple[int, int] | None
) -> list[Solution]:
    """Left-anchored, right-shrinking successors of one solution: the
    successor step of `repro.core.itraversal.traverse` with
    ``exclusion=None`` (see module docstring for why)."""
    step = SuccessorStep(g, k, theta=theta)
    return [link for link, _, _ in step(mask_of(sol[0]), mask_of(sol[1]), 0)]


def frontier_enumerate(
    spark: SparkSession,
    g: BipartiteGraph,
    k: int,
    *,
    theta: int | tuple[int, int] | None = None,
    max_rounds: int = 10_000,
) -> DataFrame:
    """All maximal k-biplexes of ``g`` as a DataFrame (key, l, r).

    With ``theta`` set, only large MBPs are returned and the §5 prunings
    apply (solutions whose right side fell below θ_R are neither emitted
    nor expanded).
    """
    k, th = _normalize_k(k), _normalize_theta(theta)
    sc = spark.sparkContext
    bc = sc.broadcast((g.adj_l, g.adj_r, g.n_left, g.n_right, k, th))

    def expand(batches):
        adj_l, adj_r, n_left, n_right, kk, tt = bc.value
        gg = BipartiteGraph(n_left=n_left, n_right=n_right, adj_l=adj_l, adj_r=adj_r)
        for pdf in batches:
            rows = []
            for l_arr, r_arr in zip(pdf["l"], pdf["r"]):
                sol = (frozenset(int(x) for x in l_arr),
                       frozenset(int(x) for x in r_arr))
                if tt and len(sol[1]) < tt[1]:
                    continue  # §5 solution pruning: subtree is all-small
                for succ in rs_successors(gg, kk, sol, tt):
                    rows.append(solution_row(succ))
            yield pd.DataFrame(rows, columns=["key", "l", "r"])

    h0 = initial_solution_left(g, k)
    seed = spark.createDataFrame(
        pd.DataFrame([solution_row(h0)]), schema=SOLUTION_SCHEMA
    )
    visited = seed.localCheckpoint(eager=True)
    frontier = visited
    for _ in range(max_rounds):
        if frontier.isEmpty():
            break
        candidates = frontier.mapInPandas(expand, schema=SOLUTION_SCHEMA)
        new = (
            candidates.dropDuplicates(["key"])
            .join(visited.select("key"), "key", "left_anti")
            .localCheckpoint(eager=True)
        )
        visited = visited.unionByName(new).localCheckpoint(eager=True)
        frontier = new
    else:
        raise RuntimeError(f"frontier BFS did not drain in {max_rounds} rounds")

    if th is not None:
        visited = visited.where(
            (F.size("l") >= th[0]) & (F.size("r") >= th[1])
        )
    return visited


def collect_solutions(df: DataFrame) -> set:
    """DataFrame (key,l,r) → set of canonical solution keys."""
    pdf = df.select("l", "r").toPandas()
    return {
        (tuple(int(x) for x in l), tuple(int(x) for x in r))
        for l, r in zip(pdf["l"], pdf["r"])
    }
