"""iMB baseline: backtracking enumeration of maximal k-biplexes.

The original iMB [37, 47] organizes both vertex sides in prefix trees and
backtracks with pruning rules that, per the paper's own analysis, (a)
depend heavily on the user-supplied size constraints and (b) give an
*exponential* delay. Its source is not available offline, so this is a
faithful-profile substitution: a Bron–Kerbosch-style set-enumeration
backtracking over both sides with exact feasibility filtering, plus the
size-bound pruning that only fires when θ constraints are given. It
shares iMB's observable behaviour in the paper's tables — exact output,
exponential delay, pruning power tied to the size constraints — which is
what Figs 7, 8 and 10 exercise.

Completeness/soundness argument is the standard BK one: the k-biplex
property is hereditary, so filtering candidate/excluded sets by "still
addable" is exact; a state with no candidates and no excluded vertices is
exactly a maximal k-biplex.
"""
from __future__ import annotations

import time
from typing import Iterator

from ..bipartite.graph import BipartiteGraph, Solution
from ..bipartite.predicates import (
    can_add_left,
    can_add_right,
    normalize_k,
    normalize_theta,
)


def imb(
    g: BipartiteGraph,
    k: int,
    *,
    theta: int | tuple[int, int] | None = None,
    deadline: float | None = None,
) -> Iterator[Solution]:
    """Lazily enumerate maximal k-biplexes, each exactly once; stop once
    ``time.monotonic()`` passes ``deadline``. ``theta``, an int or a
    (θ_L, θ_R) pair as in `traverse`, keeps only those with |L| ≥ θ_L and
    |R| ≥ θ_R.

    Iterative DFS over states ``(solution, candidate queue, excluded)``.
    Candidates are (side, id) pairs in ascending order, left side first.
    """
    k = normalize_k(k)
    theta_l, theta_r = normalize_theta(theta) or (0, 0)

    def feasible(sol: Solution, item: tuple[str, int]) -> bool:
        side, x = item
        if side == "L":
            return can_add_left(g, sol, x, k)
        return can_add_right(g, sol, x, k)

    def add(sol: Solution, item: tuple[str, int]) -> Solution:
        side, x = item
        if side == "L":
            return (sol[0] | {x}, sol[1])
        return (sol[0], sol[1] | {x})

    root_cand = [("L", v) for v in range(g.n_left)] + [
        ("R", u) for u in range(g.n_right)
    ]
    empty: Solution = (frozenset(), frozenset())
    stack: list[tuple[Solution, list[tuple[str, int]], set[tuple[str, int]]]] = [
        (empty, root_cand, set())
    ]
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            return
        sol, cand, excl = stack[-1]
        if theta_l or theta_r:
            # iMB's size pruning: the solution can never reach the
            # thresholds even if every remaining candidate joins.
            n_l = len(sol[0]) + sum(1 for s, _ in cand if s == "L")
            n_r = len(sol[1]) + sum(1 for s, _ in cand if s == "R")
            if n_l < theta_l or n_r < theta_r:
                stack.pop()
                continue
        if not cand:
            stack.pop()
            if not excl and (len(sol[0]) >= theta_l and len(sol[1]) >= theta_r):
                yield sol
            continue
        item = cand.pop(0)
        sol2 = add(sol, item)
        cand2 = [it for it in cand if feasible(sol2, it)]
        excl2 = {it for it in excl if feasible(sol2, it)}
        excl.add(item)
        stack.append((sol2, cand2, excl2))
