"""Maximal biclique enumeration — comparator for the Fig 13 case study.

A maximal biclique (L, R) of a bipartite graph satisfies
R = ⋂_{v∈L} Γ(v) and L = {v : R ⊆ Γ(v)}: the classic Galois/closed-set
correspondence. We therefore enumerate closed right-side sets LCM-style
(prefix-preserving closure extension), which visits each maximal
biclique exactly once in polynomial delay — ample for the case-study
graphs after (θ_L, θ_R)-core shrinking.

``min_left`` prunes branches whose support falls below θ_L (sound: the
support only shrinks along a branch); ``min_right`` filters emissions.
Both sides of an emitted biclique are non-empty.
"""
from __future__ import annotations

import time
from typing import Iterator

from ..bipartite.graph import BipartiteGraph, Solution


def _closure(g: BipartiteGraph, left: frozenset[int]) -> frozenset[int]:
    """⋂_{v∈left} Γ(v); ``left`` must be non-empty."""
    it = iter(left)
    out = set(g.adj_l[next(it)])
    for v in it:
        out &= g.adj_l[v]
        if not out:
            break
    return frozenset(out)


def maximal_bicliques(
    g: BipartiteGraph,
    *,
    min_left: int = 1,
    min_right: int = 1,
    deadline: float | None = None,
) -> Iterator[Solution]:
    """Enumerate maximal bicliques with |L| ≥ min_left, |R| ≥ min_right;
    stop once ``time.monotonic()`` passes ``deadline``."""
    if min_left < 1 or min_right < 1:
        raise ValueError("thresholds must be >= 1 (bicliques are non-empty)")

    def rec(right: frozenset[int], left: frozenset[int], start: int) -> Iterator[Solution]:
        if len(right) >= min_right:
            yield (left, right)
        for u in range(start, g.n_right):
            if deadline is not None and time.monotonic() > deadline:
                return
            if u in right:
                continue
            left2 = frozenset(v for v in left if u in g.adj_l[v])
            if len(left2) < min_left:
                continue
            right2 = _closure(g, left2)
            # Prefix-preserving check: the closure must not introduce an
            # item below u outside the current set, else this closed set
            # is (or will be) reached from a lexicographically earlier
            # branch.
            if any(w < u and w not in right for w in right2):
                continue
            yield from rec(right2, left2, u + 1)

    # Root of the LCM tree: the closed set of the full left side (items
    # shared by *every* left vertex, usually ∅). The invariant
    # ``left == support(right)`` holds at the root and is preserved by
    # each extension, which gives left-side maximality for free.
    full_left = frozenset(range(g.n_left))
    if not full_left or len(full_left) < min_left:
        return
    yield from rec(_closure(g, full_left), full_left, 0)
