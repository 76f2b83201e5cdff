"""k-biplex predicates (paper §2) and the validation of k and θ.

The predicates are the *ground truth* checks: deliberately simple and
used by the brute-force oracle and by tests to validate the optimized
enumerators. `normalize_k` and `normalize_theta` are the one check of
the parameters every enumerator takes.
"""
from __future__ import annotations

from numbers import Integral
from typing import Iterable

from .graph import BipartiteGraph, Solution


def _is_int(t) -> bool:
    return isinstance(t, Integral) and not isinstance(t, bool)


def normalize_k(k: int) -> int:
    """``k`` as an int ≥ 1; anything else (a bool, a float, a str, None,
    k < 1) is a ValueError rather than a wrong or half-run enumeration."""
    if not (_is_int(k) and k >= 1):
        raise ValueError(f"k must be an int >= 1, got {k!r}")
    return int(k)


def normalize_theta(
    theta: int | tuple[int, int] | None,
) -> tuple[int, int] | None:
    """``theta`` as a (θ_L, θ_R) pair of non-negative ints, or None."""
    if theta is None:
        return None
    pair = (theta, theta) if _is_int(theta) else theta
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2
            and all(_is_int(t) and t >= 0 for t in pair)):
        raise ValueError(
            "theta must be a non-negative int or a (theta_l, theta_r) pair "
            f"of them, got {theta!r}"
        )
    return (int(pair[0]), int(pair[1]))


def is_kbiplex(g: BipartiteGraph, left: Iterable[int], right: Iterable[int], k: int) -> bool:
    """Definition 2.1: every v∈L misses ≤ k of R, every u∈R misses ≤ k of L."""
    lset, rset = frozenset(left), frozenset(right)
    return all(g.miss_l(v, rset) <= k for v in lset) and all(
        g.miss_r(u, lset) <= k for u in rset
    )


def can_add_left(g: BipartiteGraph, sol: Solution, v: int, k: int) -> bool:
    """Is (L∪{v}, R) still a k-biplex, given (L, R) already is one?

    Only two kinds of constraint can break: v's own misses against R, and
    the misses of right vertices *disconnected from v* (each gains one).
    """
    left, right = sol
    adj = g.adj_l[v]
    if len(right) - len(adj & right) > k:
        return False
    for u in right:
        if u not in adj and len(left) - len(g.adj_r[u] & left) > k - 1:
            return False
    return True


def can_add_right(g: BipartiteGraph, sol: Solution, u: int, k: int) -> bool:
    """Is (L, R∪{u}) still a k-biplex, given (L, R) already is one?"""
    left, right = sol
    adj = g.adj_r[u]
    if len(left) - len(adj & left) > k:
        return False
    for v in left:
        if v not in adj and len(right) - len(g.adj_l[v] & right) > k - 1:
            return False
    return True


def is_maximal_kbiplex(
    g: BipartiteGraph, left: Iterable[int], right: Iterable[int], k: int
) -> bool:
    """Definition 2.3: a k-biplex not extendable by any single vertex.

    For hereditary properties, non-extendability by one vertex is exactly
    subset-maximality: any strictly larger k-biplex would (hereditarily)
    yield a one-vertex extension.
    """
    sol = (frozenset(left), frozenset(right))
    if not is_kbiplex(g, sol[0], sol[1], k):
        return False
    for v in range(g.n_left):
        if v not in sol[0] and can_add_left(g, sol, v, k):
            return False
    for u in range(g.n_right):
        if u not in sol[1] and can_add_right(g, sol, u, k):
            return False
    return True


def is_delta_qb(
    g: BipartiteGraph, left: frozenset[int], right: frozenset[int], delta: float
) -> bool:
    """δ-quasi-biclique [30]: every v ∈ L misses ≤ δ·|R| of R and every
    u ∈ R misses ≤ δ·|L| of L. Not hereditary, unlike the k-biplex."""
    return all(g.miss_l(v, right) <= delta * len(right) for v in left) and all(
        g.miss_r(u, left) <= delta * len(left) for u in right
    )
