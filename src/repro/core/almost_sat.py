"""The EnumAlmostSat procedure (paper §4).

Given a maximal k-biplex H = (L, R) and a vertex v outside H, the
almost-satisfying graph G[H ∪ v] is not a k-biplex but becomes one if v
is dropped. `enum_almost_sat` enumerates all *local solutions*: induced
subgraphs of G[H ∪ v] that contain v, are k-biplexes, and are maximal
within G[H ∪ v].

Four refined-enumeration variants (Fig 12) are selected by flags:

* ``r2=False`` → R 1.0 (§4.1): enumerate every R'' ⊆ R_enum, |R''| ≤ k.
* ``r2=True``  → R 2.0 (§4.2): additionally prune (Lemma 4.2) every R''
  with |R''| < k that leaves some vertex of R¹_enum unchosen.
* ``l2=False`` → L 1.0 (§4.3): enumerate removal sets L̄' ⊆ L_remo with
  |L̄'| ≤ |R²''| in ascending size.
* ``l2=True``  → L 2.0 (§4.4): additionally prune supersets of removal
  sets that already produced a local solution.

All four variants return the same set of local solutions (the prunes only
skip candidates that provably fail), which the tests assert against the
brute-force reference `enum_almost_sat_brute`. They run on int bitmasks
(`enum_local`, the kernel the traversal engine calls); `enum_almost_sat`
is its frozenset front end. The §4.2 split of R by slack against L does
not depend on the anchor, so the engine passes one `ExpansionBase` to
every anchor of one H: the R vertices with ≥ k misses against L are
counted once, and each anchor takes its R¹_enum and R²_enum with two mask
ANDs against R \\ Γ(v).

`enum_almost_sat_inflation` is the baseline implementation used by
bTraversal and by Fig 12's "Inflation" bar: inflate the almost-satisfying
graph into a general graph and enumerate maximal (k+1)-plexes containing v.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator

from ..baselines.kplex import enum_maximal_kplexes, inflate
from ..bipartite.graph import (
    BipartiteGraph,
    MaskPair,
    Solution,
    at_least,
    ids_of,
    mask_of,
    masks_to_solution,
)
from ..bipartite.predicates import can_add_left, can_add_right, is_kbiplex


def _addable(ax: int, grow: int, fixed: int, adj_fixed: list[int],
             k: int) -> bool:
    """Can a vertex with neighbour mask ``ax`` join side ``grow`` of the
    k-biplex (grow, fixed)? The mask form of `can_add_left` /
    `can_add_right`: its own misses against ``fixed``, and the misses of
    the fixed vertices it disconnects (each gains one)."""
    if fixed.bit_count() - (ax & fixed).bit_count() > k:
        return False
    n_grow = grow.bit_count()
    return all(n_grow - (adj_fixed[y] & grow).bit_count() < k
               for y in ids_of(fixed & ~ax))


class ExpansionBase:
    """What the anchors of one H = (L, R) on one side share: the §4.2
    split of R by slack against L, which does not depend on the anchor.

    ``short`` holds the R vertices with ≥ k misses against L (R² before
    v's neighbours are taken out), the bits that at least k of the masks
    R \\ Γ(x), x ∈ L, share; the first anchor that needs it counts it with
    `at_least`. One base serves the anchors of one side of one H.
    """

    __slots__ = ("short",)

    def __init__(self) -> None:
        self.short: int | None = None


def _enum_left(
    g: BipartiteGraph,
    left: int,
    right: int,
    v: int,
    k: int,
    *,
    l2: bool,
    r2: bool,
    r_min: int = 0,
    base: ExpansionBase | None = None,
) -> Iterator[MaskPair]:
    """Local solutions of the almost-satisfying graph (L ∪ {v}, R), v ∈ 𝓛.

    Sides are masks. Precondition: (left, right) is a k-biplex of ``g``.
    ``r_min`` prunes enumerations whose right side would end below the
    threshold (large-MBP "local solution pruning", §5). ``base`` is the
    state (left, right) shares with its other anchors; without one the
    call builds its own.
    """
    bits_l, bits_r = g.bits_l, g.bits_r
    if base is None:
        base = ExpansionBase()
    if base.short is None:
        base.short = at_least([right & ~bits_l[x] for x in ids_of(left)], k)
    adjv = bits_l[v]
    r_keep = right & adjv          # Lemma 4.1: in every local solution
    r_enum = right & ~adjv
    n_keep = r_keep.bit_count()
    # §4.2 partition of R_enum by slack against L, as single-bit masks so
    # that a pick's sum is its mask.
    r2_mask = r_enum & base.short
    r1 = [1 << u for u in ids_of(r_enum & ~r2_mask)]
    r2_part = [1 << u for u in ids_of(r2_mask)]
    n_r1, n_r2 = len(r1), len(r2_part)
    lv = left | 1 << v

    for t1 in range(min(k, n_r1) + 1):
        # The sizes t2 = |R²''| that can give a local solution with this t1:
        # Lemma 4.2 (with r2) drops |R''| < k while some u ∈ R¹_enum \ R''₁
        # is left, since it could always be added; r_min drops right sides
        # that end below the threshold.
        sizes = [t2 for t2 in range(min(k - t1, n_r2) + 1)
                 if not (r2 and t1 + t2 < k and t1 < n_r1)
                 and n_keep + t1 + t2 >= r_min]
        if not sizes:
            continue
        plain = sizes[0] == 0
        removal_sizes = sizes[1:] if plain else sizes
        for r1_pick in combinations(r1, t1):
            r1_set = sum(r1_pick)
            if plain:
                # R²'' = ∅: the removal enumeration reduces to removing
                # nothing, and local maximality to the leftover right
                # vertices, which v blocks once |R''| = k; inlined, as it
                # is the common case.
                r_prime = r_keep | r1_set
                if t1 >= k or not any(
                    _addable(bits_r[u], r_prime, lv, bits_l, k)
                    for u in ids_of(r_enum & ~r1_set)
                ):
                    yield lv, r_prime
            for t2 in removal_sizes:
                for r2_pick in combinations(r2_part, t2):
                    r_extra = r1_set | sum(r2_pick)
                    # §4.3 L_remo: the vertices of L disconnected from
                    # some u ∈ R²''.
                    r2_adj = [bits_r[b.bit_length() - 1] for b in r2_pick]
                    common = -1
                    for adj in r2_adj:
                        common &= adj
                    l_remo = [1 << x for x in ids_of(left & ~common)]
                    yield from _enum_removals(
                        g, k, lv, r_keep | r_extra, l_remo, r2_adj,
                        r_enum & ~r_extra, t1 + t2, l2,
                    )


def _enum_removals(
    g: BipartiteGraph,
    k: int,
    lv: int,
    r_prime: int,
    l_remo: list[int],
    r2_adj: list[int],
    leftover: int,
    n_extra: int,
    l2: bool,
) -> Iterator[MaskPair]:
    """§4.3/4.4: enumerate minimal removal sets L̄' ⊆ L_remo for one R'.

    ``lv`` is L ∪ {v}; ``r2_adj`` holds the neighbour masks of R²''
    (never empty). Only vertices disconnected from some u ∈ R²'' can be
    in a minimal removal set (every other removed vertex stays
    re-addable), so ``l_remo`` holds exactly those, as single-bit masks.
    ``leftover`` holds the unchosen R_enum vertices and ``n_extra`` is
    |R''|, v's misses.
    """
    bits_l, bits_r = g.bits_l, g.bits_r
    minimal_hits: list[int] = []
    # Feasibility: each u ∈ R²'' sits at k+1 misses in (L ∪ {v}, R');
    # removing one of its non-neighbours fixes it. So the empty removal
    # always fails, and sizes start at 1.
    for t in range(1, min(len(r2_adj), len(l_remo)) + 1):
        for rm_pick in combinations(l_remo, t):
            rm = sum(rm_pick)
            if l2 and any(not hit & ~rm for hit in minimal_hits):
                continue  # §4.4: supersets of a success are non-maximal
            if any(not rm & ~adj for adj in r2_adj):
                continue
            # Maximality within the almost-satisfying graph, whose only
            # vertices outside the candidate are the removed left ones and
            # the leftover right ones (which v blocks once |R''| = k).
            cand_l = lv & ~rm
            if any(_addable(bits_l[b.bit_length() - 1], cand_l, r_prime, bits_r, k)
                   for b in rm_pick):
                continue
            if n_extra < k and any(_addable(bits_r[u], r_prime, cand_l, bits_l, k)
                                   for u in ids_of(leftover)):
                continue
            if l2:
                minimal_hits.append(rm)
            yield cand_l, r_prime


def enum_local(
    g: BipartiteGraph,
    left: int,
    right: int,
    v: int,
    k: int,
    *,
    side: str = "L",
    l2: bool = True,
    r2: bool = True,
    r_min: int = 0,
    base: ExpansionBase | None = None,
) -> Iterator[MaskPair]:
    """`enum_almost_sat` on masks: H = (left, right), local solutions as
    mask pairs. This is the kernel the traversal engine calls; it passes
    one ``base`` to every anchor of one side of H."""
    if side == "L":
        return _enum_left(g, left, right, v, k, l2=l2, r2=r2, r_min=r_min,
                          base=base)
    if side == "R":
        if r_min:
            raise ValueError("r_min (θ pruning) is defined for side='L' only")
        swapped = _enum_left(g.transpose(), right, left, v, k, l2=l2, r2=r2,
                             base=base)
        return ((b, a) for a, b in swapped)
    raise ValueError(f"side must be 'L' or 'R', got {side!r}")


def enum_almost_sat(
    g: BipartiteGraph,
    sol: Solution,
    v: int,
    k: int,
    *,
    side: str = "L",
    l2: bool = True,
    r2: bool = True,
    r_min: int = 0,
) -> Iterator[Solution]:
    """Enumerate local solutions of G[H ∪ v]; ``side`` is v's side.

    For ``side='R'`` the procedure runs on the transposed graph (the
    refinement lemmas are side-symmetric) and results are swapped back.
    """
    for a, b in enum_local(g, mask_of(sol[0]), mask_of(sol[1]), v, k,
                           side=side, l2=l2, r2=r2, r_min=r_min):
        yield masks_to_solution(a, b)


def enum_almost_sat_inflation(
    g: BipartiteGraph,
    sol: Solution,
    v: int,
    k: int,
    *,
    side: str = "L",
    deadline: float | None = None,
) -> Iterator[Solution]:
    """Inflation-based EnumAlmostSat (bTraversal's implementation, §6).

    Build the inflated general graph of the almost-satisfying graph and
    enumerate maximal (k+1)-plexes containing v; each corresponds 1:1 to
    a local solution (a k-biplex on the bipartite graph is a (k+1)-plex
    on the inflation and vice versa). Stops once ``time.monotonic()``
    passes ``deadline``: the inflation of a large almost-satisfying graph
    alone can outlast a budget.
    """
    left, right = sol
    if side == "L":
        lv = sorted(left | {v})
        rv = sorted(right)
        anchor_left = True
    elif side == "R":
        lv = sorted(left)
        rv = sorted(right | {v})
        anchor_left = False
    else:
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    l_pos = {x: i for i, x in enumerate(lv)}
    r_pos = {u: j for j, u in enumerate(rv)}
    cross = [
        frozenset(r_pos[u] for u in g.adj_l[x] if u in r_pos) for x in lv
    ]
    adj = inflate(len(lv), len(rv), cross, deadline)
    if adj is None:
        return
    seed = l_pos[v] if anchor_left else len(lv) + r_pos[v]
    for plex in enum_maximal_kplexes(adj, k + 1, require=seed, deadline=deadline):
        lp = frozenset(lv[i] for i in plex if i < len(lv))
        rp = frozenset(rv[i - len(lv)] for i in plex if i >= len(lv))
        yield (lp, rp)


def enum_almost_sat_brute(
    g: BipartiteGraph, sol: Solution, v: int, k: int, *, side: str = "L"
) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Reference implementation by subset enumeration. Tests only."""
    from ..bipartite.graph import solution_key

    left, right = sol
    if side == "L":
        all_left, all_right = left | {v}, right
    else:
        all_left, all_right = left, right | {v}
    ls = sorted(all_left)
    rs = sorted(all_right)
    cands = []
    for lm in range(1 << len(ls)):
        lsub = frozenset(x for i, x in enumerate(ls) if lm >> i & 1)
        if (side == "L") and v not in lsub:
            continue
        for rm_ in range(1 << len(rs)):
            rsub = frozenset(u for j, u in enumerate(rs) if rm_ >> j & 1)
            if (side == "R") and v not in rsub:
                continue
            if is_kbiplex(g, lsub, rsub, k):
                cands.append((lsub, rsub))
    out = set()
    for lsub, rsub in cands:
        maximal = True
        for x in all_left - lsub:
            if can_add_left(g, (lsub, rsub), x, k):
                maximal = False
                break
        if maximal:
            for u in all_right - rsub:
                if can_add_right(g, (lsub, rsub), u, k):
                    maximal = False
                    break
        if maximal:
            out.add(solution_key((lsub, rsub)))
    return out
