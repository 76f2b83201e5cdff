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
brute-force reference `bruteforce.enum_almost_sat_brute`. Both
implementations here take H as a pair of int bitmasks and yield local
solutions as mask pairs, the form the traversal engine calls them in.
The §4.2 split of R by slack against L does not depend on the anchor, so the engine builds one `ExpansionBase` per
side of H, whose misses against L are counted once, and one `Anchor` per
anchor v, which splits R into R ∩ Γ(v) and R \\ Γ(v) once for
EnumAlmostSat and the checks on its local solutions; each anchor takes its
R¹_enum and R²_enum with two mask ANDs.

`enum_almost_sat_inflation` is the baseline implementation used by
bTraversal and by Fig 12's "Inflation" bar: inflate the almost-satisfying
graph into a general graph and enumerate maximal (k+1)-plexes containing v.
"""
from __future__ import annotations

import time
from itertools import combinations
from typing import Iterator

from ..baselines.kplex import enum_maximal_kplexes, inflate
from ..bipartite.graph import BipartiteGraph, MaskPair, at_least, ids_of, mask_of


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
    """What the anchors of one side of H = (L, R) share, in that side's
    frame: ``g`` has the anchors on its left (the transpose for right
    anchors) and (``left``, ``right``) is H seen from there. For every
    vertex u of the other side, c(u) = |L \\ Γ(u)|, the number of vertices
    of L it misses, does not depend on the anchor.

    ``over`` holds `at_least`'s k+1 saturating counters of c(u) over the
    whole other side (``over[j]``: the u with c(u) > j), built by the first
    kernel that asks for them (`counters`). Both kernels of the successor
    step read them: EnumAlmostSat's §4.2 split takes R² before v's
    neighbours are taken out (c(u) ≥ k) as ``over[k-1] & R``, and the
    right-shrinking check (`itraversal._has_right_extension`) reads them
    outside R, as does its per-anchor verdict at k = 1
    (`itraversal._rs_dead_anchors`), which asks for them first.
    """

    __slots__ = ("g", "k", "left", "right", "over")

    def __init__(self, g: BipartiteGraph, k: int, left: int, right: int) -> None:
        self.g, self.k, self.left, self.right = g, k, left, right
        self.over: list[int] | None = None

    def counters(self) -> list[int]:
        if self.over is None:
            g, k = self.g, self.k
            full, bits_l = (1 << g.n_right) - 1, g.bits_l
            self.over = [0] * (k + 1)
            at_least([full & ~bits_l[x] for x in ids_of(self.left)], k + 1,
                     self.over)
        return self.over


class Anchor:
    """An anchor v of an `ExpansionBase`'s H = (L, R), and what its local
    solutions share. By Lemma 4.1 every local solution (L', R') keeps all
    of ``keep`` = R ∩ Γ(v) and adds at most k vertices of ``enum`` =
    R \\ Γ(v).

    The successor step builds one per anchor and hands it to EnumAlmostSat
    and to the two checks on its local solutions, which keep their own
    per-anchor state here: ``rs``, the right-shrinking check's candidate
    set and near-tight list (`itraversal._has_right_extension`), built on
    the anchor's first check; and ``pot``, R_keep's neighbour masks and
    θ-potential counters, built in θ mode by the per-anchor bound
    (`itraversal._anchor_potential_ok`) before EnumAlmostSat runs and read
    by the check on each local solution (`itraversal._theta_potential_ok`).
    """

    __slots__ = ("base", "v", "keep", "enum", "rs", "pot")

    def __init__(self, base: ExpansionBase, v: int) -> None:
        self.base, self.v = base, v
        adjv = base.g.bits_l[v]
        self.keep, self.enum = base.right & adjv, base.right & ~adjv
        self.rs: tuple[int, list[tuple[int, int]]] | None = None
        self.pot: tuple[list[int], list[int]] | None = None


def _enum_left(
    anchor: Anchor, *, l2: bool, r2: bool, r_min: int = 0
) -> Iterator[MaskPair]:
    """Local solutions of the almost-satisfying graph (L ∪ {v}, R) of
    ``anchor``, in its base's frame.

    Precondition: (L, R) is a k-biplex. ``r_min`` prunes enumerations whose
    right side would end below the threshold (large-MBP "local solution
    pruning", §5).
    """
    base = anchor.base
    g, k, left, v = base.g, base.k, base.left, anchor.v
    bits_l, bits_r = g.bits_l, g.bits_r
    r_keep, r_enum = anchor.keep, anchor.enum  # Lemma 4.1
    n_keep = r_keep.bit_count()
    # §4.2 partition of R_enum by slack against L, as single-bit masks so
    # that a pick's sum is its mask.
    r2_mask = r_enum & base.counters()[k - 1]
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


def enum_almost_sat(
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
    anchor: Anchor | None = None,
) -> Iterator[MaskPair]:
    """Enumerate the local solutions of G[H ∪ v] as mask pairs, for H =
    (``left``, ``right``) given as masks; ``side`` is v's side.

    For ``side='R'`` the procedure runs on the transposed graph (the
    refinement lemmas are side-symmetric), where H is (right, left), and
    results are swapped back. The traversal engine passes the ``anchor``
    it built for v in v's side's frame; without one the call builds its
    own."""
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    if side == "R" and r_min:
        raise ValueError("r_min (θ pruning) is defined for side='L' only")
    if anchor is None:
        anchor = Anchor(ExpansionBase(g, k, left, right) if side == "L"
                        else ExpansionBase(g.transpose(), k, right, left), v)
    local = _enum_left(anchor, l2=l2, r2=r2, r_min=r_min)
    return local if side == "L" else ((b, a) for a, b in local)


def enum_almost_sat_inflation(
    g: BipartiteGraph,
    left: int,
    right: int,
    v: int,
    k: int,
    *,
    side: str = "L",
    deadline: float | None = None,
) -> Iterator[MaskPair]:
    """Inflation-based EnumAlmostSat (bTraversal's implementation, §6),
    on masks like `enum_almost_sat`.

    Build the inflated general graph of the almost-satisfying graph and
    enumerate maximal (k+1)-plexes containing v; each corresponds 1:1 to
    a local solution (a k-biplex on the bipartite graph is a (k+1)-plex
    on the inflation and vice versa). Stops once ``time.monotonic()``
    passes ``deadline``, which is checked before anything is built: the
    inflation of a large almost-satisfying graph alone can outlast a
    budget, and once it has passed every remaining anchor returns at once.
    """
    if deadline is not None and time.monotonic() > deadline:
        return
    if side == "L":
        left |= 1 << v
    elif side == "R":
        right |= 1 << v
    else:
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    lv, rv = list(ids_of(left)), list(ids_of(right))
    n_l = len(lv)
    r_pos = {u: j for j, u in enumerate(rv)}
    bits_l = g.bits_l
    cross = [frozenset(r_pos[u] for u in ids_of(bits_l[x] & right)) for x in lv]
    adj = inflate(n_l, len(rv), cross, deadline)
    if adj is None:
        return
    seed = lv.index(v) if side == "L" else n_l + r_pos[v]
    for plex in enum_maximal_kplexes(adj, k + 1, require=seed, deadline=deadline):
        yield (mask_of(lv[i] for i in plex if i < n_l),
               mask_of(rv[i - n_l] for i in plex if i >= n_l))
