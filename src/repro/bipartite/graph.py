"""Bipartite graph substrate.

The paper's algorithms are set algebra over the adjacency of a bipartite
graph G = (L ∪ R, E). This module provides the in-memory representation
used by every enumerator: adjacency *sets* per vertex on each side, with
vertices identified by dense integer ids ``0..n_left-1`` (left) and
``0..n_right-1`` (right). Left and right id spaces are independent.

Solutions (and all candidate subgraphs) are passed around as
``(frozenset_of_left_ids, frozenset_of_right_ids)`` pairs; helpers here
canonicalize them for hashing/dedup.

The successor step of the traversal engine runs on int bitmasks instead:
bit ``i`` of a mask stands for vertex ``i`` of one side, so a miss count
is ``side.bit_count() - (side & adj).bit_count()``. The graph keeps one
neighbour mask per vertex (`BipartiteGraph.bits_l` / ``bits_r``), built on
first use; `mask_of` and `ids_of` convert at the frozenset boundary.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Iterable, Sequence

Solution = tuple[frozenset[int], frozenset[int]]
SolutionKey = tuple[tuple[int, ...], tuple[int, ...]]
MaskPair = tuple[int, int]  # (left mask, right mask) of a subgraph


def solution_key(sol: Solution) -> SolutionKey:
    """Canonical, hashable, orderable key of a solution."""
    left, right = sol
    return (tuple(sorted(left)), tuple(sorted(right)))


def make_solution(left: Iterable[int], right: Iterable[int]) -> Solution:
    return (frozenset(left), frozenset(right))


def mask_of(ids: Iterable[int]) -> int:
    """Bitmask with bit ``i`` set for every id ``i``."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_SMALL_IDS = [tuple(i for i in range(10) if m >> i & 1) for m in range(1 << 10)]


def ids_of(mask: int) -> Iterable[int]:
    """Ids of the set bits of ``mask``, ascending.

    Three ways, by what the mask looks like: masks below 2^10 are looked
    up in a table; a sparse mask (under one set bit in 16) peels its
    lowest set bit per id; a denser one runs at C level, the reversed
    binary string, translated to 0/1 bytes, selecting from ``range``. The
    last costs ~20 ns per *bit position*, the peeling ~0.2–0.4 µs per
    *set bit*, so neither alone suits both the free-vertex masks of the
    anchor scan and the few-vertex local solutions of a sparse graph.
    """
    if mask < 1024:
        return _SMALL_IDS[mask]
    if mask.bit_count() << 4 < mask.bit_length():
        ids = []
        while mask:
            low = mask & -mask
            ids.append(low.bit_length() - 1)
            mask ^= low
        return ids
    return compress(range(mask.bit_length()),
                    bin(mask)[:1:-1].encode().translate(_BIT_BYTES))


def at_least(masks: Iterable[int], t: int, over: list[int] | None = None) -> int:
    """Bits set in at least ``t`` (≥ 1) of ``masks``.

    Saturating bit-sliced counters: ``over[j]`` holds the bits seen in more
    than j masks so far, so the cost is O(t) mask operations per mask, with
    no loop over the bits themselves. Passing ``over`` (``t`` counters, from
    ``[0] * t`` or an earlier call) resumes the count from it, in place:
    the caller keeps the counters of masks it counts again and again.
    """
    if over is None:
        over = [0] * t
    for m in masks:
        for j in range(t - 1, 0, -1):
            over[j] |= over[j - 1] & m
        over[0] |= m
    return over[-1]


def masks_to_solution(left: int, right: int) -> Solution:
    # Through a set: a frozenset filled from an iterator grows its table
    # in ×4 steps, one copied from a set is sized to fit, up to half the
    # bytes, and callers may keep every solution.
    return (frozenset(set(ids_of(left))), frozenset(set(ids_of(right))))


@dataclass
class BipartiteGraph:
    """Adjacency-set bipartite graph.

    ``adj_l[v]`` is the set of right ids adjacent to left vertex ``v``;
    ``adj_r[u]`` the set of left ids adjacent to right vertex ``u``.
    ``bits_l`` / ``bits_r`` hold the same adjacency as bitmasks.
    """

    n_left: int
    n_right: int
    adj_l: list[frozenset[int]] = field(repr=False)
    adj_r: list[frozenset[int]] = field(repr=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        n_left: int | None = None,
        n_right: int | None = None,
    ) -> "BipartiteGraph":
        """Build from (left_id, right_id) pairs; duplicate edges collapse.

        ``n_left``/``n_right`` default to 1 + max id seen on each side
        (0 for an empty side), so isolated trailing vertices must be
        declared explicitly.
        """
        edge_list = [(int(a), int(b)) for a, b in edges]
        if n_left is None:
            n_left = 1 + max((a for a, _ in edge_list), default=-1)
        if n_right is None:
            n_right = 1 + max((b for _, b in edge_list), default=-1)
        adj_l: list[set[int]] = [set() for _ in range(n_left)]
        adj_r: list[set[int]] = [set() for _ in range(n_right)]
        for a, b in edge_list:
            if not (0 <= a < n_left and 0 <= b < n_right):
                raise ValueError(f"edge ({a},{b}) out of range {n_left}x{n_right}")
            adj_l[a].add(b)
            adj_r[b].add(a)
        return cls(
            n_left=n_left,
            n_right=n_right,
            adj_l=[frozenset(s) for s in adj_l],
            adj_r=[frozenset(s) for s in adj_r],
        )

    @classmethod
    def from_biadjacency(cls, rows: Sequence[Sequence[int]]) -> "BipartiteGraph":
        """Build from a 0/1 biadjacency matrix (rows = left vertices)."""
        n_left = len(rows)
        n_right = len(rows[0]) if rows else 0
        edges = [
            (i, j)
            for i, row in enumerate(rows)
            for j, bit in enumerate(row)
            if bit
        ]
        return cls.from_edges(edges, n_left=n_left, n_right=n_right)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.adj_l)

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v in range(self.n_left) for u in sorted(self.adj_l[v])]

    def degree_left(self, v: int) -> int:
        return len(self.adj_l[v])

    def degree_right(self, u: int) -> int:
        return len(self.adj_r[u])

    def has_edge(self, v: int, u: int) -> bool:
        return u in self.adj_l[v]

    # The masks are built on first use, so that building a graph costs
    # nothing extra for callers that never run the traversal engine.
    @cached_property
    def bits_l(self) -> list[int]:
        """``bits_l[v]``: mask of the right ids adjacent to left vertex v."""
        return [mask_of(s) for s in self.adj_l]

    @cached_property
    def bits_r(self) -> list[int]:
        """``bits_r[u]``: mask of the left ids adjacent to right vertex u."""
        return [mask_of(s) for s in self.adj_r]

    # ------------------------------------------------------------------
    # set-algebra helpers used by the enumerators (paper §2 notation)
    # ------------------------------------------------------------------
    def gamma_l(self, v: int, right: frozenset[int] | set[int]) -> frozenset[int]:
        """Γ(v, R): vertices of ``right`` adjacent to left vertex v."""
        return frozenset(self.adj_l[v] & right)

    def gamma_r(self, u: int, left: frozenset[int] | set[int]) -> frozenset[int]:
        """Γ(u, L): vertices of ``left`` adjacent to right vertex u."""
        return frozenset(self.adj_r[u] & left)

    def miss_l(self, v: int, right: frozenset[int] | set[int]) -> int:
        """δ̄(v, R): number of vertices of ``right`` NOT adjacent to v."""
        return len(right) - len(self.adj_l[v] & right)

    def miss_r(self, u: int, left: frozenset[int] | set[int]) -> int:
        """δ̄(u, L): number of vertices of ``left`` NOT adjacent to u."""
        return len(left) - len(self.adj_r[u] & left)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def transpose(self) -> "BipartiteGraph":
        """Swap sides; shares the (immutable) adjacency sets and masks."""
        gt = BipartiteGraph(
            n_left=self.n_right,
            n_right=self.n_left,
            adj_l=self.adj_r,
            adj_r=self.adj_l,
        )
        gt.bits_l, gt.bits_r = self.bits_r, self.bits_l
        return gt

    def induced(
        self, left: Iterable[int], right: Iterable[int]
    ) -> tuple["BipartiteGraph", list[int], list[int]]:
        """Induced subgraph with *re-indexed* dense ids.

        Returns ``(subgraph, left_ids, right_ids)`` where ``left_ids[i]``
        is the original id of subgraph left vertex ``i`` (ascending), and
        likewise for the right side.
        """
        left_ids = sorted(set(left))
        right_ids = sorted(set(right))
        right_pos = {u: j for j, u in enumerate(right_ids)}
        edges = [
            (i, right_pos[u])
            for i, v in enumerate(left_ids)
            for u in self.adj_l[v]
            if u in right_pos
        ]
        sub = BipartiteGraph.from_edges(
            edges, n_left=len(left_ids), n_right=len(right_ids)
        )
        return sub, left_ids, right_ids
