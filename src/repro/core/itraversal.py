"""Reverse-search traversal engine: bTraversal, iTraversal and ablations.

One engine implements the whole family of Fig 11 (paper §3):

* ``bTraversal``      — anchors on both sides, arbitrary initial MBP,
  strongly-connected solution graph 𝒢 (Algorithm 1).
* ``iTraversal-ES-RS``— left-anchored traversal only (𝒢_L, §3.3).
* ``iTraversal-ES``   — + right-shrinking traversal (𝒢_R, §3.4).
* ``iTraversal``      — + exclusion strategy (𝒢_E, §3.5).

The engine is an explicit-stack DFS over the implicit solution graph; it
is a *generator*, so "return the first N MBPs" and delay measurement come
for free (the paper's evaluation leans on both). The alternating
pre-/post-order output trick of §3.5 [38] — which yields at least one
solution every two expansions, hence polynomial delay — is implemented by
emitting a solution before its expansion at even depth and after it at
odd depth.

Exclusion strategy. The paper defers the exact rule and its (non-trivial)
correctness proof to an offline technical report, so we implement the
Berlowitz-et-al.-style rule it cites: every solution carries an inherited
exclusion set of left vertices; (a) anchors already in the set are
skipped, and (b) the link to a successor is pruned when the successor
contains an excluded vertex; a child's exclusion set is the parent's plus
all anchors the parent finished before the child's anchor. Both (a)-only
(``exclusion='candidate'``) and (a)+(b) (``exclusion='link'``) modes
exist; the differential tests against brute force decide which modes stay
complete (see tests/test_itraversal.py), and `itraversal` defaults to the
strongest complete one.

θ mode (§5, large MBPs): ``theta`` enables the right-side prunings
(almost-satisfying-graph, local-solution and solution pruning) plus the
exclusion-based left-side pruning, and filters emissions to MBPs with
both sides ≥ θ. ``theta`` may be a single int (the paper's symmetric
constraint) or a ``(theta_l, theta_r)`` pair (the "easily customized"
asymmetric variant of §5, which the Fig 13 case study needs).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable, Iterator

from ..bipartite.graph import (
    BipartiteGraph,
    MaskPair,
    Solution,
    SolutionKey,
    at_least,
    ids_of,
    mask_of,
    masks_to_solution,
    solution_key,
)
from .almost_sat import enum_almost_sat_inflation
# The per-item layers of the successor step are called through these module
# globals, looked up at call time, so a tracer can wrap them. The mask
# kernels keep the names of the frozenset APIs they implement.
from .almost_sat import enum_local as enum_almost_sat
from .extend import extend_masks as extend_to_maximal
from .extend import initial_solution_any, initial_solution_left


@dataclass
class TraversalStats:
    """Counters for the solution-graph experiments (Fig 11)."""

    links: int = 0            # successor links generated (after pruning)
    expansions: int = 0       # solutions expanded (iThreeStep calls)
    almost_sat_calls: int = 0
    local_solutions: int = 0
    pruned_right_shrinking: int = 0
    pruned_exclusion: int = 0
    pruned_theta_potential: int = 0
    solutions: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


# A link: the successor MBP, its sides as masks, and its exclusion mask.
Link = tuple[Solution, MaskPair, int]


@dataclass
class _Node:
    sol: Solution
    succ: Iterator[Link]
    depth: int
    emitted: bool


def _has_right_extension(
    g: BipartiteGraph, left: int, right: int, k: int, outside_right: int
) -> bool:
    """Algorithm 2 line 7: ∃ u ∈ 𝓡 \\ V(H_loc) with H_loc ∪ {u} a k-biplex?

    ``left``/``right`` are H_loc's sides as masks. Right vertices of the
    almost-satisfying graph were already ruled out by local maximality, so
    only ``outside_right`` (𝓡 \\ R) matters. Both conditions on u are
    evaluated on whole masks, with no loop over candidates:

    * a left vertex x at miss-capacity (δ̄(x, R_loc) ≥ k) blocks every u
      it disconnects, so u must be a common neighbour of all such x;
    * u itself may miss at most k of L_loc: u must lie outside the bits
      that at least k+1 of the masks 𝓡 \\ Γ(x) (x ∈ L_loc) share.
    """
    if not outside_right:
        return False
    bits_l = g.bits_l
    adj = [bits_l[x] for x in ids_of(left)]
    max_hits = right.bit_count() - k  # x is tight iff |Γ(x, R_loc)| ≤ this
    cand = outside_right
    for ax in adj:
        if (ax & right).bit_count() <= max_hits:
            cand &= ax
            if not cand:
                return False
    return bool(cand & ~at_least([cand & ~ax for ax in adj], k + 1))


class _AnchorPotential:
    """θ-potential state of one left anchor, shared by its local solutions.

    Every local solution (L', R') of an anchor v of H = (L, R) has
    R' = R_keep ∪ R'' with R_keep = R ∩ Γ(v) and R'' ⊆ R \\ Γ(v),
    |R''| ≤ k (Lemma 4.1). So `at_least`'s counters are built once over
    the neighbour masks of ``keep`` (R_keep), and each local solution adds
    its at most ``slack`` (k) masks to a copy of them. The same counters
    bound every local solution at once (`_potential_bound`); when the bound
    fails the anchor is ``dead`` and each of its local solutions fails the
    check without a count. `_potential_ok` builds the state on its first
    call with it; the state holds for one (k, θ_L, θ_R, excluded) only.
    """

    __slots__ = ("keep", "slack", "adj", "over", "dead")

    def __init__(self, keep: int, slack: int) -> None:
        self.keep, self.slack = keep, slack
        self.adj: list[int] | None = None  # neighbour masks of ``keep``
        self.over: list[int] = []  # at_least counters over ``adj``
        self.dead = False


def _potential_bound(
    g: BipartiteGraph,
    adj: list[int],
    over: list[int],
    k: int,
    theta_l: int,
    theta_r: int,
    excluded: int,
    slack: int,
) -> bool:
    """The θ-potential test, for every right side R' = R ∪ R'' with
    |R''| ≤ ``slack`` at once; ``adj`` holds the neighbour masks of R and
    ``over`` the `at_least` counters over them (θ_R − k of them).

    P(R') lies inside P_up = {x : δ(x, R) ≥ θ_R − k − slack}, since R''
    adds at most ``slack`` neighbours to any x; and R'' holds at most
    ``slack`` of the right vertices with θ_L − k neighbours in P(R'). With
    slack 0 the bound is the test itself.
    """
    need_l = theta_r - k - slack
    p = over[need_l - 1] if need_l > 0 else (1 << g.n_left) - 1
    p &= ~excluded
    if p.bit_count() < theta_l:
        return False
    need_r = theta_l - k
    if need_r <= 0:
        return len(adj) + slack >= theta_r
    return sum(1 for a in adj if (a & p).bit_count() >= need_r) + slack >= theta_r


def _potential_ok(
    g: BipartiteGraph,
    right: int,
    k: int,
    theta_l: int,
    theta_r: int,
    excluded: int,
    anchor: _AnchorPotential | None = None,
) -> bool:
    """Can any MBP with sides ≥ (θ_L, θ_R) and no vertex of ``excluded``
    have its right side inside ``right``? (Both masks.)

    The (θ−k)-core argument of §5/§6.1, applied dynamically: such an MBP
    (L'', R'') has every v ∈ L'' with δ(v, right) ≥ δ(v, R'') ≥
    |R''| − k ≥ θ_R − k, so L'' lies inside the potential set P; and
    every u ∈ R'' has δ(u, L'') ≥ θ_L − k with L'' ⊆ P. P is counted on
    the right side's neighbour masks (`at_least`), not by a scan of 𝓛.

    ``anchor`` is the state ``right`` shares with the other local
    solutions of its anchor; without one, ``right`` is its own base with
    no vertex outside it.
    """
    if anchor is None:
        anchor = _AnchorPotential(right, 0)
    bits_r = g.bits_r
    if anchor.adj is None:
        anchor.adj = [bits_r[u] for u in ids_of(anchor.keep)]
        if theta_r > k:
            anchor.over = [0] * (theta_r - k)
            at_least(anchor.adj, theta_r - k, anchor.over)
        anchor.dead = not _potential_bound(
            g, anchor.adj, anchor.over, k, theta_l, theta_r, excluded, anchor.slack
        )
    if anchor.dead:
        return False
    if not anchor.slack:  # ``right`` is the base: the bound was exact
        return True
    adj, over = anchor.adj, anchor.over
    extra = [bits_r[u] for u in ids_of(right & ~anchor.keep)]
    if extra:
        over = over[:]  # the anchor's own counters serve its other solutions
        if over:
            at_least(extra, len(over), over)
        adj = adj + extra
    return _potential_bound(g, adj, over, k, theta_l, theta_r, excluded, 0)


def _theta_potential_ok(
    g: BipartiteGraph,
    right: int,
    k: int,
    theta_l: int,
    theta_r: int,
    anchor: _AnchorPotential | None = None,
) -> bool:
    """`_potential_ok` for one local solution's right side. A global of its
    own so that tracing times this use, and the build of ``anchor``'s
    state on its first call, apart from `traverse`'s expandability test."""
    return _potential_ok(g, right, k, theta_l, theta_r, 0, anchor)


def _is_int(t) -> bool:
    return isinstance(t, Integral) and not isinstance(t, bool)


def _normalize_k(k: int) -> int:
    """``k`` as an int ≥ 1; anything else (a bool, a float, a str, None,
    k < 1) is a ValueError rather than a wrong or half-run enumeration."""
    if not (_is_int(k) and k >= 1):
        raise ValueError(f"k must be an int >= 1, got {k!r}")
    return int(k)


def _normalize_theta(
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


@dataclass
class SuccessorStep:
    """Algorithm 2 lines 5–9 for one engine configuration.

    For every anchor of a solution H (left vertices, plus right ones for
    bTraversal): the §4 local solutions, the θ-potential check, the §3.4
    right-shrinking check, the exclusion test and the extension to a
    maximal k-biplex. Called with H's sides and exclusion set as masks; it
    yields a `Link` per surviving local solution, and only the link
    becomes frozensets. The local DFS (`traverse`) and the frontier BFS
    (`repro.distributed.frontier`) share it; the defaults are the
    frontier's configuration, iTraversal without exclusion.
    """

    g: BipartiteGraph
    k: int
    stats: TraversalStats = field(default_factory=TraversalStats)
    left_anchored: bool = True
    right_shrinking: bool = True
    exclusion: str | None = None
    theta: tuple[int, int] | None = None
    local_enum: str = "l2r2"

    def __post_init__(self) -> None:
        self.k = _normalize_k(self.k)
        g, k = self.g, self.k
        if self.local_enum == "inflation":
            def local(left, right, v, side, r_min):
                sol = masks_to_solution(left, right)
                for a, b in enum_almost_sat_inflation(g, sol, v, k, side=side):
                    yield mask_of(a), mask_of(b)
        else:
            try:
                l2 = {"l1": False, "l2": True}[self.local_enum[:2]]
                r2 = {"r1": False, "r2": True}[self.local_enum[2:]]
            except KeyError:
                raise ValueError(f"unknown local_enum {self.local_enum!r}") from None

            def local(left, right, v, side, r_min):
                return enum_almost_sat(
                    g, left, right, v, k, side=side, l2=l2, r2=r2, r_min=r_min
                )

        self._local = local

    def __call__(self, left: int, right: int, excl: int) -> Iterator[Link]:
        g, k, st, theta = self.g, self.k, self.stats, self.theta
        exclusion, right_shrinking = self.exclusion, self.right_shrinking
        local = self._local
        bits_l = g.bits_l
        theta_l, theta_r = theta if theta is not None else (0, 0)
        st.expansions += 1
        free_right = ((1 << g.n_right) - 1) & ~right
        outside_right = free_right if right_shrinking else 0
        if self.left_anchored:
            free_right = 0  # no right anchors
        # ``processed`` holds the left anchors finished at this node; a
        # child's exclusion set is excl ∪ processed-so-far.
        processed = 0
        for side, free in (("L", ((1 << g.n_left) - 1) & ~left), ("R", free_right)):
            for v in ids_of(free):
                bit = 1 << v
                if side == "L":
                    if exclusion and excl & bit:
                        processed |= bit
                        continue
                    # §5 right-side pruning (1): any solution below this
                    # anchor keeps ≤ δ(v,R)+k right vertices.
                    if (theta is not None
                            and (bits_l[v] & right).bit_count() + k < theta_r):
                        processed |= bit
                        continue
                banned = excl | processed
                child_excl = banned if exclusion else excl
                # θ mode anchors only on the left (right-shrinking), so
                # R_keep = R ∩ Γ(v) is the base of every local solution.
                anchor = (_AnchorPotential(bits_l[v] & right, k)
                          if theta is not None else None)
                st.almost_sat_calls += 1
                for loc_l, loc_r in local(left, right, v, side, theta_r):
                    st.local_solutions += 1
                    if theta is not None and not _theta_potential_ok(
                        g, loc_r, k, theta_l, theta_r, anchor
                    ):
                        # Under right-shrinking the extension keeps the
                        # local solution's right side, so the potential
                        # check on it prunes the link before the expensive
                        # extension and right-shrinking scans; the check
                        # also passes whenever the extension itself is
                        # large, so no emission is lost.
                        st.pruned_theta_potential += 1
                        continue
                    if right_shrinking and _has_right_extension(
                        g, loc_l, loc_r, k, outside_right
                    ):
                        st.pruned_right_shrinking += 1
                        continue
                    if exclusion == "link" and loc_l & banned:
                        # Early exit: the extension is a superset of the
                        # local solution, so the link check below would
                        # prune anyway.
                        st.pruned_exclusion += 1
                        continue
                    ext = extend_to_maximal(
                        g, loc_l, loc_r, k, allow_right=not right_shrinking
                    )
                    if exclusion == "link" and ext[0] & banned:
                        st.pruned_exclusion += 1
                        continue
                    st.links += 1
                    yield masks_to_solution(*ext), ext, child_excl
                if side == "L":
                    processed |= bit


def traverse(
    g: BipartiteGraph,
    k: int,
    *,
    left_anchored: bool = True,
    right_shrinking: bool = True,
    exclusion: str | None = "link",
    theta: int | tuple[int, int] | None = None,
    local_enum: str = "l2r2",
    alternate_output: bool = True,
    stats: TraversalStats | None = None,
    deadline: float | None = None,
) -> Iterator[Solution]:
    """Lazily enumerate maximal k-biplexes by reverse search.

    ``local_enum``: 'l2r2' | 'l1r2' | 'l2r1' | 'l1r1' (refined
    EnumAlmostSat variants) or 'inflation' (bTraversal's implementation).
    ``exclusion``: None, 'candidate', or 'link' (see module docstring).
    ``theta``: only emit MBPs with both sides ≥ theta, with §5 prunings.
    ``deadline``: ``time.monotonic()`` timestamp after which the traversal
    stops early (the reproduction's analog of the paper's INF budget —
    enumeration between yields can be long, so the cutoff must live
    inside the engine, not in the consumer).
    """
    if exclusion not in (None, "candidate", "link"):
        raise ValueError(f"unknown exclusion mode {exclusion!r}")
    if right_shrinking and not left_anchored:
        raise ValueError("right-shrinking traversal builds on left-anchored")
    if exclusion and not left_anchored:
        raise ValueError("exclusion strategy is defined on left anchors only")
    theta = _normalize_theta(theta)
    if theta is not None and not (right_shrinking and left_anchored):
        raise ValueError("θ pruning requires the full iTraversal prunings")
    st = stats if stats is not None else TraversalStats()
    theta_l, theta_r = theta if theta is not None else (0, 0)
    successors = SuccessorStep(
        g, k, stats=st, left_anchored=left_anchored,
        right_shrinking=right_shrinking, exclusion=exclusion, theta=theta,
        local_enum=local_enum,
    )

    k = successors.k
    h0 = initial_solution_left(g, k) if left_anchored else initial_solution_any(g, k)

    def emit(sol: Solution) -> bool:
        if theta is not None and (len(sol[0]) < theta_l or len(sol[1]) < theta_r):
            return False
        st.solutions += 1
        return True

    def expandable(right: int, excl: int) -> bool:
        if theta is None:
            return True
        if right.bit_count() < theta_r:  # §5 right-side pruning (3)
            return False
        if exclusion and g.n_left - excl.bit_count() < theta_l:  # §5 left-side pruning
            return False
        # Potential pruning (our addition, same (θ−k)-core argument as
        # §5/§6.1 applied *dynamically*): every large MBP (L'', R'')
        # reachable from (L, R) has R'' ⊆ R and avoids the exclusion set,
        # so too-small potential sets make the whole subtree fruitless.
        return _potential_ok(g, right, k, theta_l, theta_r, excl)

    visited: set[SolutionKey] = {solution_key(h0)}
    root_pre = True  # depth 0 → pre-order
    stack: list[_Node] = []
    h0_left, h0_right = mask_of(h0[0]), mask_of(h0[1])
    if expandable(h0_right, 0):
        stack.append(_Node(h0, successors(h0_left, h0_right, 0), 0, root_pre))
    if emit(h0):
        yield h0
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            return
        node = stack[-1]
        nxt = next(node.succ, None)
        if nxt is None:
            stack.pop()
            if not node.emitted and emit(node.sol):
                yield node.sol
            continue
        child, (child_left, child_right), child_excl = nxt
        ck = solution_key(child)
        if ck in visited:
            continue
        visited.add(ck)
        depth = node.depth + 1
        pre = (depth % 2 == 0) if alternate_output else True
        if expandable(child_right, child_excl):
            # ``emitted=pre``: pre-order children are emitted now, the
            # rest when their expansion completes (pop) — the §3.5
            # alternating-output trick for polynomial delay.
            stack.append(_Node(
                child, successors(child_left, child_right, child_excl), depth, pre
            ))
            if pre and emit(child):
                yield child
        else:
            if emit(child):
                yield child


def itraversal(
    g: BipartiteGraph,
    k: int,
    *,
    theta: int | tuple[int, int] | None = None,
    local_enum: str = "l2r2",
    exclusion: str | None = "link",
    stats: TraversalStats | None = None,
    alternate_output: bool = True,
    deadline: float | None = None,
) -> Iterator[Solution]:
    """Full iTraversal (Algorithm 2): LA + RS + exclusion strategy."""
    return traverse(
        g,
        k,
        left_anchored=True,
        right_shrinking=True,
        exclusion=exclusion,
        theta=theta,
        local_enum=local_enum,
        alternate_output=alternate_output,
        stats=stats,
        deadline=deadline,
    )


def btraversal(
    g: BipartiteGraph,
    k: int,
    *,
    local_enum: str = "inflation",
    stats: TraversalStats | None = None,
    alternate_output: bool = True,
) -> Iterator[Solution]:
    """bTraversal (Algorithm 1).

    Default ``local_enum='inflation'`` matches §6's baseline ("implements
    EnumAlmostSat by first inflating the graph"); Fig 11 passes 'l2r2'
    for its fair comparison.
    """
    return traverse(
        g,
        k,
        left_anchored=False,
        right_shrinking=False,
        exclusion=None,
        local_enum=local_enum,
        alternate_output=alternate_output,
        stats=stats,
    )


VARIANTS: dict[str, Callable[..., Iterator[Solution]]] = {
    "bTraversal": lambda g, k, **kw: traverse(
        g, k, left_anchored=False, right_shrinking=False, exclusion=None, **kw
    ),
    "iTraversal-ES-RS": lambda g, k, **kw: traverse(
        g, k, left_anchored=True, right_shrinking=False, exclusion=None, **kw
    ),
    "iTraversal-ES": lambda g, k, **kw: traverse(
        g, k, left_anchored=True, right_shrinking=True, exclusion=None, **kw
    ),
    "iTraversal": lambda g, k, **kw: traverse(
        g, k, left_anchored=True, right_shrinking=True, exclusion="link", **kw
    ),
}
"""Fig 11's four ablation rows, keyed by the paper's names."""
