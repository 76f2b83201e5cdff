"""Reverse-search traversal engine: bTraversal, iTraversal and ablations.

One engine implements the whole family of Fig 11 (paper §3):

* ``bTraversal``      — anchors on both sides, arbitrary initial MBP,
  strongly-connected solution graph 𝒢 (Algorithm 1).
* ``iTraversal-ES-RS``— left-anchored traversal only (𝒢_L, §3.3).
* ``iTraversal-ES``   — + right-shrinking traversal (𝒢_R, §3.4).
* ``iTraversal``      — + exclusion strategy (𝒢_E, §3.5).

The engine is an explicit-stack DFS over the implicit solution graph; it
is a *generator*, so "return the first N MBPs" and delay measurement come
for free (the paper's evaluation leans on both). Output always alternates
as §3.5 [38] prescribes — a solution is emitted before its expansion at
even depth and after it at odd depth — which yields at least one solution
every two expansions, hence polynomial delay. Everything the engine
decides about one solution (its successors, whether to expand it, whether
to emit it) belongs to `SuccessorStep`; `traverse` is the DFS around it.

Exclusion strategy. The paper defers the exact rule and its (non-trivial)
correctness proof to an offline technical report, so we implement one
rule in the style of Berlowitz et al. (SIGMOD 2015), which it cites: every
solution carries an inherited exclusion set of left vertices; (a) anchors
already in the set are skipped, and (b) the link to a successor is pruned
when the successor contains an excluded vertex; a child's exclusion set
is the parent's plus all anchors the parent finished before the child's
anchor. ``exclusion`` turns the rule on or off. Its completeness rests on
the differential sweep against brute force in
tests/test_exclusion_sweep.py.

θ mode (§5, large MBPs): ``theta`` enables the right-side prunings
(almost-satisfying-graph, local-solution and solution pruning) plus the
exclusion-based left-side pruning, and filters emissions to MBPs with
both sides ≥ θ. Every pruning is a decision about one expansion, so the
step takes them all: a solution whose subtree cannot hold a large MBP
fails the step's θ gate and has no successors, and neither traversal
tests θ itself. ``theta`` may be a single int (the paper's symmetric
constraint) or a ``(theta_l, theta_r)`` pair (the "easily customized"
asymmetric variant of §5, which the Fig 13 case study needs).

Local-solution memo. The same local solution (L', R') turns up under many
parents, and with right-shrinking its two costly questions depend on the
pair alone. The RS check asks whether some u ∈ 𝓡 \\ R can join (L', R');
since R \\ R' holds only vertices that local maximality already ruled out,
that is "is (L', R') right-maximal in G?", whatever H it came from. The
left-only extension is a function of the pair too. So each right-shrinking
`SuccessorStep` keeps one dict of these outcomes, keyed on the masks and
cleared when it holds `_MEMO_SIZE` entries; a repeat counts every counter
a first visit would, so output and `TraversalStats` do not change.

Shared bases. What the anchors of one expansion, or the local solutions
of one anchor, have in common is computed once, by the first kernel that
reads it: each side of H has one `almost_sat.ExpansionBase`, whose
counters of c(u) = |L \\ Γ(u)| give both EnumAlmostSat's slack split of R
and the RS check's test outside R; each anchor v has one
`almost_sat.Anchor`, which splits R at Γ(v) once (Lemma 4.1) and holds
the RS check's and the θ-potential check's per-anchor state.
Links stay masks: the DFS's visited set holds packed mask ints, and only
a new MBP becomes frozensets.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from ..bipartite.graph import (
    BipartiteGraph,
    MaskPair,
    Solution,
    at_least,
    ids_of,
    mask_of,
    masks_to_solution,
)
# Not called here any more (the visited set holds mask keys), but kept
# importable: perfbench's tracer wraps the module global of this name
# (its ``dedup`` layer) and looks it up with getattr, so a traced run
# would fail without it.
from ..bipartite.graph import solution_key  # noqa: F401
from ..bipartite.predicates import normalize_k, normalize_theta
from .almost_sat import Anchor, ExpansionBase, enum_almost_sat_inflation
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


# A link: the successor MBP's sides as masks, and its exclusion mask.
Link = tuple[MaskPair, int]


@dataclass
class _Node:
    sol: Solution
    succ: Iterator[Link]
    depth: int
    emitted: bool


def _has_right_extension(
    g: BipartiteGraph,
    left: int,
    right: int,
    k: int,
    outside_right: int,
    anchor: Anchor | None = None,
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

    ``anchor`` is the `Anchor` v of H = (L, R) that H_loc is a local
    solution of. Every local solution of v has R_loc = R_keep ∪ R″ with
    R_keep = R ∩ Γ(v) (Lemma 4.1), so for L_loc = L ∪ {v} both conditions
    come from state the anchor's local solutions share, ``anchor.rs``,
    built on the anchor's first such check:

    * ``cand``: the u ∈ 𝓡 \\ R with c(u) + [u ∉ Γ(v)] ≤ k, read off the
      base's counters, ANDed with the neighbour masks of the x already
      tight on R_keep (δ̄(x, R_keep) ≥ k);
    * ``near``: (neighbour mask, need) of each x that is tight once R″
      holds need = k − δ̄(x, R_keep) of its non-neighbours; v is one of
      them, with need k.

    A local solution then walks ``near`` only. Removal-path local
    solutions (L_loc ⊉ L) take the standalone formula.
    """
    if not outside_right:
        return False
    bits_l = g.bits_l
    if anchor is not None and left == anchor.base.left | 1 << anchor.v:
        if anchor.rs is None:
            over = anchor.base.counters()
            keep, n_keep = anchor.keep, anchor.keep.bit_count()
            cand = outside_right & ~(over[k] | over[k - 1] & ~bits_l[anchor.v])
            near = []
            for x in ids_of(left):
                if not cand:
                    break
                ax = bits_l[x]
                need = k - n_keep + (ax & keep).bit_count()
                if need <= 0:
                    cand &= ax
                elif (anchor.enum & ~ax).bit_count() >= need:
                    near.append((ax, need))
            anchor.rs = cand, near
        cand, near = anchor.rs
        extra = right & ~anchor.keep  # R″
        for ax, need in near:
            if not cand:
                return False
            if (extra & ~ax).bit_count() >= need:
                cand &= ax
        return bool(cand)
    adj = [bits_l[x] for x in ids_of(left)]
    max_hits = right.bit_count() - k  # x is tight iff |Γ(x, R_loc)| ≤ this
    cand = outside_right
    for ax in adj:
        if (ax & right).bit_count() <= max_hits:
            cand &= ax
            if not cand:
                return False
    return bool(cand & ~at_least([cand & ~ax for ax in adj], k + 1))


# Entries the step's local-solution memo holds before it is cleared.
_MEMO_SIZE = 8192


def _potential_counters(
    g: BipartiteGraph, right: int, k: int, theta_r: int
) -> tuple[list[int], list[int]]:
    """The neighbour masks of ``right`` and the θ_R − k `at_least`
    counters over them, which `_potential_bound` reads."""
    adj = [g.bits_r[u] for u in ids_of(right)]
    over = [0] * max(theta_r - k, 0)
    if over:
        at_least(adj, len(over), over)
    return adj, over


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
    """The θ-potential test: can an MBP with sides ≥ (θ_L, θ_R) and no
    vertex of ``excluded`` have its right side inside some R' = R ∪ R''
    with |R''| ≤ ``slack``? ``adj`` holds the neighbour masks of R and
    ``over`` the `at_least` counters over them (θ_R − k of them).

    The (θ−k)-core argument of §5/§6.1, applied dynamically: such an MBP
    (L*, R*) has every x ∈ L* with δ(x, R') ≥ δ(x, R*) ≥ |R*| − k ≥
    θ_R − k, so L* lies inside the potential set P(R'); and every
    u ∈ R* has δ(u, L*) ≥ θ_L − k with L* ⊆ P(R'). P is read off the
    counters, not scanned over 𝓛. P(R') lies inside P_up =
    {x : δ(x, R) ≥ θ_R − k − slack}, since R'' adds at most ``slack``
    neighbours to any x; and R'' holds at most ``slack`` of the right
    vertices with θ_L − k neighbours in P(R'). With slack 0 the bound is
    the test itself.
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


def _theta_potential_ok(
    g: BipartiteGraph,
    right: int,
    k: int,
    theta_l: int,
    theta_r: int,
    anchor: Anchor,
) -> bool:
    """The θ-potential test (`_potential_bound`, slack 0) for the right
    side of one local solution of ``anchor``, with no exclusion set. A
    global of its own so that tracing times it apart from the step's θ
    gate.

    The right side is R_keep ∪ R″ with |R″| ≤ k (Lemma 4.1), so
    ``anchor.pot`` holds, built on the anchor's first check, R_keep's
    neighbour masks and counters, and whether the bound over all its local
    solutions (slack k) already fails (the anchor is dead). Each local
    solution then adds its at most k masks of R″ to a copy of the counters.
    """
    if anchor.pot is None:
        adj, over = _potential_counters(g, anchor.keep, k, theta_r)
        dead = not _potential_bound(g, adj, over, k, theta_l, theta_r, 0, k)
        anchor.pot = adj, over, dead
    adj, over, dead = anchor.pot
    if dead:
        return False
    bits_r = g.bits_r
    extra = [bits_r[u] for u in ids_of(right & ~anchor.keep)]
    if extra:
        over = over[:]  # the anchor's own counters serve its other solutions
        if over:
            at_least(extra, len(over), over)
        adj = adj + extra
    return _potential_bound(g, adj, over, k, theta_l, theta_r, 0, 0)


@dataclass
class SuccessorStep:
    """One engine configuration's per-solution policy.

    The step owns everything a traversal decides about one solution H:
    it validates k, θ and the toggles, picks the root H0 (`root`), tests
    whether H itself meets θ (`meets_theta`), and computes H's successors
    (`__call__`, Algorithm 2 lines 5–9), which are none when H's subtree
    cannot hold an MBP that meets θ (the θ gate). The local DFS
    (`traverse`) and the frontier BFS (`repro.distributed.frontier`)
    differ only in the order they visit solutions.

    The toggles are Fig 11's techniques; their defaults are the full
    iTraversal, and `VARIANTS` turns them off one by one.
    ``exclusion`` is the Berlowitz-style rule of the module docstring.
    ``local_enum``: 'l2r2' (the refined EnumAlmostSat, L2.0+R2.0) or
    'inflation' (bTraversal's implementation). Fig 12 times the other
    refined variants on `almost_sat.enum_almost_sat` itself.
    ``theta``: an int or a (θ_L, θ_R) pair; only MBPs with both sides
    ≥ θ count, and the §5 prunings apply.
    ``deadline``: the run's ``time.monotonic()`` budget, which `traverse`
    checks between links. In the step it reaches only the inflation local
    enumeration, the one local step that can outlast a budget on its own;
    once it passes, every remaining anchor's inflation returns at once.
    """

    g: BipartiteGraph
    k: int
    stats: TraversalStats = field(default_factory=TraversalStats)
    left_anchored: bool = True  # §3.3
    right_shrinking: bool = True  # §3.4
    exclusion: bool = True  # §3.5
    theta: int | tuple[int, int] | None = None
    local_enum: str = "l2r2"
    deadline: float | None = None

    def __post_init__(self) -> None:
        self.k = normalize_k(self.k)
        self.theta = normalize_theta(self.theta)
        for name in ("left_anchored", "right_shrinking", "exclusion"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.right_shrinking and not self.left_anchored:
            raise ValueError("right-shrinking traversal builds on left-anchored")
        if self.exclusion and not self.left_anchored:
            raise ValueError("exclusion strategy is defined on left anchors only")
        if self.theta is not None and not (self.right_shrinking and self.left_anchored):
            raise ValueError("θ pruning requires the full iTraversal prunings")
        g, k, deadline = self.g, self.k, self.deadline
        if self.local_enum == "inflation":
            def local(left, right, v, side, r_min, anchor):
                if deadline is not None and time.monotonic() > deadline:
                    return
                sol = masks_to_solution(left, right)
                for a, b in enum_almost_sat_inflation(
                    g, sol, v, k, side=side, deadline=deadline
                ):
                    yield mask_of(a), mask_of(b)
        elif self.local_enum == "l2r2":
            def local(left, right, v, side, r_min, anchor):
                return enum_almost_sat(g, left, right, v, k, side=side,
                                       r_min=r_min, anchor=anchor)
        else:
            raise ValueError(f"unknown local_enum {self.local_enum!r}")

        self._local = local
        # Each side's anchors and the graph they are the left side of:
        # right anchors (bTraversal only) live on the transpose.
        self._sides = [("L", g)]
        if not self.left_anchored:
            self._sides.append(("R", g.transpose()))
        self._memo: dict[int, bool | MaskPair] = {}

    def root(self) -> Solution:
        """H0: right-full for left-anchored traversal (§3.2), else any MBP."""
        if self.left_anchored:
            return initial_solution_left(self.g, self.k)
        return initial_solution_any(self.g, self.k)

    def meets_theta(self, sol: Solution) -> bool:
        """The emission filter: both sides of ``sol`` ≥ θ (True without θ)."""
        theta = self.theta
        return theta is None or (len(sol[0]) >= theta[0] and len(sol[1]) >= theta[1])

    def __call__(self, left: int, right: int, excl: int) -> Iterator[Link]:
        """For every anchor of H = (``left``, ``right``) with exclusion set
        ``excl`` (left vertices): the §4 local solutions, the θ-potential
        check, the §3.4 right-shrinking check, the exclusion test and the
        extension to a maximal k-biplex. Yields a `Link` per surviving
        local solution.

        With θ, H passes a gate first: §5's right-side pruning (3), its
        left-side pruning and the θ-potential bound with ``excl`` (every
        MBP below H has its right side inside R and avoids ``excl``). An H
        that fails yields nothing and counts no expansion; one that passes
        drops, by pruning (1), every anchor with < θ_R − k neighbours in
        R (a solution below v keeps ≤ δ(v, R) + k right vertices). Both
        read one set of counters over R.

        The anchors of one side of H share one `ExpansionBase`; each anchor
        is one `Anchor`, which EnumAlmostSat and both checks read and fill
        lazily."""
        g, k, st, theta = self.g, self.k, self.stats, self.theta
        exclusion, right_shrinking = self.exclusion, self.right_shrinking
        local, memo = self._local, self._memo
        n_right = g.n_right
        theta_l, theta_r = theta if theta is not None else (0, 0)
        if theta is not None:  # the θ gate
            if right.bit_count() < theta_r or (
                exclusion and g.n_left - excl.bit_count() < theta_l
            ):
                return
            adj, over = _potential_counters(g, right, k, theta_r)
            if not _potential_bound(g, adj, over, k, theta_l, theta_r, excl, 0):
                return
        st.expansions += 1
        outside_right = ((1 << n_right) - 1) & ~right if right_shrinking else 0
        for side, sg in self._sides:
            base = (ExpansionBase(sg, k, left, right) if side == "L"
                    else ExpansionBase(sg, k, right, left))
            free = ((1 << sg.n_left) - 1) & ~base.left
            anchors = free & ~excl if exclusion else free
            if theta is not None and over:
                anchors &= over[-1]  # §5 right-side pruning (1)
            for v in ids_of(anchors):
                # A child's exclusion set is excl plus every anchor this
                # node finished before v: the free vertices below it.
                # Exclusion and θ anchor on the left only.
                banned = excl | free & ((1 << v) - 1)
                child_excl = banned if exclusion else excl
                anchor = Anchor(base, v)
                st.almost_sat_calls += 1
                for loc_l, loc_r in local(left, right, v, side, theta_r, anchor):
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
                    if right_shrinking:
                        # The RS verdict and the left-only extension depend
                        # on (L', R') alone (module docstring), so a repeat
                        # reuses them. ``ext`` holds False (RS-pruned) or
                        # True until the extension is known.
                        key = loc_l << n_right | loc_r
                        ext = memo.get(key)
                        if ext is None:
                            ext = not _has_right_extension(
                                g, loc_l, loc_r, k, outside_right, anchor
                            )
                            if len(memo) >= _MEMO_SIZE:
                                memo.clear()
                            memo[key] = ext
                        if ext is False:
                            st.pruned_right_shrinking += 1
                            continue
                    else:
                        ext = True
                    if exclusion and loc_l & banned:
                        # Early exit: the extension is a superset of the
                        # local solution, so the link check below would
                        # prune anyway.
                        st.pruned_exclusion += 1
                        continue
                    if ext is True:
                        ext = extend_to_maximal(
                            g, loc_l, loc_r, k, allow_right=not right_shrinking
                        )
                        if right_shrinking:
                            memo[key] = ext
                    if exclusion and ext[0] & banned:
                        st.pruned_exclusion += 1
                        continue
                    st.links += 1
                    yield ext, child_excl


def traverse(g: BipartiteGraph, k: int, **config) -> Iterator[Solution]:
    """Lazily enumerate maximal k-biplexes by reverse search.

    ``config`` sets the fields of the `SuccessorStep` that decides every
    per-solution question (the Fig 11 toggles, ``theta``, ``local_enum``,
    ``stats``, ``deadline``); its defaults are the full iTraversal. This
    function is the DFS alone: the visited set, the alternating output
    and the deadline. It pushes every new MBP, θ or not: one that fails
    the step's θ gate has no successors, so it is emitted at push (even
    depth) or popped and emitted on the very next iteration (odd depth),
    as if it had never been pushed. The visited set holds each MBP's
    masks packed into one int, L << |𝓡| | R, so a link to a visited MBP
    costs one set lookup; only a new MBP becomes frozensets.

    ``deadline``: ``time.monotonic()`` timestamp after which the traversal
    stops (the reproduction's analog of the paper's INF budget —
    enumeration between yields can be long, so the cutoff must live
    inside the engine, not in the consumer). The stop is silent; the
    caller reads censoring off its own clock: a run that ends after its
    deadline is censored.
    """
    step = SuccessorStep(g, k, **config)
    st, deadline, meets_theta = step.stats, step.deadline, step.meets_theta

    def emit(sol: Solution) -> bool:
        if not meets_theta(sol):
            return False
        st.solutions += 1
        return True

    n_right = g.n_right
    h0 = step.root()
    h0_left, h0_right = mask_of(h0[0]), mask_of(h0[1])
    visited = {h0_left << n_right | h0_right}
    stack = [_Node(h0, step(h0_left, h0_right, 0), 0, True)]  # pre-order
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
        (child_left, child_right), child_excl = nxt
        ck = child_left << n_right | child_right
        if ck in visited:
            continue
        visited.add(ck)
        child = masks_to_solution(child_left, child_right)
        depth = node.depth + 1
        # §3.5's alternating output, for polynomial delay: children at
        # even depth are emitted now (pre-order), the rest when their
        # expansion completes (pop).
        pre = depth % 2 == 0
        stack.append(_Node(
            child, step(child_left, child_right, child_excl), depth, pre
        ))
        if pre and emit(child):
            yield child


VARIANTS: dict[str, Callable[..., Iterator[Solution]]] = {
    "bTraversal": partial(
        traverse, left_anchored=False, right_shrinking=False, exclusion=False
    ),
    "iTraversal-ES-RS": partial(traverse, right_shrinking=False, exclusion=False),
    "iTraversal-ES": partial(traverse, exclusion=False),
    "iTraversal": traverse,
}
"""Fig 11's four ablation rows, keyed by the paper's names: each row turns
off one more technique of the full iTraversal (Algorithm 2: LA + RS +
exclusion strategy), which is `SuccessorStep`'s default configuration."""

itraversal = VARIANTS["iTraversal"]


def btraversal(
    g: BipartiteGraph, k: int, *, local_enum: str = "inflation", **config
) -> Iterator[Solution]:
    """bTraversal (Algorithm 1): the "bTraversal" row of `VARIANTS`.

    Default ``local_enum='inflation'`` matches §6's baseline ("implements
    EnumAlmostSat by first inflating the graph"); Fig 11 passes 'l2r2'
    for its fair comparison.
    """
    return VARIANTS["bTraversal"](g, k, local_enum=local_enum, **config)
