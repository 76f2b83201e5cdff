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
both sides ≥ θ. The step takes every pruning, at three levels of one
expansion: a solution whose subtree cannot hold a large MBP fails the
θ gate and has no successors; an anchor none of whose local solutions
can pass the θ-potential test is skipped before EnumAlmostSat runs; and
each local solution takes that test on its own right side. Neither
traversal tests θ itself. ``theta`` may be a single int (the paper's
symmetric constraint) or a ``(theta_l, theta_r)`` pair (the "easily
customized" asymmetric variant of §5, which the Fig 13 case study needs).

Right-shrinking per anchor. The §3.4 check prunes each local solution
that some u ∈ 𝓡 \\ R can join. At k = 1 it also acts on whole anchors:
`_rs_dead_anchors` reads off H which anchors have every local solution
pruned, and the step skips them before EnumAlmostSat runs, as θ's
per-anchor bound does. The check on each local solution stays for the
anchors left (at k = 1 only their removal-path local solutions can fail
it) and for k ≥ 2.

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
Solutions stay masks from H0 to emission: links, the DFS's stack and its
visited set hold mask ints, and only an MBP the DFS emits becomes
frozensets.
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
    masks_to_solution,
)
# Not called here any more (the visited set holds mask keys), but kept
# importable: perfbench's tracer wraps the module global of this name
# (its ``dedup`` layer) and looks it up with getattr, so a traced run
# would fail without it.
from ..bipartite.graph import solution_key  # noqa: F401
from ..bipartite.predicates import normalize_k, normalize_theta
# The per-item layers of the successor step are called through these module
# globals, looked up at call time, so a tracer can wrap them.
from .almost_sat import (
    Anchor,
    ExpansionBase,
    enum_almost_sat,
    enum_almost_sat_inflation,
)
from .extend import extend_to_maximal, initial_solution_any, initial_solution_left


@dataclass
class TraversalStats:
    """Counters for the solution-graph experiments (Fig 11)."""

    links: int = 0            # successor links generated (after pruning)
    expansions: int = 0       # solutions expanded (iThreeStep calls)
    # EnumAlmostSat runs; an anchor the θ-potential bound skips, or one
    # the RS check would prune whole (k = 1), never runs it, so it counts
    # none, and none of its local solutions count.
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

    At k = 1 the step calls this only for local solutions of anchors that
    `_rs_dead_anchors` left in: their plain local solutions (L ∪ {v}, ·)
    all pass it, so only their removal-path ones can still be pruned here.
    At k ≥ 2 every local solution reaches it.
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


def _rs_dead_anchors(base: ExpansionBase, outside_right: int) -> int:
    """At k = 1: a mask over 𝓛 of anchors every local solution of which
    the RS check prunes (DESIGN.md §4, "Right-shrinking per anchor").
    ``base`` is H = (L, R)'s left side and ``outside_right`` is 𝓡 \\ R.

    v is in it iff, for some x ∈ L with exactly one miss m(x) in R, v
    misses m(x) and is adjacent to some u ∉ R that misses x and nothing
    else of L. Such a u joins every local solution of v: x keeps no miss
    in its right side, or x itself was removed. For a v outside the
    mask, no local solution (L ∪ {v}, ·) is pruned. The u ∉ R with
    c(u) = 1 are read off the base's counters, ``over[0] & ~over[1]``.
    """
    over = base.counters()
    once = outside_right & over[0] & ~over[1]
    if not once:
        return 0
    g = base.g
    bits_l, bits_r = g.bits_l, g.bits_r
    right = base.right
    dead = 0
    for x in ids_of(base.left):
        ax = bits_l[x]
        miss = right & ~ax
        joiners = once & ~ax  # the u ∉ R that miss x alone
        if not miss or miss & (miss - 1) or not joiners:
            continue
        adj = 0
        for u in ids_of(joiners):
            adj |= bits_r[u]
        dead |= adj & ~bits_r[miss.bit_length() - 1]
    return dead


# Entries the step's local-solution memo holds before it is cleared.
_MEMO_SIZE = 8192


def _potential_counters(
    g: BipartiteGraph, right: int, k: int, theta_r: int
) -> tuple[list[int], list[int]]:
    """The neighbour masks of ``right`` and the θ_R − k `at_least`
    counters over them, which the θ-potential tests read."""
    bits_r = g.bits_r
    adj = [bits_r[u] for u in ids_of(right)]
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
) -> bool:
    """The θ-potential test: can an MBP with sides ≥ (θ_L, θ_R) and no
    vertex of ``excluded`` have its right side inside R? ``adj`` holds the
    neighbour masks of R and ``over`` the `at_least` counters over them
    (θ_R − k of them).

    The (θ−k)-core argument of §5/§6.1, applied dynamically: such an MBP
    (L*, R*) has every x ∈ L* with δ(x, R) ≥ δ(x, R*) ≥ |R*| − k ≥
    θ_R − k, so L* lies inside the potential set P(R), read off the
    counters rather than scanned over 𝓛; and every u ∈ R* has
    δ(u, L*) ≥ θ_L − k with L* ⊆ P(R).
    """
    p = over[-1] if over else (1 << g.n_left) - 1
    p &= ~excluded
    if p.bit_count() < theta_l:
        return False
    need_r = theta_l - k
    if need_r <= 0:
        return len(adj) >= theta_r
    return sum(1 for a in adj if (a & p).bit_count() >= need_r) >= theta_r


def _anchor_potential_ok(
    g: BipartiteGraph,
    anchor: Anchor,
    k: int,
    theta_l: int,
    theta_r: int,
    reach: int,
) -> bool:
    """The θ-potential test for every local solution of ``anchor`` at
    once: False only if none can pass `_theta_potential_ok`. ``reach`` is
    P(R), the left vertices with θ_R − k neighbours in H's right side R.
    Builds ``anchor.pot``, the neighbour masks of R_keep and their θ_R − k
    counters, which the local solutions' checks share.

    Every local solution has R′ = R_keep ∪ R″ with R″ ⊆ ``anchor.enum``
    and |R″| ≤ k (Lemma 4.1). Each x ∈ P(R′) has δ(x, R_keep) ≥
    δ(x, R′) − |R″| ≥ θ_R − 2k, and δ(x, R) ≥ δ(x, R′) since R′ ⊆ R; so
    P(R′) ⊆ P = {x ∈ ``reach`` : δ(x, R_keep) ≥ θ_R − 2k}. Of the right
    vertices with θ_L − k neighbours in P(R′), those in R_keep have as
    many in P, and those in R″ are at most min(k, the vertices of
    R \\ Γ(v) with θ_L − k neighbours in P). The second count is taken
    only when it decides the verdict, and stops at θ_R.
    """
    adj, over = _potential_counters(g, anchor.keep, k, theta_r)
    anchor.pot = adj, over
    need_l = theta_r - 2 * k
    p = over[need_l - 1] & reach if need_l > 0 else reach
    if p.bit_count() < theta_l:
        return False
    need_r = theta_l - k
    if need_r <= 0:
        return len(adj) + min(k, anchor.enum.bit_count()) >= theta_r
    hits = 0
    for a in adj:
        if (a & p).bit_count() >= need_r:
            hits += 1
    if hits >= theta_r:
        return True
    if hits + k < theta_r:
        return False
    # Here θ_R − hits ≤ k, so stopping at θ_R caps R″'s share at k.
    bits_r = g.bits_r
    for u in ids_of(anchor.enum):
        if (bits_r[u] & p).bit_count() >= need_r:
            hits += 1
            if hits >= theta_r:
                return True
    return False


def _theta_potential_ok(
    g: BipartiteGraph,
    right: int,
    k: int,
    theta_l: int,
    theta_r: int,
    anchor: Anchor,
) -> bool:
    """The θ-potential test (`_potential_bound`) for the right side of one
    local solution of ``anchor``, with no exclusion set. A global of its
    own so that tracing times it apart from the step's θ gate.

    The right side is R_keep ∪ R″ with |R″| ≤ k (Lemma 4.1), and
    ``anchor.pot``, built by `_anchor_potential_ok` before EnumAlmostSat
    ran, holds R_keep's neighbour masks and counters; each local solution
    adds its at most k masks of R″ to a copy of the counters.
    """
    adj, over = anchor.pot
    bits_r = g.bits_r
    extra = [bits_r[u] for u in ids_of(right & ~anchor.keep)]
    if extra:
        over = over[:]  # the anchor's own counters serve its other solutions
        if over:
            at_least(extra, len(over), over)
        adj = adj + extra
    return _potential_bound(g, adj, over, k, theta_l, theta_r, 0)


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
                return enum_almost_sat_inflation(g, left, right, v, k, side=side,
                                                 deadline=deadline)
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

    def root(self) -> MaskPair:
        """H0 as masks: right-full for left-anchored traversal (§3.2), else
        any MBP."""
        if self.left_anchored:
            return initial_solution_left(self.g, self.k)
        return initial_solution_any(self.g, self.k)

    def meets_theta(self, left: int, right: int) -> bool:
        """The emission filter: both sides of H = (``left``, ``right``) ≥ θ
        (True without θ)."""
        theta = self.theta
        return theta is None or (
            left.bit_count() >= theta[0] and right.bit_count() >= theta[1]
        )

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
        read one set of counters over R. Each anchor left then takes the
        θ-potential bound over all its local solutions
        (`_anchor_potential_ok`) before EnumAlmostSat runs, and is skipped
        if it fails.

        At k = 1 under right-shrinking, the anchors all of whose local
        solutions the RS check would prune are dropped with the others,
        before EnumAlmostSat runs (`_rs_dead_anchors`). The RS check then
        sees the local solutions of the anchors left: at k = 1 only their
        removal-path ones can fail it, at k ≥ 2 any of them.

        The anchors of one side of H share one `ExpansionBase`; each anchor
        is one `Anchor`, which EnumAlmostSat and both checks read: the RS
        check fills its state on its first call, the anchor bound the θ
        check's."""
        g, k, st, theta = self.g, self.k, self.stats, self.theta
        exclusion, right_shrinking = self.exclusion, self.right_shrinking
        local, memo = self._local, self._memo
        n_right = g.n_right
        theta_l, theta_r = theta if theta is not None else (0, 0)
        rs_per_anchor = right_shrinking and k == 1
        if theta is not None:  # the θ gate
            if (right.bit_count() < theta_r
                    or g.n_left - excl.bit_count() < theta_l):
                return
            adj, over = _potential_counters(g, right, k, theta_r)
            if not _potential_bound(g, adj, over, k, theta_l, theta_r, excl):
                return
            reach = over[-1] if over else (1 << g.n_left) - 1  # P(R)
        st.expansions += 1
        outside_right = ((1 << n_right) - 1) & ~right if right_shrinking else 0
        for side, sg in self._sides:
            base = (ExpansionBase(sg, k, left, right) if side == "L"
                    else ExpansionBase(sg, k, right, left))
            free = ((1 << sg.n_left) - 1) & ~base.left
            anchors = free & ~excl
            if theta is not None:
                anchors &= reach  # §5 right-side pruning (1)
            if rs_per_anchor and anchors:
                anchors &= ~_rs_dead_anchors(base, outside_right)
            for v in ids_of(anchors):
                anchor = Anchor(base, v)
                if theta is not None and not _anchor_potential_ok(
                    g, anchor, k, theta_l, theta_r, reach
                ):
                    continue  # no local solution of v can pass the θ check
                # A child's exclusion set is excl plus every anchor this
                # node finished before v: the free vertices below it.
                # Exclusion and θ anchor on the left only; without
                # exclusion every set is empty.
                child_excl = excl | free & ((1 << v) - 1) if exclusion else 0
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
                        # the extension.
                        key = loc_l << n_right | loc_r
                        ext = memo.get(key)
                        if ext is None:
                            ext = not _has_right_extension(
                                g, loc_l, loc_r, k, outside_right, anchor
                            ) and extend_to_maximal(
                                g, loc_l, loc_r, k, allow_right=False
                            )
                            if len(memo) >= _MEMO_SIZE:
                                memo.clear()
                            memo[key] = ext
                        if ext is False:
                            st.pruned_right_shrinking += 1
                            continue
                    else:
                        ext = extend_to_maximal(g, loc_l, loc_r, k, allow_right=True)
                    if ext[0] & child_excl:
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
    and the deadline. A stack entry is a node's successor iterator and
    the masks it emits at pop (or None); the node's depth is its index.
    H0 enters as the one link into an empty stack, so it is pushed like
    any child. Every new MBP is pushed, θ or not: one that fails the
    step's θ gate has no successors, so it is emitted at push (even
    depth) or popped and emitted on the very next iteration (odd depth),
    as if it had never been pushed. The visited set holds each MBP's
    masks packed into one int, L << |𝓡| | R, so a link to a visited MBP
    costs one set lookup; an MBP becomes frozensets only when it is
    emitted.

    ``deadline``: ``time.monotonic()`` timestamp after which the traversal
    stops (the reproduction's analog of the paper's INF budget —
    enumeration between yields can be long, so the cutoff must live
    inside the engine, not in the consumer). The stop is silent; the
    caller reads censoring off its own clock: a run that ends after its
    deadline is censored.
    """
    step = SuccessorStep(g, k, **config)
    st, deadline, meets_theta = step.stats, step.deadline, step.meets_theta
    n_right = g.n_right
    visited: set[int] = set()
    stack: list[tuple[Iterator[Link], MaskPair | None]] = []
    link: Link | None = step.root(), 0
    while True:
        out = None  # the masks emitted on this iteration
        if link is None:  # the top node's successors are exhausted
            out = stack.pop()[1]
        else:
            (left, right), excl = link
            key = left << n_right | right
            if key not in visited:
                visited.add(key)
                sol = (left, right) if meets_theta(left, right) else None
                # §3.5's alternating output, for polynomial delay: a node
                # at even depth is emitted now (pre-order), one at odd
                # depth when its expansion completes (pop).
                odd = len(stack) % 2
                stack.append((step(left, right, excl), sol if odd else None))
                if not odd:
                    out = sol
        if out is not None:
            st.solutions += 1
            yield masks_to_solution(*out)
        if not stack or (deadline is not None and time.monotonic() > deadline):
            return
        link = next(stack[-1][0], None)


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

btraversal = partial(VARIANTS["bTraversal"], local_enum="inflation")
"""bTraversal (Algorithm 1) as §6's baseline, which "implements
EnumAlmostSat by first inflating the graph": the "bTraversal" row of
`VARIANTS` with ``local_enum='inflation'``. Fig 11 passes 'l2r2' for its
fair comparison."""
