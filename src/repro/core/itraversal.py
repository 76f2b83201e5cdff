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
both sides ≥ θ. ``theta`` may be a single int (the paper's symmetric
constraint) or a ``(theta_l, theta_r)`` pair (the "easily customized"
asymmetric variant of §5, which the Fig 13 case study needs).

Local-solution memo. The same local solution (L', R') turns up under many
parents, and with right-shrinking its two costly questions depend on the
pair alone. The RS check asks whether some u ∈ 𝓡 \\ R can join (L', R');
since R \\ R' holds only vertices that local maximality already ruled out,
that is "is (L', R') right-maximal in G?", whatever H it came from. The
left-only extension is a function of the pair too. So each right-shrinking
`SuccessorStep` keeps one `_LocalMemo` of these outcomes, keyed on the
masks, in two generations of a fixed size; a repeat counts every counter
a first visit would, so output and `TraversalStats` do not change.

Shared bases. What the anchors of one expansion, or the local solutions
of one anchor, have in common is computed once, by the kernel that reads
it, on its first use: EnumAlmostSat's slack split of R
(`almost_sat.ExpansionBase`), the RS check's counters over 𝓡 \\ R and
per-anchor tight set (`_RightBase`), and θ mode's `_AnchorPotential`.
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
from .almost_sat import ExpansionBase, enum_almost_sat_inflation
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


class _RightBase:
    """The right-shrinking checks of one expansion H = (L, R) share.

    Every local solution of a left anchor v has L′ ⊆ L ∪ {v} and
    R′ = R_keep ∪ R″ (Lemma 4.1; `_AnchorPotential`), and the check asks
    about the same vertices 𝓡 \\ R each time. So, for L′ = L ∪ {v}:

    * per expansion, ``over`` holds `at_least`'s k+1 saturating counters
      of c(u) = |L \\ Γ(u)| over u ∈ 𝓡 \\ R; u misses at most k of L′
      iff c(u) + [u ∉ Γ(v)] ≤ k, two mask operations per anchor;
    * per anchor, ``cand`` starts from those u and ANDs in the neighbour
      masks of the vertices of L′ already tight on R_keep (δ̄(x, R_keep)
      ≥ k), and ``near`` lists, as (neighbour mask, need), the vertices
      that become tight once R″ holds ``need`` = k − δ̄(x, R_keep) of their
      non-neighbours; v is one of them, with need k.

    A local solution then walks ``near`` only. Both parts are built by the
    check itself: the counters on the expansion's first call, an anchor's
    state on its first call with L′ = L ∪ {v} (``v`` holds that anchor's
    bit). Other local solutions take the standalone formula.
    """

    __slots__ = ("left", "right", "over", "v", "keep", "cand", "near")

    def __init__(self, left: int, right: int) -> None:
        self.left, self.right = left, right
        self.over: list[int] | None = None
        self.v = 0
        self.keep = self.cand = 0
        self.near: list[tuple[int, int]] = []

    def set_anchor(self, g: BipartiteGraph, k: int, outside_right: int,
                   v: int) -> None:
        bits_l = g.bits_l
        if self.over is None:
            self.over = [0] * (k + 1)
            at_least([outside_right & ~bits_l[x] for x in ids_of(self.left)],
                     k + 1, self.over)
        over = self.over
        av = bits_l[v.bit_length() - 1]
        cand = outside_right & ~(over[k] | over[k - 1] & ~av)
        keep, r_enum = self.right & av, self.right & ~av
        n_keep = keep.bit_count()
        near = []
        for x in ids_of(self.left | v):
            if not cand:
                break
            ax = bits_l[x]
            need = k - n_keep + (ax & keep).bit_count()
            if need <= 0:
                cand &= ax
            elif (r_enum & ~ax).bit_count() >= need:
                near.append((ax, need))
        self.v, self.keep, self.cand, self.near = v, keep, cand, near


def _has_right_extension(
    g: BipartiteGraph,
    left: int,
    right: int,
    k: int,
    outside_right: int,
    base: _RightBase | None = None,
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

    ``base`` is the state of the expansion H_loc is a local solution of;
    with it, an H_loc with L_loc = L ∪ {v} takes both conditions from
    `_RightBase`.
    """
    if not outside_right:
        return False
    if base is not None and left & base.left == base.left:
        v = left & ~base.left
        if base.v != v:
            base.set_anchor(g, k, outside_right, v)
        cand = base.cand
        extra = right & ~base.keep  # R″
        for ax, need in base.near:
            if not cand:
                return False
            if (extra & ~ax).bit_count() >= need:
                cand &= ax
        return bool(cand)
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


# Entries per generation of `_LocalMemo`.
_MEMO_GENERATION = 4096


class _LocalMemo:
    """The parent-independent outcome of each local solution (L', R') a
    right-shrinking step has seen: False (RS-pruned), True (passes the RS
    check; extension not computed yet) or the masks of its left-only
    extension. The key is the pair's masks packed into one int,
    L' << |𝓡| | R', which takes about a third of the memory of a tuple.

    Two generations bound the memory: when ``young`` holds
    `_MEMO_GENERATION` entries it becomes ``old`` and a new ``young``
    starts; a hit in ``old`` moves back to ``young``. Repeats are local in
    the traversal, so the few that fall out of both only cost a recount.
    """

    __slots__ = ("young", "old")

    def __init__(self) -> None:
        self.young: dict[int, bool | MaskPair] = {}
        self.old: dict[int, bool | MaskPair] = {}

    def get(self, key: int) -> bool | MaskPair | None:
        out = self.young.get(key)
        if out is None:
            out = self.old.get(key)
            if out is not None:
                self.put(key, out)
        return out

    def put(self, key: int, out: bool | MaskPair) -> None:
        young = self.young
        if len(young) >= _MEMO_GENERATION and key not in young:
            self.old = young
            self.young = young = {}
        young[key] = out


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
    state on its first call, apart from `SuccessorStep.expandable`."""
    return _potential_ok(g, right, k, theta_l, theta_r, 0, anchor)


@dataclass
class SuccessorStep:
    """One engine configuration's per-solution policy.

    The step owns everything a traversal decides about one solution H:
    it validates k, θ and the toggles, picks the root H0 (`root`), tests
    whether H's subtree can hold an MBP that meets θ (`expandable`) and
    whether H itself does (`meets_theta`), and computes H's successors
    (`__call__`, Algorithm 2 lines 5–9). The local DFS (`traverse`) and
    the frontier BFS (`repro.distributed.frontier`) differ only in the
    order they visit solutions.

    The toggles are Fig 11's techniques; their defaults are the full
    iTraversal, and `VARIANTS` turns them off one by one.
    ``exclusion`` is the Berlowitz-style rule of the module docstring.
    ``local_enum``: 'l2r2' | 'l1r2' | 'l2r1' | 'l1r1' (refined
    EnumAlmostSat variants) or 'inflation' (bTraversal's implementation).
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
        if not isinstance(self.exclusion, bool):
            raise ValueError(f"exclusion must be a bool, got {self.exclusion!r}")
        if self.right_shrinking and not self.left_anchored:
            raise ValueError("right-shrinking traversal builds on left-anchored")
        if self.exclusion and not self.left_anchored:
            raise ValueError("exclusion strategy is defined on left anchors only")
        if self.theta is not None and not (self.right_shrinking and self.left_anchored):
            raise ValueError("θ pruning requires the full iTraversal prunings")
        g, k, deadline = self.g, self.k, self.deadline
        if self.local_enum == "inflation":
            def local(left, right, v, side, r_min, base):
                if deadline is not None and time.monotonic() > deadline:
                    return
                sol = masks_to_solution(left, right)
                for a, b in enum_almost_sat_inflation(
                    g, sol, v, k, side=side, deadline=deadline
                ):
                    yield mask_of(a), mask_of(b)
        else:
            try:
                l2 = {"l1": False, "l2": True}[self.local_enum[:2]]
                r2 = {"r1": False, "r2": True}[self.local_enum[2:]]
            except KeyError:
                raise ValueError(f"unknown local_enum {self.local_enum!r}") from None

            def local(left, right, v, side, r_min, base):
                return enum_almost_sat(g, left, right, v, k, side=side, l2=l2,
                                       r2=r2, r_min=r_min, base=base)

        self._local = local
        self._memo = _LocalMemo()

    def root(self) -> Solution:
        """H0: right-full for left-anchored traversal (§3.2), else any MBP."""
        if self.left_anchored:
            return initial_solution_left(self.g, self.k)
        return initial_solution_any(self.g, self.k)

    def meets_theta(self, sol: Solution) -> bool:
        """The emission filter: both sides of ``sol`` ≥ θ (True without θ)."""
        theta = self.theta
        return theta is None or (len(sol[0]) >= theta[0] and len(sol[1]) >= theta[1])

    def expandable(self, right: int, excl: int) -> bool:
        """Can the subtree of a solution with right side ``right`` and
        exclusion set ``excl`` (masks) hold an MBP that meets θ? (True
        without θ.)"""
        if self.theta is None:
            return True
        theta_l, theta_r = self.theta
        if right.bit_count() < theta_r:  # §5 right-side pruning (3)
            return False
        if self.exclusion and self.g.n_left - excl.bit_count() < theta_l:
            return False  # §5 left-side pruning
        # Potential pruning (our addition, same (θ−k)-core argument as
        # §5/§6.1 applied *dynamically*): every large MBP (L'', R'')
        # reachable from (L, R) has R'' ⊆ R and avoids the exclusion set,
        # so too-small potential sets make the whole subtree fruitless.
        return _potential_ok(self.g, right, self.k, theta_l, theta_r, excl)

    def __call__(self, left: int, right: int, excl: int) -> Iterator[Link]:
        """For every anchor of H = (``left``, ``right``) with exclusion set
        ``excl`` (left vertices, plus right ones for bTraversal): the §4
        local solutions, the θ-potential check, the §3.4 right-shrinking
        check, the exclusion test and the extension to a maximal k-biplex.
        Yields a `Link` per surviving local solution.

        What the anchors of H share is built once per expansion, lazily:
        EnumAlmostSat's `ExpansionBase` (one per side) and the RS check's
        `_RightBase`, which also keeps the state of the anchor whose local
        solutions it is checking."""
        g, k, st, theta = self.g, self.k, self.stats, self.theta
        exclusion, right_shrinking = self.exclusion, self.right_shrinking
        local, memo = self._local, self._memo
        bits_l, n_right = g.bits_l, g.n_right
        theta_l, theta_r = theta if theta is not None else (0, 0)
        st.expansions += 1
        free_right = ((1 << n_right) - 1) & ~right
        outside_right = free_right if right_shrinking else 0
        rs_base = _RightBase(left, right) if right_shrinking else None
        if self.left_anchored:
            free_right = 0  # no right anchors
        # ``processed`` holds the left anchors finished at this node; a
        # child's exclusion set is excl ∪ processed-so-far.
        processed = 0
        for side, free in (("L", ((1 << g.n_left) - 1) & ~left), ("R", free_right)):
            base = ExpansionBase()
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
                for loc_l, loc_r in local(left, right, v, side, theta_r, base):
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
                        # reuses them. ``ext`` holds a `_LocalMemo` value
                        # until the extension is known.
                        key = loc_l << n_right | loc_r
                        ext = memo.get(key)
                        if ext is None:
                            ext = not _has_right_extension(
                                g, loc_l, loc_r, k, outside_right, rs_base
                            )
                            memo.put(key, ext)
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
                            memo.put(key, ext)
                    if exclusion and ext[0] & banned:
                        st.pruned_exclusion += 1
                        continue
                    st.links += 1
                    yield ext, child_excl
                if side == "L":
                    processed |= bit


def traverse(g: BipartiteGraph, k: int, **config) -> Iterator[Solution]:
    """Lazily enumerate maximal k-biplexes by reverse search.

    ``config`` sets the fields of the `SuccessorStep` that decides every
    per-solution question (the Fig 11 toggles, ``theta``, ``local_enum``,
    ``stats``, ``deadline``); its defaults are the full iTraversal. This
    function is the DFS alone: the visited set, the alternating output
    and the deadline. The visited set holds each MBP's masks packed into
    one int, L << |𝓡| | R, so a link to a visited MBP costs one set
    lookup; only a new MBP becomes frozensets.

    ``deadline``: ``time.monotonic()`` timestamp after which the traversal
    stops (the reproduction's analog of the paper's INF budget —
    enumeration between yields can be long, so the cutoff must live
    inside the engine, not in the consumer). The stop is silent; the
    caller reads censoring off its own clock: a run that ends after its
    deadline is censored.
    """
    step = SuccessorStep(g, k, **config)
    st, deadline = step.stats, step.deadline
    expandable, meets_theta = step.expandable, step.meets_theta

    def emit(sol: Solution) -> bool:
        if not meets_theta(sol):
            return False
        st.solutions += 1
        return True

    # Without exclusion a child needs no θ test of its own: its right side
    # is its local solution's (right-shrinking keeps it), which already
    # passed the same potential test, with no exclusion set, in the step.
    # So only H0 is tested, as in the frontier BFS.
    test_children = step.exclusion and step.theta is not None
    n_right = g.n_right
    h0 = step.root()
    h0_left, h0_right = mask_of(h0[0]), mask_of(h0[1])
    visited = {h0_left << n_right | h0_right}
    stack: list[_Node] = []
    if expandable(h0_right, 0):
        stack.append(_Node(h0, step(h0_left, h0_right, 0), 0, True))  # pre-order
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
        if not test_children or expandable(child_right, child_excl):
            # §3.5's alternating output, for polynomial delay: children
            # at even depth are emitted now (pre-order), the rest when
            # their expansion completes (pop).
            pre = depth % 2 == 0
            stack.append(_Node(
                child, step(child_left, child_right, child_excl), depth, pre
            ))
            if pre and emit(child):
                yield child
        elif emit(child):
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
