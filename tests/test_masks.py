"""The bitmask kernels of the successor step against frozenset references.

The traversal engine runs EnumAlmostSat, the right-shrinking check, the
extension and the θ-potential test on int bitmasks. Each kernel is checked
here against a reference written with the frozenset predicates of
`repro.bipartite.predicates` (the oracle), on random graphs that include
ids ≥ 64 (multi-limb ints), empty sides, isolated vertices and |R| ≤ k.
"""
from collections import Counter

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import ids_of, mask_of
from repro.bipartite.predicates import (
    can_add_left,
    can_add_right,
    is_kbiplex,
    is_maximal_kbiplex,
)
from repro.core.almost_sat import (
    Anchor,
    ExpansionBase,
    enum_almost_sat,
    enum_almost_sat_brute,
    enum_local,
)
from repro.core.extend import extend_masks
from repro.core.itraversal import (
    _has_right_extension,
    _potential_bound,
    _potential_counters,
    _theta_potential_ok,
)

# Small sides, or sides just past one 64-bit limb.
side_size = st.one_of(st.integers(0, 6), st.integers(62, 70))


@st.composite
def graphs(draw):
    return random_bipartite_gnp(
        n_left=draw(side_size),
        n_right=draw(side_size),
        p=draw(st.sampled_from([0.03, 0.3, 0.7, 0.97])),
        seed=draw(st.integers(0, 2**16)),
    )


def grow(g, left, right, k, items):
    """Add each (is_left, id) of ``items`` in turn if the k-biplex stays one."""
    for is_left, i in items:
        if is_left and i not in left and can_add_left(g, (left, right), i, k):
            left = left | {i}
        elif not is_left and i not in right and can_add_right(g, (left, right), i, k):
            right = right | {i}
    return left, right


@st.composite
def biplexes(draw, g, k):
    """A k-biplex of ``g`` grown from drawn vertices (not always maximal)."""
    picks = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 69)), max_size=40))
    items = [(is_left, i) for is_left, i in picks
             if i < (g.n_left if is_left else g.n_right)]
    left, right = grow(g, frozenset(), frozenset(), k, items)
    assert is_kbiplex(g, left, right, k)
    return left, right


@settings(max_examples=200, deadline=None)
@given(ids=st.sets(st.integers(0, 3000)))
def test_ids_of_inverts_mask_of(ids):
    assert list(ids_of(mask_of(ids))) == sorted(ids)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=graphs(), k=st.integers(1, 3))
def test_rs_check_matches_can_add_right(data, g, k):
    left, right = data.draw(biplexes(g, k))
    outside = data.draw(st.sets(st.integers(0, g.n_right - 1))
                        if g.n_right else st.just(set())) - right
    want = any(can_add_right(g, (left, right), u, k) for u in outside)
    got = _has_right_extension(g, mask_of(left), mask_of(right), k, mask_of(outside))
    # perfbench counts ``out is True``: a truthy mask would read as False.
    assert got is want


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=graphs(), k=st.integers(1, 2))
def test_rs_check_depends_on_local_solution_only(data, g, k):
    """The premise of the step's local-solution memo. For a maximal H =
    (L, R), a left anchor v and each local solution (L', R'), the RS check
    over 𝓡 \\ R (what the step asks) equals the check over 𝓡 \\ R' (a
    question about (L', R') alone): local maximality already rules out
    every u in R \\ R'."""
    order = data.draw(st.permutations(
        [(True, v) for v in range(g.n_left)] + [(False, u) for u in range(g.n_right)]))
    left, right = grow(g, frozenset(), frozenset(), k, order)  # one pass: maximal
    anchors = sorted(set(range(g.n_left)) - left)
    if not anchors:
        return
    v = data.draw(st.sampled_from(anchors))
    everything = (1 << g.n_right) - 1
    lm, rm = mask_of(left), mask_of(right)
    for loc_l, loc_r in enum_local(g, lm, rm, v, k):
        assert loc_r & ~rm == 0  # a left anchor only shrinks R
        assert _has_right_extension(g, loc_l, loc_r, k, everything & ~rm) is (
            _has_right_extension(g, loc_l, loc_r, k, everything & ~loc_r))


def greedy(g, left, right, k, allow_right):
    """Ascending single pass over each side with the oracle predicates."""
    items = [(True, v) for v in range(g.n_left)]
    if allow_right:
        items += [(False, u) for u in range(g.n_right)]
    return grow(g, left, right, k, items)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=graphs(), k=st.integers(1, 3), allow_right=st.booleans())
def test_extension_matches_ascending_greedy(data, g, k, allow_right):
    left, right = data.draw(biplexes(g, k))
    want = greedy(g, left, right, k, allow_right)
    lm, rm = extend_masks(g, mask_of(left), mask_of(right), k, allow_right=allow_right)
    got = (frozenset(ids_of(lm)), frozenset(ids_of(rm)))
    assert got == want
    if allow_right:
        assert is_maximal_kbiplex(g, got[0], got[1], k)


def potential_set(g, right, need_l, excluded):
    """Left vertices outside ``excluded`` with ≥ need_l neighbours in
    ``right``, counted with a Counter over the right adjacency lists."""
    if need_l <= 0:
        return frozenset(range(g.n_left)) - excluded
    cnt: Counter[int] = Counter()
    for u in right:
        cnt.update(g.adj_r[u])
    return frozenset(v for v, c in cnt.items() if c >= need_l) - excluded


def potential_ok(g, right, k, theta_l, theta_r, excluded):
    """The step's θ-potential bound on a whole right side (mask), with no
    slack, from a fresh set of counters."""
    adj, over = _potential_counters(g, right, k, theta_r)
    return _potential_bound(g, adj, over, k, theta_l, theta_r, excluded, 0)


def potential_reference(g, right, k, theta_l, theta_r, p):
    """The frozenset form of the θ-potential test, given the potential set."""
    if len(p) < theta_l:
        return False
    need_r = theta_l - k
    if need_r <= 0:
        return len(right) >= theta_r
    return sum(1 for u in right if len(g.adj_r[u] & p) >= need_r) >= theta_r


@settings(max_examples=100, deadline=None)
@given(data=st.data(), g=graphs(), k=st.integers(1, 3))
def test_theta_potential_matches_counter_formula(data, g, k):
    def subset(n):
        return frozenset(data.draw(st.sets(st.integers(0, n - 1)) if n
                                   else st.just(set())))

    right, excluded = subset(g.n_right), subset(g.n_left)
    rm, xm = mask_of(right), mask_of(excluded)
    # Every threshold pair, so that off-by-one errors in either count show.
    for theta_r in range(min(g.n_right, 12) + 2):
        p_all = potential_set(g, right, theta_r - k, frozenset())
        p = p_all - excluded
        _, over = _potential_counters(g, rm, k, theta_r)
        if over:  # the anchors §5's right-side pruning (1) keeps
            assert frozenset(ids_of(over[-1])) == p_all
        for theta_l in range(g.n_left + 2):
            assert potential_ok(g, rm, k, theta_l, theta_r, xm) is (
                potential_reference(g, right, k, theta_l, theta_r, p))
            assert potential_ok(g, rm, k, theta_l, theta_r, 0) is (
                potential_reference(g, right, k, theta_l, theta_r, p_all))


@st.composite
def anchored(draw, g, k, side, max_size, min_size=0):
    """An H that is maximal inside a few drawn vertices (ids up to 69),
    and an anchor v of the given side that cannot join H; None when there
    is no such v. Local solutions only involve G[H ∪ v]."""
    def few(n):
        return draw(st.sets(st.integers(0, n - 1), min_size=min(min_size, n),
                            max_size=max_size)) if n else set()

    s_l, s_r = few(g.n_left), few(g.n_right)
    items = draw(st.permutations(
        [(True, v) for v in s_l] + [(False, u) for u in s_r]))
    left, right = grow(g, frozenset(), frozenset(), k, items)
    if side == "L":
        anchors = [v for v in range(g.n_left)
                   if v not in left and not can_add_left(g, (left, right), v, k)]
    else:
        anchors = [u for u in range(g.n_right)
                   if u not in right and not can_add_right(g, (left, right), u, k)]
    if not anchors:
        return None
    return (left, right), draw(st.sampled_from(anchors))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), g=graphs(), k=st.integers(1, 2), side=st.sampled_from("LR"))
def test_local_solutions_match_brute(data, g, k, side):
    """EnumAlmostSat against the subset-enumeration reference."""
    drawn = data.draw(anchored(g, k, side, 4))
    if drawn is None:
        return
    h, v = drawn
    want = enum_almost_sat_brute(g, h, v, k, side=side)
    got = [(tuple(sorted(a)), tuple(sorted(b)))
           for a, b in enum_almost_sat(g, h, v, k, side=side)]
    assert len(got) == len(set(got))
    assert set(got) == want


@settings(max_examples=400, deadline=None)
@given(data=st.data(), g=graphs(), k=st.integers(1, 3))
def test_anchor_state_matches_standalone(data, g, k):
    """The θ-potential state an `Anchor` shares across its local solutions
    gives, for every threshold pair, exactly the standalone check; and a
    dead anchor has no local solution that passes it. The drawn anchor and
    up to two more of the same H take turns on one `ExpansionBase`, as in
    the step, so state that leaked from one anchor to the next would show."""
    drawn = data.draw(anchored(g, k, "L", 12, min_size=4))
    if drawn is None:
        return
    (left, right), v = drawn
    lm, rm = mask_of(left), mask_of(right)
    others = [x for x in range(g.n_left) if x != v and x not in left
              and not can_add_left(g, (left, right), x, k)][:2]
    base = ExpansionBase(g, k, lm, rm)
    per_anchor = []
    for x in [v, *others]:
        keep = rm & g.bits_l[x]
        rights = [r for _, r in enum_local(g, lm, rm, x, k)]
        for r in rights:
            # Lemma 4.1, which the shared state and the dead bound rest on.
            assert r & keep == keep
            assert (r & ~keep).bit_count() <= k
        per_anchor.append((x, rights))
    for theta_r in range(len(right) + k + 2):
        for theta_l in range(min(g.n_left, 12) + 2):
            for x, rights in per_anchor:
                want = [potential_ok(g, r, k, theta_l, theta_r, 0) for r in rights]
                # In both orders: one local solution must not leak into the next.
                for order in (1, -1):
                    anchor = Anchor(base, x)
                    got = [_theta_potential_ok(g, r, k, theta_l, theta_r, anchor)
                           for r in rights[::order]]
                    assert all(a is b for a, b in zip(got, want[::order]))
                    if anchor.pot is not None and anchor.pot[2]:  # dead
                        assert not any(want)


def maximal_h(data, g, k):
    """A maximal k-biplex H of ``g`` (one greedy pass over a drawn order)."""
    order = data.draw(st.permutations(
        [(True, v) for v in range(g.n_left)] + [(False, u) for u in range(g.n_right)]))
    return grow(g, frozenset(), frozenset(), k, order)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=graphs(), k=st.integers(1, 3))
def test_expansion_base_matches_slack_test(data, g, k):
    """The §4.2 split that all anchors of H share equals the per-vertex
    slack test of each anchor, and sharing it leaves every anchor's local
    solutions and their order unchanged. The base's counters hold
    c(u) = |L \\ Γ(u)| for every right vertex."""
    drawn = data.draw(anchored(g, k, "L", 12, min_size=4))
    if drawn is None:
        return
    (left, right), _ = drawn
    lm, rm = mask_of(left), mask_of(right)
    base = ExpansionBase(g, k, lm, rm)
    anchors = [x for x in range(g.n_left) if x not in left][:6]
    for x in anchors:
        shared = list(enum_local(g, lm, rm, x, k, anchor=Anchor(base, x)))
        assert shared == list(enum_local(g, lm, rm, x, k))
        r_enum = right - g.adj_l[x]
        r1 = {u for u in r_enum if len(left) - len(g.adj_r[u] & left) <= k - 1}
        assert set(ids_of(mask_of(r_enum) & ~base.over[k - 1])) == r1
    if base.over is not None:
        misses = [len(left - g.adj_r[u]) for u in range(g.n_right)]
        assert [set(ids_of(o)) for o in base.over] == [
            {u for u, c in enumerate(misses) if c > j} for j in range(k + 1)]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), g=graphs(), k=st.integers(1, 3))
def test_rs_base_matches_standalone(data, g, k):
    """The RS check with the `Anchor` it shares with EnumAlmostSat, on the
    `ExpansionBase` all anchors of one expansion share, equals the check
    without it on every local solution of every anchor, in the step's
    order: those with L' = L ∪ {v} (which read the anchor's state) and the
    removal-path ones (which take the standalone formula)."""
    left, right = maximal_h(data, g, k)
    lm, rm = mask_of(left), mask_of(right)
    outside = ((1 << g.n_right) - 1) & ~rm
    base = ExpansionBase(g, k, lm, rm)
    anchors = sorted(data.draw(st.sets(
        st.sampled_from(sorted(set(range(g.n_left)) - left)), max_size=6))
        if g.n_left > len(left) else ())
    for v in anchors:
        anchor = Anchor(base, v)
        for loc_l, loc_r in enum_local(g, lm, rm, v, k, anchor=anchor):
            event("L' = L ∪ {v}" if loc_l == lm | 1 << v else "removal path")
            assert _has_right_extension(g, loc_l, loc_r, k, outside, anchor) is (
                _has_right_extension(g, loc_l, loc_r, k, outside))
