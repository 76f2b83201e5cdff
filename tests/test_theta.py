"""Tests for large-MBP enumeration (§5): θ-pruned iTraversal."""
import pytest

from repro.bipartite.bruteforce import all_maximal_kbiplexes
from repro.bipartite.core_decomp import theta_k_core
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import solution_key
from repro.core.itraversal import TraversalStats, itraversal


def large(mbps, tl, tr):
    return {(l, r) for l, r in mbps if len(l) >= tl and len(r) >= tr}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("theta", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symmetric_theta_matches_filtered_bruteforce(k, theta, seed):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.6, seed=seed)
    want = large(all_maximal_kbiplexes(g, k), theta, theta)
    got = {solution_key(s) for s in itraversal(g, k, theta=theta)}
    assert got == want


@pytest.mark.parametrize("tl,tr", [(1, 3), (3, 1), (2, 4), (4, 2)])
@pytest.mark.parametrize("seed", [3, 4])
def test_asymmetric_theta(tl, tr, seed):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.65, seed=seed)
    k = 1
    want = large(all_maximal_kbiplexes(g, k), tl, tr)
    got = {solution_key(s) for s in itraversal(g, k, theta=(tl, tr))}
    assert got == want


@pytest.mark.parametrize("mode", ["None", "link"])
def test_theta_with_each_exclusion_mode(mode):
    g = random_bipartite_gnp(n_left=6, n_right=5, p=0.6, seed=7)
    k = 1
    theta = 2
    want = large(all_maximal_kbiplexes(g, k), theta, theta)
    got = {
        solution_key(s)
        for s in itraversal(g, k, theta=theta, exclusion=mode == "link")
    }
    assert got == want


def test_theta_prunes_work():
    # θ pruning must do strictly less work than full enumeration + filter.
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.6, seed=11)
    k = 1
    st_full, st_theta = TraversalStats(), TraversalStats()
    list(itraversal(g, k, stats=st_full))
    list(itraversal(g, k, theta=3, stats=st_theta))
    assert st_theta.links <= st_full.links
    assert st_theta.expansions <= st_full.expansions


def test_theta_too_large_yields_nothing():
    g = random_bipartite_gnp(n_left=4, n_right=4, p=0.5, seed=0)
    assert list(itraversal(g, 1, theta=10)) == []


@pytest.mark.parametrize("seed", [0, 5])
def test_theta_core_preprocessing_is_lossless(seed):
    """§6.1: enumerating on the (θ−k)-core finds exactly the large MBPs."""
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.7, seed=seed)
    k = 1
    theta = 3  # = 2k+1, the connectivity bound
    want = large(all_maximal_kbiplexes(g, k), theta, theta)
    core_l, core_r = theta_k_core(g, theta, k)
    sub, lids, rids = g.induced(core_l, core_r)
    got = set()
    for lp, rp in itraversal(sub, k, theta=theta):
        got.add(
            solution_key(
                (frozenset(lids[i] for i in lp), frozenset(rids[j] for j in rp))
            )
        )
    assert got == want


def test_every_large_mbp_survives_core_peeling():
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.7, seed=9)
    k, theta = 1, 3
    core_l, core_r = theta_k_core(g, theta, k)
    for lk, rk in large(all_maximal_kbiplexes(g, k), theta, theta):
        assert set(lk) <= core_l
        assert set(rk) <= core_r


@pytest.mark.parametrize(
    "theta", [-1, (1,), (2, 2, 2), "a", "ab", (None, 1), (1, -2), 1.5, True]
)
def test_bad_theta_rejected(theta):
    g = random_bipartite_gnp(n_left=4, n_right=4, p=0.5, seed=0)
    with pytest.raises(ValueError, match="theta"):
        list(itraversal(g, 1, theta=theta))


# Emitted sequence of `iTraversal-ES` with θ, recorded from the DFS that
# still tested every child's θ expandability, and the counters of each run
# (Cfat's core first, then each graph at k = 1 and k = 2). Only the Cfat
# run has anchors that the per-anchor θ-potential bound skips. The k = 1
# runs also skip the anchors whose local solutions the RS check would all
# prune, which moved their ``almost_sat_calls``, ``local_solutions``,
# ``pruned_right_shrinking`` and (Cfat) ``pruned_theta_potential``.
ES_THETA_RUNS = [
    (dict(n_left=3, n_right=66, p=0.95, seed=1), (2, 3)),
    (dict(n_left=9, n_right=6, p=0.4, seed=2), (2, 2)),
    (dict(n_left=7, n_right=7, p=0.45, seed=0), 2),
]
ES_THETA_SEQUENCE_DIGEST = (
    "3b9c12a63bb9d479694016e8ee9d0e60c1c0e80080b05f553a842706adc45d47")
ES_THETA_STATS = [
    dict(links=4136, expansions=3486, almost_sat_calls=1175, local_solutions=15173,
         pruned_right_shrinking=0, pruned_exclusion=0,
         pruned_theta_potential=11037, solutions=25),
    dict(links=172, expansions=78, almost_sat_calls=56, local_solutions=172,
         pruned_right_shrinking=0, pruned_exclusion=0,
         pruned_theta_potential=0, solutions=65),
    dict(links=111, expansions=67, almost_sat_calls=23, local_solutions=156,
         pruned_right_shrinking=45, pruned_exclusion=0,
         pruned_theta_potential=0, solutions=66),
    dict(links=239, expansions=46, almost_sat_calls=135, local_solutions=266,
         pruned_right_shrinking=27, pruned_exclusion=0,
         pruned_theta_potential=0, solutions=40),
    dict(links=4256, expansions=302, almost_sat_calls=1714, local_solutions=5949,
         pruned_right_shrinking=1693, pruned_exclusion=0,
         pruned_theta_potential=0, solutions=301),
    dict(links=311, expansions=66, almost_sat_calls=183, local_solutions=366,
         pruned_right_shrinking=55, pruned_exclusion=0,
         pruned_theta_potential=0, solutions=58),
    dict(links=1566, expansions=211, almost_sat_calls=827, local_solutions=3744,
         pruned_right_shrinking=2178, pruned_exclusion=0,
         pruned_theta_potential=0, solutions=207),
]


def test_es_theta_tests_only_h0(monkeypatch):
    """Without exclusion only H0 can fail the step's θ gate: a child's
    right side is its local solution's (right-shrinking keeps it), which
    already passed the same potential test, with no exclusion set. So
    every step call after the root's counts an expansion; the emitted
    sequence and every run's counters are pinned."""
    import hashlib

    from repro.core.itraversal import VARIANTS, SuccessorStep
    from repro.experiments import datasets

    expanded = []
    call = SuccessorStep.__call__

    def counted(self, left, right, excl):
        before = self.stats.expansions
        links = call(self, left, right, excl)
        first = next(links, None)  # runs the θ gate
        expanded.append(self.stats.expansions > before)
        if first is not None:
            yield first
            yield from links

    monkeypatch.setattr(SuccessorStep, "__call__", counted)
    cfat = datasets.load("Cfat")
    core, _, _ = cfat.induced(*theta_k_core(cfat, 4, 1))
    runs = [(core, 1, 4)] + [(random_bipartite_gnp(**spec), k, theta)
                             for spec, theta in ES_THETA_RUNS for k in (1, 2)]
    h = hashlib.sha256()
    for (g, k, theta), want in zip(runs, ES_THETA_STATS, strict=True):
        expanded.clear()
        st = TraversalStats()
        for sol in VARIANTS["iTraversal-ES"](g, k, theta=theta, stats=st):
            h.update(repr(solution_key(sol)).encode())
        assert expanded and all(expanded[1:])
        assert st.expansions == sum(expanded)
        assert st.as_dict() == want
    assert h.hexdigest() == ES_THETA_SEQUENCE_DIGEST


@pytest.mark.parametrize("theta", [3, (1, 7)])
@pytest.mark.parametrize("variant", ["iTraversal", "iTraversal-ES"])
def test_h0_failing_theta_gate_expands_nothing(variant, theta):
    """A 6×6 perfect matching has no MBP with both sides ≥ 3 at k = 1.
    H0 = (∅, 𝓡) fails the step's θ gate, by the potential bound (θ = 3)
    or by right-side pruning (3) (θ_R = 7 > |𝓡|): no output, and no
    expansion is counted."""
    from repro.bipartite.graph import BipartiteGraph
    from repro.core.itraversal import VARIANTS

    g = BipartiteGraph.from_edges([(i, i) for i in range(6)])
    tl, tr = theta if isinstance(theta, tuple) else (theta, theta)
    assert large(all_maximal_kbiplexes(g, 1), tl, tr) == set()
    st = TraversalStats()
    assert list(VARIANTS[variant](g, 1, theta=theta, stats=st)) == []
    assert st.as_dict() == TraversalStats().as_dict()


# The θ grid of the per-anchor bound's tests: θ_R ≤ k (the gate's P(R) is
# every left vertex) occurs at θ = 2 and (3, 2) with k = 2.
ANCHOR_THETAS = [2, 3, (1, 3), (3, 2), (2, 4)]


def _anchor_grid():
    from repro.experiments import datasets

    cfat = datasets.load("Cfat")
    core, _, _ = cfat.induced(*theta_k_core(cfat, 4, 1))
    yield "iTraversal", core, 1, 4
    for variant in ("iTraversal", "iTraversal-ES"):
        for seed in range(3):
            for shape in ((6, 6, 0.6), (7, 5, 0.7)):
                g = random_bipartite_gnp(n_left=shape[0], n_right=shape[1],
                                         p=shape[2], seed=seed)
                for k in (1, 2):
                    for theta in ANCHOR_THETAS:
                        yield variant, g, k, theta


def test_anchor_bound_only_removes_work(monkeypatch):
    """The per-anchor θ-potential bound skips only anchors whose local
    solutions all fail the θ check, so with the bound patched to "never
    dead" the emitted sequence, the links and the expansions are the same,
    and only EnumAlmostSat's work grows."""
    import repro.core.itraversal as itr

    bound = itr._anchor_potential_ok

    def run(g, k, theta, variant):
        st = TraversalStats()
        seq = [solution_key(s)
               for s in itr.VARIANTS[variant](g, k, theta=theta, stats=st)]
        return seq, st

    skipped = open_gate = 0
    for variant, g, k, theta in _anchor_grid():
        open_gate += (theta if isinstance(theta, int) else theta[1]) <= k
        seq, st = run(g, k, theta, variant)
        with monkeypatch.context() as m:
            # Still built: the θ check reads the state the bound leaves.
            m.setattr(itr, "_anchor_potential_ok",
                      lambda *a: bound(*a) or True)
            seq_all, st_all = run(g, k, theta, variant)
        assert seq == seq_all, (variant, k, theta)
        assert (st.links, st.expansions) == (st_all.links, st_all.expansions)
        assert st.almost_sat_calls <= st_all.almost_sat_calls
        assert (st_all.pruned_theta_potential - st.pruned_theta_potential
                == st_all.local_solutions - st.local_solutions)
        skipped += st_all.almost_sat_calls - st.almost_sat_calls
    assert open_gate and skipped


@pytest.mark.parametrize("k", [1, 2])
def test_killed_anchor_has_no_passing_local_solution(monkeypatch, k):
    """Soundness of the per-anchor bound, on the anchors real traversals
    kill: every local solution `enum_almost_sat` yields for such an anchor
    fails the slack-0 θ-potential test on its right side."""
    import repro.core.itraversal as itr
    from repro.core.almost_sat import enum_almost_sat

    bound = itr._anchor_potential_ok
    killed = []

    def record(g, anchor, k, theta_l, theta_r, reach):
        ok = bound(g, anchor, k, theta_l, theta_r, reach)
        if not ok:
            base = anchor.base
            killed.append((g, base.left, base.right, anchor.v, theta_l, theta_r))
        return ok

    monkeypatch.setattr(itr, "_anchor_potential_ok", record)
    for seed in range(12):
        for n_l, n_r, p in ((6, 6, 0.6), (7, 7, 0.55), (8, 6, 0.7)):
            g = random_bipartite_gnp(n_left=n_l, n_right=n_r, p=p, seed=seed)
            for theta in (2, 3, 4, (2, 4), (4, 2), (3, 5)):
                list(itraversal(g, k, theta=theta))
    assert killed
    checked = 0
    for g, left, right, v, theta_l, theta_r in killed:
        for _, loc_r in enum_almost_sat(g, left, right, v, k):
            adj, over = itr._potential_counters(g, loc_r, k, theta_r)
            assert not itr._potential_bound(g, adj, over, k, theta_l, theta_r, 0)
            checked += 1
    assert checked
