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


# Emitted sequence and counters of `iTraversal-ES` with θ, recorded from
# the DFS that still tested every child's θ expandability.
ES_THETA_RUNS = [
    (dict(n_left=3, n_right=66, p=0.95, seed=1), (2, 3)),
    (dict(n_left=9, n_right=6, p=0.4, seed=2), (2, 2)),
    (dict(n_left=7, n_right=7, p=0.45, seed=0), 2),
]
ES_THETA_DIGEST = "6959780adc0fc0512d5b9874801d8b8464093e5c4c7098136f164baba9f797e8"


def test_es_theta_tests_only_h0(monkeypatch):
    """Without exclusion only H0 can fail the step's θ gate: a child's
    right side is its local solution's (right-shrinking keeps it), which
    already passed the same potential test, with no exclusion set. So
    every step call after the root's counts an expansion, and the emitted
    sequence and every counter stay as they were."""
    import hashlib
    import json

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
    for g, k, theta in runs:
        expanded.clear()
        st = TraversalStats()
        for sol in VARIANTS["iTraversal-ES"](g, k, theta=theta, stats=st):
            h.update(repr(solution_key(sol)).encode())
        h.update(json.dumps(st.as_dict(), sort_keys=True).encode())
        assert expanded and all(expanded[1:])
        assert st.expansions == sum(expanded)
    assert h.hexdigest() == ES_THETA_DIGEST


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
