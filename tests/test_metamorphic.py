"""Metamorphic checks on graphs beyond brute force's reach.

Every Fig 11 row must commute with the two symmetries of the problem:
transposing the graph swaps the sides of every MBP, and relabelling the
vertices maps the MBP set onto itself. Each run's `TraversalStats`
must also count exactly the solutions it emitted. The graphs have 12–20
vertices per side; dense ones keep k = 2 at tens of MBPs, and the sparse
one (thousands of MBPs at k = 2) runs at k = 1 only.

θ mode must equal full enumeration filtered by size, on every graph at
k ∈ {1, 2}. On the dense graphs every MBP meets these θ, so they check
that the prunings lose nothing; the sparse one also checks the filter.
"""
import functools
import random

import pytest

from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import BipartiteGraph, solution_key
from repro.core.itraversal import VARIANTS, TraversalStats

# (n_left, n_right, p, seed) → the ks it runs at.
GRAPHS = {
    (12, 16, 0.92, 1): (1, 2),
    (16, 20, 0.92, 1): (1, 2),
    (12, 12, 0.85, 1): (1, 2),
    (14, 12, 0.2, 3): (1,),
}
CASES = [(spec, k) for spec, ks in GRAPHS.items() for k in ks]


def mbps(variant, g, k, **kw):
    """The MBP set of one run, checked against the run's solution count."""
    st = TraversalStats()
    out = [solution_key(s) for s in VARIANTS[variant](g, k, stats=st, **kw)]
    assert st.solutions == len(out)
    assert len(set(out)) == len(out)
    return set(out)


def graph(spec):
    n_left, n_right, p, seed = spec
    return random_bipartite_gnp(n_left=n_left, n_right=n_right, p=p, seed=seed)


@pytest.mark.parametrize("spec,k", CASES)
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_transpose_swaps_sides(variant, spec, k):
    g = graph(spec)
    want = {(r, l) for l, r in mbps(variant, g, k)}
    assert want
    assert mbps(variant, g.transpose(), k) == want


@pytest.mark.parametrize("spec,k", CASES)
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_relabelling_maps_mbps_onto_themselves(variant, spec, k):
    g = graph(spec)
    rng = random.Random(spec[3] * 100 + k)
    pl = list(range(g.n_left))
    pr = list(range(g.n_right))
    rng.shuffle(pl)
    rng.shuffle(pr)
    h = BipartiteGraph.from_edges(
        ((pl[v], pr[u]) for v, u in g.edges()), n_left=g.n_left, n_right=g.n_right
    )
    want = {
        (tuple(sorted(pl[v] for v in l)), tuple(sorted(pr[u] for u in r)))
        for l, r in mbps(variant, g, k)
    }
    assert mbps(variant, h, k) == want


@functools.cache
def full_mbps(spec, k):
    return mbps("iTraversal", graph(spec), k)


@pytest.mark.parametrize("theta", [2, 3, (2, 4), (4, 2)], ids=repr)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("spec", list(GRAPHS))
def test_theta_equals_filtered_full_enumeration(spec, k, theta):
    t_l, t_r = (theta, theta) if isinstance(theta, int) else theta
    want = {(l, r) for l, r in full_mbps(spec, k) if len(l) >= t_l and len(r) >= t_r}
    assert mbps("iTraversal", graph(spec), k, theta=theta) == want
