"""The exclusion-strategy sweep: iTraversal with exclusion against brute force.

The paper defers the exclusion strategy's correctness proof to an offline
technical report, so the rule implemented here (see the `itraversal`
module docstring) rests on this differential evidence, each run of which
must enumerate exactly the maximal k-biplexes brute force finds:

* the 'link' grid: 120 seeds × 4 graph shapes × 3 densities × k ∈ {1, 2}
  = 2,880 runs without θ;
* the larger-graph grid: 15 seeds × 3 shapes of 15–16 vertices (8×8,
  6×9, 9×6) × 3 densities × k ∈ {1, 2, 3} = 405 runs without θ, where
  deeper traversals and k = 3 give the rule more excluded anchors to get
  wrong;
* the θ grid: 40 seeds × 4 shapes × 3 densities × 2 labellings (as drawn,
  and relabelled by ascending degree) × k ∈ {1, 2} × 5 θ = 9,600 runs,
  each against brute force filtered by size. The θ gate's left-side
  pruning reads the exclusion set, and the labelling decides which
  anchors a child excludes.

All three full grids, 12,885 runs, are marked ``sweep`` and deselected by
default; run them with

    PYTHONPATH=src python -m pytest tests/test_exclusion_sweep.py -m sweep

A fixed-seed subset of each grid runs with the default selection.
"""
import pytest

from repro.bipartite.bruteforce import all_maximal_kbiplexes
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import BipartiteGraph, solution_key
from repro.core.itraversal import itraversal

SEEDS = range(120)
SHAPES = [(5, 5), (4, 6), (6, 4), (3, 7)]
DENSITIES = [0.35, 0.5, 0.65]
KS = [1, 2]
SUBSET_SEEDS = range(0, 120, 4)


def sweep_seed(seed: int, shapes=SHAPES, densities=DENSITIES, ks=KS) -> int:
    """Check every run of one seed; returns the number of runs."""
    runs = 0
    for n_left, n_right in shapes:
        for p in densities:
            g = random_bipartite_gnp(n_left=n_left, n_right=n_right, p=p, seed=seed)
            for k in ks:
                want = all_maximal_kbiplexes(g, k)
                got = {solution_key(s) for s in itraversal(g, k, exclusion=True)}
                assert got == want, (seed, n_left, n_right, p, k)
                runs += 1
    return runs


RUNS_PER_SEED = len(SHAPES) * len(DENSITIES) * len(KS)


@pytest.mark.sweep
@pytest.mark.parametrize("seed", SEEDS)
def test_exclusion_sweep(seed):
    assert sweep_seed(seed) == RUNS_PER_SEED


@pytest.mark.parametrize("seed", SUBSET_SEEDS)
def test_exclusion_sweep_subset(seed):
    assert sweep_seed(seed) == RUNS_PER_SEED


LARGE_SEEDS = range(15)
LARGE_SHAPES = [(8, 8), (6, 9), (9, 6)]
LARGE_DENSITIES = [0.4, 0.6, 0.8]
LARGE_KS = [1, 2, 3]
LARGE_SUBSET_SEEDS = range(0, 15, 8)
LARGE_RUNS_PER_SEED = len(LARGE_SHAPES) * len(LARGE_DENSITIES) * len(LARGE_KS)


def large_sweep_seed(seed: int) -> int:
    """Check every larger-graph run of one seed; returns the number of runs."""
    return sweep_seed(seed, LARGE_SHAPES, LARGE_DENSITIES, LARGE_KS)


@pytest.mark.sweep
@pytest.mark.parametrize("seed", LARGE_SEEDS)
def test_exclusion_large_sweep(seed):
    assert large_sweep_seed(seed) == LARGE_RUNS_PER_SEED


@pytest.mark.parametrize("seed", LARGE_SUBSET_SEEDS)
def test_exclusion_large_sweep_subset(seed):
    assert large_sweep_seed(seed) == LARGE_RUNS_PER_SEED


THETA_SEEDS = range(40)
THETA_SHAPES = [(5, 5), (6, 6), (4, 7), (7, 4)]
THETA_DENSITIES = [0.5, 0.65, 0.8]
THETAS = [2, 3, (1, 3), (3, 2), (2, 4)]
THETA_SUBSET_SEEDS = range(0, 40, 5)


def by_ascending_degree(g: BipartiteGraph):
    """``g`` relabelled so that each side's ids ascend by degree, ties by
    id; with each side's old ids listed in new-id order."""
    order_l = sorted(range(g.n_left), key=lambda v: (len(g.adj_l[v]), v))
    order_r = sorted(range(g.n_right), key=lambda u: (len(g.adj_r[u]), u))
    new_l = {v: i for i, v in enumerate(order_l)}
    new_r = {u: j for j, u in enumerate(order_r)}
    h = BipartiteGraph.from_edges(
        ((new_l[v], new_r[u]) for v, u in g.edges()),
        n_left=g.n_left, n_right=g.n_right,
    )
    return h, order_l, order_r


def theta_sweep_seed(seed: int) -> int:
    """Check every θ run of one seed against brute force, each result
    mapped back to the drawn labels; returns the number of runs."""
    runs = 0
    for n_left, n_right in THETA_SHAPES:
        for p in THETA_DENSITIES:
            g = random_bipartite_gnp(n_left=n_left, n_right=n_right, p=p, seed=seed)
            labellings = {"drawn": (g, range(n_left), range(n_right)),
                          "ascending": by_ascending_degree(g)}
            for k in KS:
                mbps = all_maximal_kbiplexes(g, k)
                for theta in THETAS:
                    t_l, t_r = (theta, theta) if isinstance(theta, int) else theta
                    want = {(l, r) for l, r in mbps if len(l) >= t_l and len(r) >= t_r}
                    for name, (h, old_l, old_r) in labellings.items():
                        got = {
                            (tuple(sorted(old_l[i] for i in l)),
                             tuple(sorted(old_r[j] for j in r)))
                            for l, r in itraversal(h, k, theta=theta, exclusion=True)
                        }
                        assert got == want, (seed, n_left, n_right, p, name, k, theta)
                        runs += 1
    return runs


THETA_RUNS_PER_SEED = 2 * len(THETA_SHAPES) * len(THETA_DENSITIES) * len(KS) * len(THETAS)


@pytest.mark.sweep
@pytest.mark.parametrize("seed", THETA_SEEDS)
def test_exclusion_theta_sweep(seed):
    assert theta_sweep_seed(seed) == THETA_RUNS_PER_SEED


@pytest.mark.parametrize("seed", THETA_SUBSET_SEEDS)
def test_exclusion_theta_sweep_subset(seed):
    assert theta_sweep_seed(seed) == THETA_RUNS_PER_SEED
