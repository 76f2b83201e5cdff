"""The exclusion-strategy sweep: both exclusion modes against brute force.

The paper defers the exclusion strategy's correctness proof to an offline
technical report, so the rule implemented here (see the `itraversal`
module docstring) rests on this differential evidence: 120 seeds × 4
graph shapes × 3 densities × k ∈ {1, 2} × both modes ('candidate' and
'link') = 5,760 runs, each of which must enumerate exactly the maximal
k-biplexes brute force finds. The full grid is marked ``sweep`` and
deselected by default; run it with

    PYTHONPATH=src python -m pytest tests/test_exclusion_sweep.py -m sweep

A fixed-seed subset of the same grid runs with the default selection.
"""
import pytest

from repro.bipartite.bruteforce import all_maximal_kbiplexes
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import solution_key
from repro.core.itraversal import itraversal

SEEDS = range(120)
SHAPES = [(5, 5), (4, 6), (6, 4), (3, 7)]
DENSITIES = [0.35, 0.5, 0.65]
KS = [1, 2]
MODES = ["candidate", "link"]
SUBSET_SEEDS = range(0, 120, 4)


def sweep_seed(seed: int) -> int:
    """Check every run of one seed; returns the number of runs."""
    runs = 0
    for n_left, n_right in SHAPES:
        for p in DENSITIES:
            g = random_bipartite_gnp(n_left=n_left, n_right=n_right, p=p, seed=seed)
            for k in KS:
                want = all_maximal_kbiplexes(g, k)
                for mode in MODES:
                    got = {solution_key(s) for s in itraversal(g, k, exclusion=mode)}
                    assert got == want, (seed, n_left, n_right, p, k, mode)
                    runs += 1
    return runs


RUNS_PER_SEED = len(SHAPES) * len(DENSITIES) * len(KS) * len(MODES)


@pytest.mark.sweep
@pytest.mark.parametrize("seed", SEEDS)
def test_exclusion_sweep(seed):
    assert sweep_seed(seed) == RUNS_PER_SEED


@pytest.mark.parametrize("seed", SUBSET_SEEDS)
def test_exclusion_sweep_subset(seed):
    assert sweep_seed(seed) == RUNS_PER_SEED
