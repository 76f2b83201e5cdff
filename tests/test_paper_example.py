"""The paper's running example (Figure 1 / Figure 3).

The PDF figure's edge list is not recoverable from the text, so an exact
replay of "10 solutions; 76/41/21/13 links" is not possible. Instead we
fix a concrete 5x5 graph as the stand-in running example and assert the
qualitative facts the paper states about Figures 1-3:

* the 𝒢 → 𝒢_L → 𝒢_R → 𝒢_E chain strictly sparsifies,
* every stage still enumerates all maximal 1-biplexes,
* the initial solution has the form H0 = (L0, 𝓡),
* 𝒢_E is dramatically sparser than 𝒢 (paper: ~0.1%-20% depending on
  graph; here we assert a > 2x reduction on the tiny example).
"""
import pytest

from repro.bipartite.bruteforce import all_maximal_kbiplexes
from repro.bipartite.graph import BipartiteGraph, solution_key
from repro.core.extend import initial_solution_left
from repro.core.itraversal import VARIANTS, TraversalStats

# A 5x5 bipartite graph dense enough to carry many overlapping MBPs,
# mirroring the flavor of the paper's Figure 1 (5 left, 5 right vertices).
EXAMPLE = BipartiteGraph.from_biadjacency(
    [
        [1, 1, 1, 1, 0],
        [1, 1, 1, 0, 0],
        [1, 1, 0, 0, 1],
        [0, 0, 1, 1, 1],
        [1, 1, 1, 1, 1],
    ]
)
K = 1


@pytest.fixture(scope="module")
def ablation():
    out = {}
    for name, make in VARIANTS.items():
        stats = TraversalStats()
        sols = {solution_key(s) for s in make(EXAMPLE, K, stats=stats)}
        out[name] = (sols, stats)
    return out


def test_initial_solution_is_right_full():
    l0, r0 = initial_solution_left(EXAMPLE, K)
    assert r0 == 0b11111
    assert l0  # v4 connects everything, so L0 is non-empty here


def test_every_stage_is_complete(ablation):
    want = all_maximal_kbiplexes(EXAMPLE, K)
    for name, (sols, _) in ablation.items():
        assert sols == want, name


def test_example_has_many_solutions(ablation):
    sols, _ = ablation["iTraversal"]
    assert len(sols) >= 8  # paper's example has 10


def test_sparsification_chain(ablation):
    links = {name: st.links for name, (_, st) in ablation.items()}
    assert (
        links["bTraversal"]
        >= links["iTraversal-ES-RS"]
        >= links["iTraversal-ES"]
        >= links["iTraversal"]
    )
    assert links["iTraversal"] * 2 <= links["bTraversal"]


def test_right_shrinking_prunes_nonshrinking_links(ablation):
    _, st = ablation["iTraversal-ES"]
    assert st.pruned_right_shrinking > 0


def test_exclusion_prunes_links(ablation):
    # The exclusion strategy mostly skips anchors before any link is
    # generated, so compare link counts rather than the loc-level counter.
    _, st_full = ablation["iTraversal"]
    _, st_es = ablation["iTraversal-ES"]
    assert st_full.links < st_es.links
    assert st_full.almost_sat_calls < st_es.almost_sat_calls
