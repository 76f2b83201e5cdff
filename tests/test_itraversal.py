"""Differential tests for the reverse-search traversal engine.

The decisive property: every configuration (bTraversal, each iTraversal
ablation, every EnumAlmostSat variant, with and without exclusion) enumerates
*exactly* the set of maximal k-biplexes that brute force finds — on many
random graphs, including hypothesis-generated ones. This is also how we
validate the exclusion-strategy rule, whose proof lives in the paper's
offline technical report (see module docstring of itraversal.py).
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.itraversal as itr
from repro.bipartite.bruteforce import all_maximal_kbiplexes
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import BipartiteGraph, solution_key
from repro.core.itraversal import (
    VARIANTS,
    TraversalStats,
    btraversal,
    itraversal,
    traverse,
)

from .test_golden import LOCAL_ENUMS, RANDOM_GRAPHS, use_local_enum


def keys(it):
    return {solution_key(s) for s in it}


CONFIGS = {
    "bTraversal": dict(left_anchored=False, right_shrinking=False, exclusion=False),
    "iTraversal-ES-RS": dict(left_anchored=True, right_shrinking=False, exclusion=False),
    "iTraversal-ES": dict(left_anchored=True, right_shrinking=True, exclusion=False),
    "iTraversal(link)": dict(
        left_anchored=True, right_shrinking=True, exclusion=True
    ),
}


@pytest.mark.parametrize("name,cfg", CONFIGS.items(), ids=list(CONFIGS))
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed,p", [(0, 0.5), (1, 0.35), (2, 0.65), (3, 0.5)])
def test_configs_match_bruteforce(name, cfg, k, seed, p):
    g = random_bipartite_gnp(n_left=5, n_right=5, p=p, seed=seed)
    want = all_maximal_kbiplexes(g, k)
    got = keys(traverse(g, k, **cfg))
    assert got == want, f"{name} diverged from brute force"


@pytest.mark.parametrize("local_enum", [*LOCAL_ENUMS, "inflation"])
@pytest.mark.parametrize("k", [1, 2])
def test_local_enum_variants_complete(monkeypatch, local_enum, k):
    g = random_bipartite_gnp(n_left=5, n_right=4, p=0.5, seed=5)
    want = all_maximal_kbiplexes(g, k)
    if local_enum == "inflation":
        assert keys(itraversal(g, k, local_enum=local_enum)) == want
    else:
        use_local_enum(monkeypatch, local_enum)
        assert keys(itraversal(g, k)) == want


@pytest.mark.parametrize("k", [1, 2])
def test_btraversal_inflation_complete(k):
    g = random_bipartite_gnp(n_left=4, n_right=5, p=0.45, seed=8)
    want = all_maximal_kbiplexes(g, k)
    assert keys(btraversal(g, k)) == want
    assert keys(btraversal(g, k, local_enum="l2r2")) == want


def test_no_duplicates():
    g = random_bipartite_gnp(n_left=6, n_right=5, p=0.5, seed=2)
    out = [solution_key(s) for s in itraversal(g, 1)]
    assert len(out) == len(set(out))


def test_lazy_first_n():
    g = random_bipartite_gnp(n_left=6, n_right=6, p=0.5, seed=6)
    import itertools

    full = list(itraversal(g, 1))
    first3 = list(itertools.islice(itraversal(g, 1), 3))
    assert first3 == full[:3]


@pytest.mark.parametrize("k", [1, 2])
def test_link_counts_monotone_sparsification(k):
    """Fig 3/11: |links(𝒢)| >= |links(𝒢_L)| >= |links(𝒢_R)| >= |links(𝒢_E)|."""
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.55, seed=10)
    counts = {}
    for name, make in VARIANTS.items():
        st_ = TraversalStats()
        list(make(g, k, stats=st_))
        counts[name] = st_.links
    assert (
        counts["bTraversal"]
        >= counts["iTraversal-ES-RS"]
        >= counts["iTraversal-ES"]
        >= counts["iTraversal"]
    )
    assert counts["iTraversal"] < counts["bTraversal"]


def test_stats_populated():
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.5, seed=1)
    st_ = TraversalStats()
    n = len(list(itraversal(g, 1, stats=st_)))
    assert st_.solutions == n
    assert st_.expansions >= 1
    assert st_.links >= n - 1  # a DFS tree alone has n-1 links
    d = st_.as_dict()
    assert d["solutions"] == n


def right_shrinking_runs():
    """Emitted sequence and stats of the two variants with right-shrinking
    (the ones whose step keeps a local-solution memo) on the golden graphs."""
    out = []
    for spec in RANDOM_GRAPHS:
        g = random_bipartite_gnp(**spec)
        for k in (1, 2):
            for name in ("iTraversal-ES", "iTraversal"):
                st_ = TraversalStats()
                seq = [solution_key(s) for s in VARIANTS[name](g, k, stats=st_)]
                out.append((seq, st_.as_dict()))
    return out


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("local_enum", LOCAL_ENUMS)
def test_memo_generation_size_changes_nothing(monkeypatch, local_enum, size):
    """The step's local-solution memo is cleared whenever it holds
    ``size`` entries: it never holds more, the sequence and every counter
    stay those of the default size, and a smaller memo only answers fewer
    repeats."""
    calls, peak, steps = [0], [0], []
    rs_check = itr._has_right_extension

    def counted(*args):
        calls[0] += 1
        # A memo grows only by the store that follows an RS check, so its
        # size at every check and after the run is every size it had.
        peak[0] = max([peak[0], *(len(s._memo) for s in steps)])
        return rs_check(*args)

    class RecordedStep(itr.SuccessorStep):
        def __post_init__(self):
            super().__post_init__()
            steps.append(self)

    monkeypatch.setattr(itr, "_has_right_extension", counted)
    monkeypatch.setattr(itr, "SuccessorStep", RecordedStep)
    use_local_enum(monkeypatch, local_enum)
    want = right_shrinking_runs()
    default_calls, calls[0] = calls[0], 0
    monkeypatch.setattr(itr, "_MEMO_SIZE", size)
    steps.clear()
    peak[0] = 0
    assert right_shrinking_runs() == want
    assert 0 < max([peak[0], *(len(s._memo) for s in steps)]) <= size
    # Without θ every local solution reaches the RS check.
    checked = sum(st_["local_solutions"] for _, st_ in want)
    assert default_calls < calls[0] <= checked


# θ pruning needs right-shrinking, so only the last two rows take a θ.
@pytest.mark.parametrize("variant,theta", [
    *((v, None) for v in VARIANTS),
    *((v, t) for v in ("iTraversal-ES", "iTraversal") for t in (2, (1, 3))),
], ids=str)
def test_expanded_solution_avoids_its_exclusion_set(monkeypatch, variant, theta):
    """Every H the step expands has no left vertex in its own exclusion
    set: a link is taken only if its MBP avoids the set the child
    inherits, and H0's set is empty. So a local solution of anchor v,
    whose left side lies in L ∪ {v}, can only meet the child's set
    through the extension."""
    calls, excluded = [0], [0]

    class CheckedStep(itr.SuccessorStep):
        def __call__(self, left, right, excl):
            assert left & excl == 0
            calls[0] += 1
            excluded[0] += excl != 0
            return super().__call__(left, right, excl)

    monkeypatch.setattr(itr, "SuccessorStep", CheckedStep)
    for seed in range(6):
        g = random_bipartite_gnp(n_left=8, n_right=8, p=0.5, seed=seed)
        for k in (1, 2):
            list(VARIANTS[variant](g, k, theta=theta))
    assert calls[0] > 0
    assert (excluded[0] > 0) == (variant == "iTraversal")


def test_invalid_configs_rejected():
    g = random_bipartite_gnp(n_left=3, n_right=3, p=0.5, seed=0)
    with pytest.raises(ValueError):
        list(traverse(g, 0))
    with pytest.raises(ValueError):
        list(traverse(g, 1, left_anchored=False, right_shrinking=True))
    with pytest.raises(ValueError):
        list(traverse(g, 1, left_anchored=False, exclusion=True,
                      right_shrinking=False))
    with pytest.raises(ValueError):
        list(traverse(g, 1, exclusion="bogus"))
    # Every toggle must be a bool: "no" is truthy and would turn RS on.
    for toggle in ("left_anchored", "right_shrinking", "exclusion"):
        for value in ("no", 1, None):
            with pytest.raises(ValueError, match=toggle):
                list(traverse(g, 1, **{toggle: value}))
    with pytest.raises(ValueError):
        list(traverse(g, 1, exclusion="candidate"))
    with pytest.raises(ValueError):
        list(traverse(g, 1, local_enum="l3r9"))
    with pytest.raises(ValueError):  # Fig 12's other variants: almost_sat only
        list(traverse(g, 1, local_enum="l1r1"))
    with pytest.raises(ValueError):
        list(
            traverse(g, 1, theta=2, right_shrinking=False, left_anchored=True,
                     exclusion=False)
        )


def test_edge_cases_tiny_graphs():
    for k in (1, 2):
        g = BipartiteGraph.from_edges([], n_left=2, n_right=2)
        assert keys(itraversal(g, k)) == all_maximal_kbiplexes(g, k)
        g2 = BipartiteGraph.from_biadjacency([[1]])
        assert keys(itraversal(g2, k)) == all_maximal_kbiplexes(g2, k)


def test_star_graph():
    g = BipartiteGraph.from_edges([(0, u) for u in range(5)], n_left=4, n_right=5)
    for k in (1, 2):
        assert keys(itraversal(g, k)) == all_maximal_kbiplexes(g, k)
        assert keys(btraversal(g, k)) == all_maximal_kbiplexes(g, k)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=2**20 - 1),
    k=st.integers(min_value=1, max_value=2),
)
def test_hypothesis_itraversal_complete(bits, k):
    rows = [[(bits >> (i * 5 + j)) & 1 for j in range(5)] for i in range(4)]
    g = BipartiteGraph.from_biadjacency(rows)
    want = all_maximal_kbiplexes(g, k)
    assert keys(itraversal(g, k)) == want
    assert keys(itraversal(g, k, exclusion=False)) == want


@settings(max_examples=25, deadline=None)
@given(bits=st.integers(min_value=0, max_value=2**20 - 1))
def test_hypothesis_btraversal_complete(bits):
    rows = [[(bits >> (i * 5 + j)) & 1 for j in range(5)] for i in range(4)]
    g = BipartiteGraph.from_biadjacency(rows)
    assert keys(btraversal(g, 1, local_enum="l2r2")) == all_maximal_kbiplexes(g, 1)
