"""Golden sequences: the exact emitted order and every traversal counter.

The brute-force oracle checks result *sets*; these digests pin the
*sequence* a traversal emits and its full `TraversalStats`, so an
optimisation of the successor step cannot silently reorder the output or
change what counts as a link (Fig 11 reports link counts). Each digest is
a sha256 over the `solution_key` of every emitted MBP, in order, followed
by the stats as JSON. The expected values were recorded from the
frozenset implementation that predates the bitmask kernel. Where a
pruning has since moved counters on purpose, the sequence digest keeps
its recorded value and the new counters are pinned apart from it.
"""
import hashlib
import json
from functools import partial

import pytest

import repro.core.itraversal as itr
from repro.bipartite.core_decomp import theta_k_core
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import solution_key
from repro.core.almost_sat import enum_almost_sat
from repro.core.itraversal import VARIANTS, TraversalStats, btraversal, itraversal
from repro.experiments import datasets

# Three shapes: square, wide with right ids past one 64-bit limb, and
# tall with two isolated left vertices (2 and 6).
RANDOM_GRAPHS = [
    dict(n_left=7, n_right=7, p=0.45, seed=0),
    dict(n_left=3, n_right=66, p=0.95, seed=1),
    dict(n_left=9, n_right=6, p=0.4, seed=2),
]
# Fig 12's refined EnumAlmostSat variants. The engine runs 'l2r2';
# `use_local_enum` puts any of them behind its EnumAlmostSat global.
LOCAL_ENUMS = ["l1r1", "l1r2", "l2r1", "l2r2"]


def use_local_enum(monkeypatch, local_enum):
    """Make the engine's local enumeration the refined variant
    ``local_enum`` (L1.0/L2.0 × R1.0/R2.0), through the module global the
    successor step calls."""
    monkeypatch.setattr(itr, "enum_almost_sat", partial(
        enum_almost_sat, l2=local_enum[:2] == "l2", r2=local_enum[2:] == "r2"))


def sequence_hash(sols):
    """sha256 over the emitted key sequence, open for more updates."""
    h = hashlib.sha256()
    for sol in sols:
        h.update(repr(solution_key(sol)).encode())
    return h


def digest(run) -> str:
    """sha256 of the emitted key sequence plus the stats of ``run(st)``."""
    st = TraversalStats()
    h = sequence_hash(run(st))
    h.update(json.dumps(st.as_dict(), sort_keys=True).encode())
    return h.hexdigest()


def sequence_digest(sols) -> str:
    """sha256 of the emitted key sequence alone."""
    return sequence_hash(sols).hexdigest()


def test_divorce_full_enumeration():
    """The sequence and the counters apart. The sequence digest was
    recorded while every anchor still ran EnumAlmostSat; the anchors whose
    local solutions the RS check would all prune (k = 1) are now skipped
    before it runs, which moves only ``almost_sat_calls``,
    ``local_solutions`` and ``pruned_right_shrinking``."""
    g = datasets.load("Divorce")
    st = TraversalStats()
    assert sequence_digest(itraversal(g, 1, stats=st)) == (
        "7f8500ffaf36199d99e275818a93148c1676bc82ced5871c7bd5b848f271961c"
    )
    assert st.as_dict() == {
        "links": 16088, "expansions": 14512, "almost_sat_calls": 3823,
        "local_solutions": 18343, "pruned_right_shrinking": 815,
        "pruned_exclusion": 1440, "pruned_theta_potential": 0,
        "solutions": 14512,
    }


def test_cfat_theta_on_core():
    """The sequence and the counters apart, so that a change to what the
    θ prunings skip shows which counters it moves. The sequence digest was
    recorded while every anchor still ran EnumAlmostSat; the per-anchor
    θ-potential bound now skips the anchors whose local solutions all fail
    the θ check, and the anchors whose local solutions the RS check would
    all prune (k = 1), which moves only ``almost_sat_calls``,
    ``local_solutions``, ``pruned_right_shrinking`` and
    ``pruned_theta_potential``."""
    g = datasets.load("Cfat")
    theta, k = 4, 1
    sub, _, _ = g.induced(*theta_k_core(g, theta, k))
    st = TraversalStats()
    assert sequence_digest(itraversal(sub, k, theta=theta, stats=st)) == (
        "c08817ef51887517c652a65619619e3a62dcf1f48619c98d063586481555ca88"
    )
    assert st.as_dict() == {
        "links": 3421, "expansions": 1399, "almost_sat_calls": 456,
        "local_solutions": 10060, "pruned_right_shrinking": 0,
        "pruned_exclusion": 68, "pruned_theta_potential": 6571,
        "solutions": 25,
    }


# One digest per variant: the four refined EnumAlmostSat variants yield
# the same local solutions in the same order, so they agree exactly. The
# rows without right-shrinking hash each run's sequence and stats together.
GOLDEN_GRID = {
    "bTraversal": "4567300c29af4fd59c9becd31774b46fc716208864e41c421f4f3c6272e26390",
    "iTraversal-ES-RS": "b8e1afb306a1bf77bf28468ba08696d579780047b38395ee3f95f903f63fcf9c",
}
# The rows with right-shrinking pin the sequences alone, recorded while
# every anchor still ran EnumAlmostSat, and each run's counters apart, in
# `TraversalStats` field order: skipping the anchors whose local solutions
# the RS check would all prune (k = 1) moved ``almost_sat_calls``,
# ``local_solutions`` and ``pruned_right_shrinking`` of the k = 1 runs.
SEQUENCE_GRID = {
    "iTraversal-ES": "d4d6b94dc81f2e86f38f8c64ecb6cf7e5f7508bfbe947f846fe13a8ca4324306",
    "iTraversal": "fe1d508a74cc0be35e9b8345246ebee323481696a1930de1225601f7f10f80f9",
}
STATS_GRID = {
    "iTraversal-ES": [
        (397, 69, 189, 454, 57, 0, 0, 69), (1607, 212, 827, 3955, 2348, 0, 0, 212),
        (172, 78, 56, 172, 0, 0, 0, 78), (111, 67, 23, 156, 45, 0, 0, 67),
        (669, 61, 272, 719, 50, 0, 0, 61), (4595, 308, 1726, 7657, 3062, 0, 0, 308),
    ],
    "iTraversal": [
        (150, 69, 113, 266, 33, 83, 0, 69), (708, 212, 498, 2096, 1238, 150, 0, 212),
        (77, 78, 18, 77, 0, 0, 0, 78), (66, 67, 8, 96, 30, 0, 0, 67),
        (173, 61, 162, 431, 27, 231, 0, 61), (1490, 308, 856, 3528, 1469, 569, 0, 308),
    ],
}


@pytest.mark.parametrize("local_enum", LOCAL_ENUMS)
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_variant_grid(monkeypatch, variant, local_enum):
    use_local_enum(monkeypatch, local_enum)
    combined, sequence, stats = hashlib.sha256(), hashlib.sha256(), []
    for spec in RANDOM_GRAPHS:
        g = random_bipartite_gnp(**spec)
        for k in (1, 2):
            st = TraversalStats()
            h = sequence_hash(VARIANTS[variant](g, k, stats=st))
            sequence.update(h.hexdigest().encode())
            h.update(json.dumps(st.as_dict(), sort_keys=True).encode())
            combined.update(h.hexdigest().encode())
            stats.append(tuple(st.as_dict().values()))
    if variant in GOLDEN_GRID:
        assert combined.hexdigest() == GOLDEN_GRID[variant]
    else:
        assert sequence.hexdigest() == SEQUENCE_GRID[variant]
        assert stats == STATS_GRID[variant]


def test_btraversal_inflation_tiny():
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.5, seed=3)
    assert digest(lambda st: btraversal(g, 1, stats=st)) == (
        "8c79bb8440bcc51906b94ca9598c33929746ba32779bd1e36d975433c1598976"
    )
