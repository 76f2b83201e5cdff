"""Golden sequences: the exact emitted order and every traversal counter.

The brute-force oracle checks result *sets*; these digests pin the
*sequence* a traversal emits and its full `TraversalStats`, so an
optimisation of the successor step cannot silently reorder the output or
change what counts as a link (Fig 11 reports link counts). Each digest is
a sha256 over the `solution_key` of every emitted MBP, in order, followed
by the stats as JSON. The expected values were recorded from the
frozenset implementation that predates the bitmask kernel.
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


def digest(run) -> str:
    """sha256 of the emitted key sequence plus the stats of ``run(st)``."""
    st = TraversalStats()
    h = hashlib.sha256()
    for sol in run(st):
        h.update(repr(solution_key(sol)).encode())
    h.update(json.dumps(st.as_dict(), sort_keys=True).encode())
    return h.hexdigest()


def test_divorce_full_enumeration():
    g = datasets.load("Divorce")
    assert digest(lambda st: itraversal(g, 1, stats=st)) == (
        "50b50e9f9587434db7e2bbe354b324450e93e0fb69486bcd1ca850c0b998fdd4"
    )


def sequence_digest(sols) -> str:
    """sha256 of the emitted key sequence alone."""
    h = hashlib.sha256()
    for sol in sols:
        h.update(repr(solution_key(sol)).encode())
    return h.hexdigest()


def test_cfat_theta_on_core():
    """The sequence and the counters apart, so that a change to what the
    θ prunings skip shows which counters it moves. The sequence digest was
    recorded while every anchor still ran EnumAlmostSat; the per-anchor
    θ-potential bound now skips the anchors whose local solutions all fail
    the θ check, which moves only ``almost_sat_calls``, ``local_solutions``
    and ``pruned_theta_potential``."""
    g = datasets.load("Cfat")
    theta, k = 4, 1
    sub, _, _ = g.induced(*theta_k_core(g, theta, k))
    st = TraversalStats()
    assert sequence_digest(itraversal(sub, k, theta=theta, stats=st)) == (
        "c08817ef51887517c652a65619619e3a62dcf1f48619c98d063586481555ca88"
    )
    assert st.as_dict() == {
        "links": 3421, "expansions": 1399, "almost_sat_calls": 1097,
        "local_solutions": 16141, "pruned_right_shrinking": 510,
        "pruned_exclusion": 68, "pruned_theta_potential": 12142,
        "solutions": 25,
    }


# One digest per variant: the four refined EnumAlmostSat variants yield
# the same local solutions in the same order, so they agree exactly.
GOLDEN_GRID = {
    "bTraversal": "4567300c29af4fd59c9becd31774b46fc716208864e41c421f4f3c6272e26390",
    "iTraversal-ES-RS": "b8e1afb306a1bf77bf28468ba08696d579780047b38395ee3f95f903f63fcf9c",
    "iTraversal-ES": "4aae091977ff83751f4b4f7337c238bf7ce20bb30aaf4c288b0dca8a4d4a900f",
    "iTraversal": "e577196dde08f00b2bd821c3315b761e8d160f8653f4e83bb7f92897348f9d41",
}


@pytest.mark.parametrize("local_enum", LOCAL_ENUMS)
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_variant_grid(monkeypatch, variant, local_enum):
    use_local_enum(monkeypatch, local_enum)
    h = hashlib.sha256()
    for spec in RANDOM_GRAPHS:
        g = random_bipartite_gnp(**spec)
        for k in (1, 2):
            h.update(digest(lambda st: VARIANTS[variant](g, k, stats=st)).encode())
    assert h.hexdigest() == GOLDEN_GRID[variant]


def test_btraversal_inflation_tiny():
    g = random_bipartite_gnp(n_left=5, n_right=5, p=0.5, seed=3)
    assert digest(lambda st: btraversal(g, 1, stats=st)) == (
        "8c79bb8440bcc51906b94ca9598c33929746ba32779bd1e36d975433c1598976"
    )
