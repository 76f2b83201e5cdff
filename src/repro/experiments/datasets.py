"""Synthetic stand-ins for the Table 1 konect.cc datasets.

konect.cc is unreachable offline, so each real dataset is replaced by a
power-law bipartite graph with the same |L| : |R| : |E| proportions. The
four small graphs keep their published sizes exactly; the six big ones
are scaled down by the per-dataset factor below — the published
experiments ran C++ on a 2.66 GHz machine with a 24 h budget, this
reproduction runs CPython with a seconds-level budget, and the scale
factors bridge roughly that gap while preserving each dataset's shape
(side ratio, density, degree skew).

All stand-ins are deterministic in their seed, so Table 1's numbers and
every downstream experiment are reproducible bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..bipartite.generators import powerlaw_bipartite
from ..bipartite.graph import BipartiteGraph


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    category: str
    paper_n_left: int
    paper_n_right: int
    paper_n_edges: int
    scale: int  # sizes divided by this factor
    alpha: float = 0.9  # degree skew of the stand-in
    seed: int = 42

    @property
    def n_left(self) -> int:
        return max(4, self.paper_n_left // self.scale)

    @property
    def n_right(self) -> int:
        return max(4, self.paper_n_right // self.scale)

    @property
    def n_edges(self) -> int:
        return max(8, self.paper_n_edges // self.scale)


SPECS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        # Divorce is a dense questionnaire matrix, not power-law: flat skew;
        # Cfat shares it.
        DatasetSpec("Divorce", "HumanSocial", 9, 50, 225, 1, alpha=0.2),
        DatasetSpec("Cfat", "Miscellaneous", 100, 100, 802, 1, alpha=0.2),
        DatasetSpec("Crime", "Social", 551, 829, 1476, 1),
        DatasetSpec("Opsahl", "Authorship", 2865, 4558, 16910, 1),
        DatasetSpec("Marvel", "Collaboration", 19428, 6486, 96662, 8),
        DatasetSpec("Writer", "Affiliation", 89356, 46213, 144340, 20),
        DatasetSpec("Actors", "Affiliation", 392400, 127823, 1470404, 40),
        DatasetSpec("IMDB", "Communication", 428440, 896308, 3782463, 80),
        DatasetSpec("DBLP", "Authorship", 1425813, 4000150, 8649016, 200),
        DatasetSpec("Google", "Hyperlink", 17091929, 3108141, 14693125, 400),
    ]
}

SMALL_DATASETS = ("Divorce", "Cfat", "Crime", "Opsahl")
"""The paper's small datasets — used for full-enumeration experiments
(delay, Fig 8; solution-graph ablation, Fig 11)."""


@lru_cache(maxsize=None)
def load(name: str) -> BipartiteGraph:
    """Build (and cache) the stand-in graph for a dataset name."""
    spec = SPECS[name]
    return powerlaw_bipartite(
        n_left=spec.n_left,
        n_right=spec.n_right,
        n_edges=spec.n_edges,
        alpha=spec.alpha,
        seed=spec.seed,
    )
