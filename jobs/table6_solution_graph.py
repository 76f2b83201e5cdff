"""Job: Table 6 (paper Fig 11) — solution-graph ablation.

Links + runtime for bTraversal / iTraversal-ES-RS / iTraversal-ES /
iTraversal, all with the L2.0+R2.0 EnumAlmostSat.

Usage: python jobs/table6_solution_graph.py [--budget 120]
"""
import argparse

from _common import emit

from repro.experiments.harness import format_table
from repro.experiments.tables import table6_solution_graph


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=float, default=120.0)
    ap.add_argument("--datasets", nargs="+", default=["Divorce", "Cfat"])
    ap.add_argument("--k", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    rows = table6_solution_graph(tuple(args.datasets), ks=tuple(args.k),
                                 budget_s=args.budget)
    emit("table6", format_table(
        rows, "Table 6 (Fig 11): solution-graph links and runtime"))
    return rows


if __name__ == "__main__":
    main()
