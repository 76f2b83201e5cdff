"""Job: Table 4 (paper Fig 9) — scalability on synthetic ER graphs.

Usage: python jobs/table4_scalability.py [--budget 120]
"""
import argparse

from _common import emit

from repro.experiments.harness import format_table
from repro.experiments.tables import table4_scalability


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=float, default=120.0)
    ap.add_argument("--n-vertices", type=int, nargs="+",
                    default=[1000, 2000, 5000, 10000, 20000])
    ap.add_argument("--densities", type=float, nargs="+",
                    default=[2, 4, 6, 8, 10])
    args = ap.parse_args(argv)
    rows = table4_scalability(
        n_vertices=tuple(args.n_vertices),
        densities=tuple(args.densities),
        budget_s=args.budget,
    )
    emit("table4", format_table(
        rows, "Table 4 (Fig 9): ER-graph scalability, first 1000 MBPs"))
    return rows


if __name__ == "__main__":
    main()
