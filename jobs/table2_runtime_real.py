"""Job: Table 2 (paper Fig 7) — runtime on real-dataset stand-ins.

Time to return the first N maximal k-biplexes for iTraversal,
bTraversal, iMB and FaPlexen; INF = per-cell budget exceeded, OUT =
inflation memory budget exceeded.

Usage: python jobs/table2_runtime_real.py [--budget 60] [--n 1000]
       [--k 1 2 3] [--datasets Divorce Crime ...]
"""
import argparse

from _common import emit

from repro.experiments.harness import format_table
from repro.experiments.tables import table2_runtime_real


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=float, default=60.0)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--k", type=int, nargs="+", default=[1])
    ap.add_argument(
        "--datasets", nargs="+",
        default=["Divorce", "Cfat", "Crime", "Opsahl", "Marvel", "Writer",
                 "Actors", "IMDB", "DBLP", "Google"],
    )
    args = ap.parse_args(argv)
    rows = table2_runtime_real(
        tuple(args.datasets), ks=tuple(args.k),
        n_solutions=args.n, budget_s=args.budget,
    )
    emit("table2", format_table(
        rows, f"Table 2 (Fig 7): time to first {args.n} MBPs "
              f"(budget {args.budget}s)"))
    return rows


if __name__ == "__main__":
    main()
