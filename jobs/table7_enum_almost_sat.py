"""Job: Table 7 (paper Fig 12) — EnumAlmostSat variant comparison.

Mean per-call time of L{1,2}.0+R{1,2}.0 and the Inflation baseline over
random almost-satisfying graphs built from real MBPs.

Usage: python jobs/table7_enum_almost_sat.py [--dataset Writer]
"""
import argparse

from _common import emit

from repro.experiments.harness import format_table
from repro.experiments.tables import table7_enum_almost_sat


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="Writer")
    ap.add_argument("--k", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--budget", type=float, default=300.0)
    args = ap.parse_args(argv)
    rows = table7_enum_almost_sat(
        args.dataset, ks=tuple(args.k), n_instances=args.instances,
        budget_s=args.budget,
    )
    emit("table7", format_table(
        rows, "Table 7 (Fig 12): EnumAlmostSat variants, mean ms/call"))
    return rows


if __name__ == "__main__":
    main()
