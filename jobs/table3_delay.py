"""Job: Table 3 (paper Fig 8) — maximum delay over a full enumeration.

Usage: python jobs/table3_delay.py [--budget 120] [--k 1 2 3]
"""
import argparse

from _common import emit

from repro.experiments.harness import format_table
from repro.experiments.tables import table3_delay


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=float, default=120.0)
    ap.add_argument("--k", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--datasets", nargs="+", default=["Divorce", "Cfat"])
    args = ap.parse_args(argv)
    rows = table3_delay(tuple(args.datasets), ks=tuple(args.k),
                        budget_s=args.budget)
    emit("table3", format_table(
        rows, f"Table 3 (Fig 8): max delay, full enumeration "
              f"(budget {args.budget}s)"))
    return rows


if __name__ == "__main__":
    main()
