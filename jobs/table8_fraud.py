"""Job: Table 8 (paper Fig 13) — fraud-detection case study.

Precision/recall/F1 of biclique, k-biplex, (alpha,beta)-core and
delta-QB under a random camouflage attack.

Usage: python jobs/table8_fraud.py [--budget 60] [--seed 0]
"""
import argparse

from _common import emit

from repro.experiments.harness import format_table
from repro.experiments.tables import table8_fraud


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=float, default=60.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rows = table8_fraud(seed=args.seed, budget_s=args.budget)
    emit("table8", format_table(rows, "Table 8 (Fig 13): fraud detection"))
    return rows


if __name__ == "__main__":
    main()
