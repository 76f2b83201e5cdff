"""Job: Table 1 — dataset statistics (paper sizes vs synthetic stand-ins).

Usage: python jobs/table1_datasets.py
"""
import argparse

from _common import emit

from repro.experiments.harness import format_table
from repro.experiments.tables import table1_datasets


def main(argv=None):
    argparse.ArgumentParser().parse_args(argv)
    rows = table1_datasets()
    emit("table1", format_table(rows, "Table 1: dataset statistics"))
    return rows


if __name__ == "__main__":
    main()
