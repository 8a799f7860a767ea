"""Reproduce one evaluation table: run its harness function, print every
cell and write them to ``results/<table>.json`` for EXPERIMENTS.md.

    python jobs/run.py <table> [datasets]

``<table>`` is one of ``table2``–``table7``, ``indirection`` or
``maintenance``; ``datasets`` is a comma-separated subset (``lj,wt``)
for the tables that run over several.  ``REPRO_SCALE=tiny`` gives a
quick smoke run.
"""
from __future__ import annotations

import argparse
import inspect

import common

from repro.workloads import harness as H

TABLES = {
    "table2": H.run_table2,
    "table3": H.run_table3,
    "table4": H.run_table4,
    "table5": H.run_table5,
    "table6": H.run_table6,
    "table7": H.run_table7,
    "indirection": H.run_indirection,
    "maintenance": H.run_maintenance,
}


def print_cells(cells) -> None:
    """One line per cell: its keys, seconds, rows, Mm and extras."""
    print(f"{'dataset':<12}{'config':<12}{'query':<12}{'secs':>10}"
          f"{'rows':>12}{'Mm(MB)':>10}  extra")
    for c in cells:
        extra = " ".join(f"{k}={v}" for k, v in c.extra.items())
        print(f"{c.dataset:<12}{c.config:<12}{c.query:<12}{c.seconds:>10.3f}"
              f"{c.rows:>12}{c.mm_mb:>10.2f}  {extra}")


def run(spark, table: str, datasets: str | None = None) -> list:
    """Run ``table``'s harness function, print its cells and save them."""
    kw = {"datasets": tuple(datasets.split(","))} if datasets else {}
    cells = TABLES[table](spark, **kw)
    print_cells(cells)
    common.save_cells(table, cells)
    return cells


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("table", choices=TABLES)
    ap.add_argument("datasets", nargs="?",
                    help="comma-separated datasets (tables 3, 4, 5, 7 and "
                    "maintenance)")
    args = ap.parse_args()
    if args.datasets and "datasets" not in inspect.signature(
            TABLES[args.table]).parameters:
        ap.error(f"{args.table} takes no datasets")
    spark = common.get_spark(args.table)
    try:
        run(spark, args.table, args.datasets)
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
