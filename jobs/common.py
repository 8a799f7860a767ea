"""Shared plumbing for the spark-submit job entrypoints.

Each job reproduces one evaluation table: it runs the corresponding
harness function, prints a paper-style table, and writes the raw cells
to ``results/<table>.json`` for EXPERIMENTS.md.
"""
from __future__ import annotations

import json
import pathlib
import sys

from pyspark.sql import SparkSession

from repro.session import spark_session

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def get_spark(app: str) -> SparkSession:
    """The project's session (``repro.session``), the one the test
    fixture builds too."""
    return spark_session(app)


def save_cells(name: str, cells) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps([c.to_dict() for c in cells], indent=2))
    print(f"[saved] {path}", file=sys.stderr)


def print_table(cells, *, rows: str = "config", cols: str = "query",
                value=lambda c: f"{c.seconds:.2f}") -> None:
    """Print cells grouped by dataset as dataset × (rows × cols) grids."""
    by_ds: dict[str, list] = {}
    for c in cells:
        by_ds.setdefault(c.dataset, []).append(c)
    for ds, group in by_ds.items():
        col_keys = list(dict.fromkeys(getattr(c, cols) for c in group))
        row_keys = list(dict.fromkeys(getattr(c, rows) for c in group))
        width = max(8, *(len(k) + 2 for k in col_keys))
        print(f"\n== {ds} ==")
        print(" " * 12 + "".join(k.rjust(width) for k in col_keys)
              + "  Mm(MB)".rjust(10))
        grid = {(getattr(c, rows), getattr(c, cols)): c for c in group}
        for rk in row_keys:
            cells_r = [grid.get((rk, ck)) for ck in col_keys]
            mm = next((c.mm_mb for c in cells_r if c is not None), 0.0)
            line = rk.ljust(12) + "".join(
                (value(c) if c else "—").rjust(width) for c in cells_r
            )
            print(line + f"{mm:10.2f}")
