"""Plumbing for the table job (``jobs/run.py``) and the benchmark
(``perfbench/run.py``): the project's Spark session and the results
directory the job writes ``<table>.json`` cells to.
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
