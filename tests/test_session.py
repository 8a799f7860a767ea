"""The one session definition: the tests, the jobs and the benchmark
all build their session with ``repro.session.spark_session``, so they
share its driver memory, its shuffle partition count and its confs."""
import ast
import os
import pathlib

import pytest

from repro.session import driver_memory, shuffle_partitions

ROOT = pathlib.Path(__file__).resolve().parent.parent
SESSION = ROOT / "src" / "repro" / "session.py"


def _meminfo(gib: int) -> str:
    return f"MemTotal:       {gib << 20} kB\nMemFree:        1024 kB\n"


def test_env_overrides_meminfo(monkeypatch):
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert driver_memory(_meminfo(64)) == "3g"


@pytest.mark.parametrize(
    "gib, want",
    [(1, "2g"), (4, "2g"), (6, "3g"), (12, "6g"), (16, "8g"), (64, "8g")],
)
def test_half_of_memtotal_clamped(monkeypatch, gib, want):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    assert driver_memory(_meminfo(gib)) == want


def test_no_memtotal_is_lower_clamp(monkeypatch):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    assert driver_memory("") == "2g"



def test_fixture_session_confs(spark):
    """AQE is off, the shuffle partitions are the session's cores
    unless ``SPARK_SHUFFLE_PARTITIONS`` says otherwise, and a pandas
    frame never becomes a ``LocalRelation``."""
    assert spark.conf.get("spark.sql.adaptive.enabled") == "false"
    want = os.environ.get("SPARK_SHUFFLE_PARTITIONS") or str(
        spark.sparkContext.defaultParallelism
    )
    assert spark.conf.get("spark.sql.shuffle.partitions") == want
    assert spark.conf.get(
        "spark.sql.execution.arrow.localRelationThreshold") == "0"


def test_shuffle_partitions_env_overrides_parallelism(monkeypatch):
    monkeypatch.setenv("SPARK_SHUFFLE_PARTITIONS", "7")
    assert shuffle_partitions(4) == "7"
    monkeypatch.delenv("SPARK_SHUFFLE_PARTITIONS")
    assert shuffle_partitions(4) == "4"


def spark_conf_calls(source: str) -> list[int]:
    """Lines of ``source`` that set a Spark conf: a ``.config(`` call
    (on a session builder) or a ``<x>.conf.set(`` call."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(f := node.func, ast.Attribute)
        and (f.attr == "config"
             or (f.attr == "set" and isinstance(f.value, ast.Attribute)
                 and f.value.attr == "conf"))
    )


def test_conf_scan_finds_builder_and_runtime_confs():
    src = (
        "b = SparkSession.builder.config('a', 1)\n"
        "spark.conf.set('b', 2)\n"
        "x = spark.conf.get('b')\n"
        "cfg = idx.config\n"
        "s.add(1)\n"
    )
    assert spark_conf_calls(src) == [1, 2]


def test_only_the_session_module_sets_spark_confs():
    """Tests, jobs and the benchmark run one configuration: no module
    under ``src/`` or ``jobs/`` but ``repro/session.py`` sets a conf."""
    offenders = [
        (str(f.relative_to(ROOT)), line)
        for d in ("src", "jobs")
        for f in sorted((ROOT / d).rglob("*.py"))
        if f != SESSION
        for line in spark_conf_calls(f.read_text())
    ]
    assert not offenders, offenders
    assert spark_conf_calls(SESSION.read_text())


#: the storage model's modules, which run on NumPy and the standard
#: library; ``memory.py``, the byte model over cached lists, is the one
#: that reads Spark
STORAGE = ROOT / "src" / "repro" / "storage"
DATAFRAME_LIBS = ("pyspark", "pandas")


def dataframe_imports(source: str) -> list[int]:
    """Lines of ``source`` that import ``pyspark`` or ``pandas``, or a
    module of either."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(n.split(".")[0] in DATAFRAME_LIBS for n in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_dataframe_import_scan_finds_pyspark_and_pandas():
    src = (
        "import numpy as np\n"
        "import pandas as pd\n"
        "from pyspark.sql import functions as F\n"
        "from repro.core.config import IndexConfig\n"
        "import os, pyspark\n"
        "from . import sparkless\n"
    )
    assert dataframe_imports(src) == [2, 3, 5]


def test_storage_model_is_numpy_only():
    """No module under ``repro/storage/`` but ``memory.py`` imports
    Spark or pandas."""
    offenders = [
        (str(f.relative_to(ROOT)), line)
        for f in sorted(STORAGE.rglob("*.py"))
        if f.name != "memory.py"
        for line in dataframe_imports(f.read_text())
    ]
    assert not offenders, offenders
    assert dataframe_imports((STORAGE / "memory.py").read_text())
