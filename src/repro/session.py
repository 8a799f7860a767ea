"""The Spark session every entry point uses: the test fixture
(``conftest.py``) and the job and benchmark entry point
(``jobs/common.get_spark``) both build it here, so tests run the
configuration the jobs and the benchmark run.

* Automatic broadcast joins are off: Spark never broadcasts a match
  DataFrame on its own.  The operators mark the index or property-store
  side of each lookup as the broadcast build side instead.
* Adaptive query execution is off: every operator join is a hinted
  broadcast, so AQE has no shuffle to coalesce or split, yet it would
  still run each broadcast as its own query stage and re-plan between
  stages.
* The shuffle partition count is the session's default parallelism
  (the cores Spark sees under ``local[*]``).  Only the index builds
  shuffle, and their cached ``lists`` keep that many partitions, so
  each broadcast of a probe table runs one task per core, not more.
* A pandas frame handed to ``createDataFrame`` becomes an RDD-backed
  table (``LogicalRDD``), never a ``LocalRelation``
  (``spark.sql.execution.arrow.localRelationThreshold`` is 0).  Below
  that threshold Spark keeps the frame's rows inside the logical plan,
  so every index and plan built over a graph table would carry the
  graph, and each new Dataset's analysis would grow with it.
* PySpark's DataFrame debugging (call-site capture) is off.  With it on,
  every ``functions.*`` and ``Column`` call made while a plan is built
  adds about six py4j round trips to record its Python call site.  The
  cost: analysis errors no longer name the Python line that built the
  failing column.

* The driver's memory is set here too (``driver_memory``), so the
  tests, the jobs and the benchmark run with the same JVM heap.  It
  takes effect when this call starts the JVM, not on a session that is
  already running.

``SPARK_MASTER``, ``SPARK_SHUFFLE_PARTITIONS`` and ``SPARK_DRIVER_MEM``
override the master, the shuffle partition count and the driver memory.
"""
from __future__ import annotations

import os
import re

from pyspark.sql import SparkSession


def driver_memory(meminfo: str | None = None) -> str:
    """``SPARK_DRIVER_MEM`` when set; otherwise half of ``MemTotal``
    (from ``/proc/meminfo``, or ``meminfo`` when given) in whole GiB,
    clamped to 2g–8g.  Without a readable ``MemTotal`` it is 2g."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    if meminfo is None:
        try:
            with open("/proc/meminfo") as f:
                meminfo = f.read()
        except OSError:
            meminfo = ""
    total = re.search(r"^MemTotal:\s*(\d+)", meminfo, re.M)  # in kB
    half_gib = int(total.group(1)) // (1 << 21) if total else 0
    return f"{min(8, max(2, half_gib))}g"


def shuffle_partitions(default_parallelism: int) -> str:
    """``SPARK_SHUFFLE_PARTITIONS`` when set; otherwise the session's
    default parallelism."""
    return os.environ.get("SPARK_SHUFFLE_PARTITIONS") or str(
        default_parallelism
    )


def spark_session(app: str) -> SparkSession:
    """The project's Spark session (``getOrCreate``)."""
    builder = SparkSession.builder.appName(app).master(
        os.environ.get("SPARK_MASTER", "local[*]")
    )
    for k, v in {
        "spark.driver.memory": driver_memory(),
        "spark.sql.adaptive.enabled": "false",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.execution.arrow.localRelationThreshold": "0",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.python.sql.dataFrameDebugging.enabled": "false",
        "spark.ui.enabled": "false",
        "spark.driver.host": "127.0.0.1",
    }.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    # the default parallelism is known only once the context is up
    spark.conf.set("spark.sql.shuffle.partitions",
                   shuffle_partitions(spark.sparkContext.defaultParallelism))
    return spark
