"""The Spark session every entry point uses: the test fixture
(``conftest.py``) and the job and benchmark entry point
(``jobs/common.get_spark``) both build it here, so tests run the
configuration the jobs and the benchmark run.

* Automatic broadcast joins are off: Spark never broadcasts a match
  DataFrame on its own.  The operators mark the index or property-store
  side of each lookup as the broadcast build side instead.
* PySpark's DataFrame debugging (call-site capture) is off.  With it on,
  every ``functions.*`` and ``Column`` call made while a plan is built
  adds about six py4j round trips to record its Python call site.  The
  cost: analysis errors no longer name the Python line that built the
  failing column.

``SPARK_MASTER`` and ``SPARK_SHUFFLE_PARTITIONS`` override the master
and the shuffle partition count.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def spark_session(app: str) -> SparkSession:
    """The project's Spark session (``getOrCreate``)."""
    builder = SparkSession.builder.appName(app).master(
        os.environ.get("SPARK_MASTER", "local[*]")
    )
    for k, v in {
        "spark.sql.shuffle.partitions":
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.python.sql.dataFrameDebugging.enabled": "false",
        "spark.ui.enabled": "false",
        "spark.driver.host": "127.0.0.1",
    }.items():
        builder = builder.config(k, v)
    return builder.getOrCreate()
