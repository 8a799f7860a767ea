import sys

import pytest
from pyspark.sql import SparkSession

from repro.session import spark_session


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session: the one
    session definition that the jobs and the benchmark use too
    (``repro.session``), driver memory included."""
    s = spark_session("repro")
    # One line in the test output that records the JVM the tests ran on.
    print(
        f"[conftest] spark.driver.memory="
        f"{s.sparkContext.getConf().get('spark.driver.memory')} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
