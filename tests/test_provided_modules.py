"""The provided oracle keeps working on the Figure-1 graph — the
oracle is the correctness backbone of the whole reproduction."""
import pytest
from pyspark.sql import functions as F

from repro.graphs.example import example_graph
from repro.oracle import assert_equivalent

_SUM_BY_LABEL = (
    "SELECT elabel, SUM(amt) AS amt FROM edges GROUP BY elabel"
)


@pytest.fixture(scope="module")
def edges(spark):
    return example_graph(spark).edges


def test_oracle_accepts_matching_aggregate(edges):
    got = edges.groupBy("elabel").agg(F.sum("amt").alias("amt"))
    assert_equivalent(got, _SUM_BY_LABEL, edges=edges)


def test_oracle_rejects_wrong_result(edges):
    wrong = edges.groupBy("elabel").agg((F.sum("amt") + 1).alias("amt"))
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, _SUM_BY_LABEL, edges=edges)


def test_oracle_rejects_column_mismatch(edges):
    got = edges.groupBy("elabel").count()
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(
            got, "SELECT elabel, 1 AS nope FROM edges GROUP BY 1", edges=edges
        )
