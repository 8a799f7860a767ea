"""Atom and IndexConfig validation and compilation."""
import pytest
from pyspark.sql import functions as F

from repro.core.config import (
    EDGE,
    NBR,
    Atom,
    IndexConfig,
    field_role,
    graphflow_default,
    propref_col,
    role_col,
)


def test_propref_cols():
    assert propref_col((EDGE, "elabel")) == "elabel"
    assert propref_col((EDGE, "amt")) == "amt"
    assert propref_col((NBR, "vid")) == "nbr"
    assert propref_col((NBR, "city")) == "nbr_city"
    with pytest.raises(ValueError):
        propref_col(("nope", "x"))


def test_role_cols():
    assert role_col("e_adj", "vid") == "eid"
    assert role_col("e_adj", "label") == "elabel"
    assert role_col("v_nbr", "ID") == "nbr"
    assert role_col("v_nbr", "city") == "nbr_city"
    assert role_col("v_shared", "vid") == "pk"
    assert role_col("v_shared", "city") == "self_city"
    assert role_col("e_b", "vid") == "bid"
    assert role_col("e_b", "amt") == "b_amt"
    with pytest.raises(KeyError):
        role_col("v_s", "city")


@pytest.mark.parametrize("role, prop", [
    ("e_adj", "vid"), ("e_adj", "amt"), ("v_nbr", "vid"), ("v_nbr", "city"),
])
def test_field_role_inverts_role_col(role, prop):
    assert field_role(role_col(role, prop)) == (role, prop)


def test_graphflow_default():
    cfg = graphflow_default("fw")
    assert cfg.partition_cols == ("elabel",)
    assert cfg.sort_cols == ("nbr",)


def test_config_validation():
    with pytest.raises(ValueError, match="direction"):
        IndexConfig("sideways")
    with pytest.raises(ValueError, match="bad PropRef"):
        IndexConfig("fw", partition_by=(("vertex", "x"),))


def test_atom_validation():
    with pytest.raises(ValueError, match="unsupported op"):
        Atom(("a", "x"), "~", 3)


def test_atom_rhs_is_ref():
    assert Atom(("a", "x"), "=", ("b", "y")).rhs_is_ref
    assert not Atom(("a", "x"), "=", "V0").rhs_is_ref
    assert not Atom(("a", "x"), "=", 3).rhs_is_ref


def test_atom_entities():
    assert Atom(("a", "x"), "<", ("b", "y")).entities() == {"a", "b"}
    assert Atom(("a", "x"), "<", 5).entities() == {"a"}


def test_atom_to_sql_literal_quoting():
    a = Atom(("a", "city"), "=", "O'Brien")
    sql = a.to_sql(lambda r: f"t.{r[1]}")
    assert sql == "t.city = 'O''Brien'"


def test_atom_to_sql_delta():
    a = Atom(("e1", "amt"), "<", ("e2", "amt"), delta=10.0)
    sql = a.to_sql(lambda r: f"{r[0]}.{r[1]}")
    assert sql == "e1.amt < (e2.amt + 10.0)"


def test_atom_to_sql_neq():
    a = Atom(("a", "x"), "!=", 3)
    assert a.to_sql(lambda r: "x") == "x <> 3"


@pytest.mark.parametrize("op,expect", [
    ("=", [2]), ("!=", [1, 3]), ("<", [1]), ("<=", [1, 2]),
    (">", [3]), (">=", [2, 3]),
])
def test_atom_to_spark_ops(spark, op, expect):
    df = spark.createDataFrame([(1,), (2,), (3,)], ["x"])
    a = Atom(("t", "x"), op, 2)
    got = sorted(
        r["x"] for r in df.where(a.to_spark(lambda r: F.col("x"))).collect()
    )
    assert got == expect


def test_atom_str():
    a = Atom(("e1", "amt"), "<", ("e2", "amt"), delta=5.0)
    assert str(a) == "e1.amt < e2.amt + 5.0"
