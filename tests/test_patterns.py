"""QueryGraph validation and the relational (oracle) compiler."""
import duckdb
import pytest

from repro.core.config import Atom
from repro.engine.patterns import QEdge, QueryGraph, QVertex, pattern_to_sql
from repro.graphs.example import example_graph


def _q(**kw):
    base = dict(
        name="q",
        vertices=(QVertex("a1"), QVertex("a2")),
        edges=(QEdge("e1", "a1", "a2"),),
        preds=(),
    )
    base.update(kw)
    return QueryGraph(**base)


def test_duplicate_vertex_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        _q(vertices=(QVertex("a1"), QVertex("a1")))


def test_overlapping_vertex_edge_names_rejected():
    with pytest.raises(ValueError, match="disjoint"):
        _q(edges=(QEdge("a1", "a1", "a2"),))


def test_unknown_endpoint_rejected():
    with pytest.raises(ValueError, match="unknown vertex"):
        _q(edges=(QEdge("e1", "a1", "zz"),))


def test_accessors():
    q = _q()
    assert q.edge("e1").src == "a1"


def test_atoms_are_labels_then_preds():
    pred = Atom(("a1", "vid"), "<", 5)
    q = _q(vertices=(QVertex("a1"), QVertex("a2", "Account")),
           edges=(QEdge("e1", "a1", "a2", "W"),), preds=(pred,))
    assert q.atoms == (
        Atom(("a2", "vlabel"), "=", "Account"),
        Atom(("e1", "elabel"), "=", "W"),
        pred,
    )
    assert _q().atoms == ()


def test_sql_shape():
    q = _q(
        vertices=(QVertex("a1", "Customer"), QVertex("a2")),
        edges=(QEdge("e1", "a1", "a2", "Owns"),),
        preds=(Atom(("a1", "name"), "=", "Alice"),),
    )
    sql = pattern_to_sql(q, project_edges=("e1",))
    assert "t_a1.vlabel = 'Customer'" in sql
    assert "t_e1.elabel = 'Owns'" in sql
    assert "t_e1.src = t_a1.vid" in sql
    assert "t_a1.name = 'Alice'" in sql
    assert "t_e1.eid AS e1" in sql


def test_sql_executes_on_duckdb(spark):
    g = example_graph(spark)
    q = _q(
        vertices=(QVertex("a1", "Customer"), QVertex("a2", "Account")),
        edges=(QEdge("e1", "a1", "a2", "Owns"),),
    )
    con = duckdb.connect()
    con.register("vertices", g.vertices.toPandas())
    con.register("edges", g.edges.toPandas())
    rows = con.execute(pattern_to_sql(q)).fetchall()
    con.close()
    assert sorted(rows) == [(7, 1), (8, 2)]


def test_unknown_var_in_pred_raises():
    q = _q(preds=(Atom(("zz", "x"), "=", 1),))
    with pytest.raises(KeyError, match="unknown variable"):
        pattern_to_sql(q)


def test_projection_control():
    q = _q()
    sql = pattern_to_sql(q, project_vertices=("a2",))
    assert sql.startswith("SELECT t_a2.vid AS a2 FROM")
