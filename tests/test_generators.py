"""Dataset-analog generators: sizes, degree shape, determinism, labels,
and the one hand-off of each graph to Spark."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.config import graphflow_default
from repro.core.default_index import build_default_index
from repro.graphs.financial import decorate_financial, decorate_time
from repro.graphs.generators import DATASETS, dataset, powerlaw_digraph, with_labels


@pytest.fixture(scope="module")
def tiny_lj(spark):
    return dataset(spark, "lj", scale="tiny").cache()


@pytest.mark.parametrize("name", list(DATASETS))
def test_tiny_scale_matches_spec(spark, name):
    spec = DATASETS[name]
    g = dataset(spark, name, scale="tiny")
    assert g.num_vertices == max(30, spec.n_vertices // 20)
    assert g.num_edges == max(60, spec.n_edges // 20)
    # average degree within 10% of the paper's dataset
    paper_avg = spec.n_edges / spec.n_vertices
    assert abs(g.avg_degree - paper_avg) / paper_avg < 0.1


def test_simple_no_self_loops(tiny_lj):
    assert tiny_lj.edges.where("src = dst").count() == 0
    assert (
        tiny_lj.edges.groupBy("src", "dst").count().where("count > 1").count() == 0
    )


def test_eids_dense_and_unique(tiny_lj):
    n = tiny_lj.num_edges
    stats = tiny_lj.edges.agg(
        F.countDistinct("eid").alias("d"),
        F.min("eid").alias("lo"),
        F.max("eid").alias("hi"),
    ).collect()[0]
    assert (stats["d"], stats["lo"], stats["hi"]) == (n, 0, n - 1)


def test_endpoints_in_vertex_range(tiny_lj):
    nv = tiny_lj.num_vertices
    bad = tiny_lj.edges.where(
        (F.col("src") < 0) | (F.col("src") >= nv)
        | (F.col("dst") < 0) | (F.col("dst") >= nv)
    ).count()
    assert bad == 0


def test_degree_skew(tiny_lj):
    """Heavy-tailed: max in-degree far above the average."""
    indeg = tiny_lj.edges.groupBy("dst").count().toPandas()["count"].to_numpy()
    assert indeg.max() > 4 * indeg.mean()


def test_reciprocity_nonzero(tiny_lj):
    e = tiny_lj.edges.select("src", "dst")
    rev = e.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    mutual = e.intersect(rev).count()
    assert mutual / tiny_lj.num_edges > 0.05  # social graphs have cycles


def test_deterministic(spark):
    a = powerlaw_digraph(
        spark, name="x", n_vertices=100, n_edges=500, seed=3
    ).edges.toPandas().sort_values("eid").reset_index(drop=True)
    b = powerlaw_digraph(
        spark, name="x", n_vertices=100, n_edges=500, seed=3
    ).edges.toPandas().sort_values("eid").reset_index(drop=True)
    assert a.equals(b)


def test_seed_changes_graph(spark):
    a = powerlaw_digraph(spark, name="x", n_vertices=100, n_edges=500, seed=3)
    b = powerlaw_digraph(spark, name="x", n_vertices=100, n_edges=500, seed=4)
    assert not a.edges.toPandas().equals(b.edges.toPandas())


def test_with_labels_uniformish(spark):
    g = dataset(spark, "brk", scale="tiny", n_vlabels=4, n_elabels=2)
    vl = g.vertices.groupBy("vlabel").count().toPandas()
    el = g.edges.groupBy("elabel").count().toPandas()
    assert len(vl) == 4 and len(el) == 2
    # roughly uniform: each label within 3x of fair share
    assert vl["count"].min() > g.num_vertices / 4 / 3
    assert el["count"].min() > g.num_edges / 2 / 3
    assert g.name.endswith("_4_2")


def test_with_labels_preserves_structure(spark):
    g0 = dataset(spark, "brk", scale="tiny")
    g1 = with_labels(g0, n_vlabels=3, n_elabels=2)
    a = g0.edges.select("eid", "src", "dst").toPandas().sort_values("eid")
    b = g1.edges.select("eid", "src", "dst").toPandas().sort_values("eid")
    assert np.array_equal(a.to_numpy(), b.to_numpy())


def _counting(monkeypatch, cls, name: str) -> list:
    """Count the calls of method ``name`` of ``cls``."""
    calls, orig = [], getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(name)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_decorated_graph_crosses_to_spark_once(spark, monkeypatch):
    """Generation and decoration stay in pandas: caching the decorated
    graph makes one Spark table per frame, and nothing is copied back
    out of Spark."""
    created = _counting(monkeypatch, type(spark), "createDataFrame")
    pulled = _counting(monkeypatch, type(spark.range(1)), "toPandas")
    g = decorate_time(decorate_financial(
        dataset(spark, "brk", scale="tiny", n_vlabels=2, n_elabels=2)
    )).cache()
    assert (len(created), len(pulled)) == (2, 0)
    g.unpersist()


def _analysed(df) -> str:
    return df._jdf.queryExecution().analyzed().toString()


def test_no_plan_carries_the_graphs_rows(spark):
    """The graph tables are RDD-backed, so neither they nor an index
    built on them hold the graph's rows in their plans."""
    g = dataset(spark, "brk", scale="tiny", n_vlabels=2, n_elabels=2)
    fw = build_default_index(g, graphflow_default("fw"))
    for df in (g.vertices, g.edges, fw.lists):
        plan = _analysed(df)
        assert "LocalRelation" not in plan and "LogicalRDD" in plan, plan
    fw.unpersist()


def _fingerprint(frame: pd.DataFrame, key: str) -> int:
    frame = frame.sort_values(key).reset_index(drop=True)
    return int(pd.util.hash_pandas_object(frame).sum())


#: (vertices, edges) fingerprints of the decorated graphs, taken when
#: every generator and decorator still round-tripped through Spark
PINNED = {
    "brk": (9984215985291276932, 11350615610015062880),
    "lj": (7132318825023670554, 13201954089405291710),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_generated_graph_is_pinned(spark, name):
    """The frames and Spark's copy of them are the pinned graph, and the
    graph's sizes are Spark's counts."""
    if name == "brk":
        g = decorate_time(decorate_financial(
            dataset(spark, "brk", scale="tiny", n_vlabels=2, n_elabels=2)
        ))
    else:
        g = decorate_time(dataset(spark, "lj", scale="bench", n_vlabels=2,
                                  n_elabels=4, seed=701))
    assert (_fingerprint(g.vertex_frame, "vid"),
            _fingerprint(g.edge_frame, "eid")) == PINNED[name]
    assert (_fingerprint(g.vertices.toPandas(), "vid"),
            _fingerprint(g.edges.toPandas(), "eid")) == PINNED[name]
    assert (g.num_vertices, g.num_edges) == (g.vertices.count(),
                                             g.edges.count())
