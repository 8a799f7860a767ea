"""Secondary vertex-bound A+ indexes: offset-list content, sharing
rule, sorting, and predicate views (Sections 2.2.1 and 3)."""
import pytest
from pyspark.sql import functions as F

from repro.core.config import EDGE, NBR, Atom, IndexConfig, graphflow_default
from repro.core.default_index import build_default_index
from repro.core.probes import gather
from repro.core.vertex_bound import build_vertex_bound
from repro.core.views import EdgeView
from repro.graphs.example import example_graph


@pytest.fixture(scope="module")
def g(spark):
    return example_graph(spark).cache()


@pytest.fixture(scope="module")
def fw(g):
    return build_default_index(g, graphflow_default("fw"))


@pytest.fixture(scope="module")
def vb_time(fw):
    """VB_t analog: all edges, shared partitioning, sorted by date."""
    return build_vertex_bound(
        fw,
        EdgeView("all_edges"),
        IndexConfig(
            direction="fw",
            partition_by=((EDGE, "elabel"),),
            sort_by=((EDGE, "date"),),
        ),
    )


@pytest.fixture(scope="module")
def vb_usd(fw):
    """LargeUSDTrnx analog from Example 7 (threshold fits the data)."""
    view = EdgeView(
        "usd_large",
        (
            Atom(("e_adj", "currency"), "=", "USD"),
            Atom(("e_adj", "amt"), ">", 600.0),
        ),
    )
    return build_vertex_bound(
        fw,
        view,
        IndexConfig(direction="fw", partition_by=((EDGE, "elabel"),),
                    sort_by=((NBR, "vid"),)),
    )


def test_shares_layers_flag(vb_time, vb_usd):
    assert vb_time.shares_layers  # no predicate, same partitioning
    assert not vb_usd.shares_layers  # has a view predicate


def test_no_pred_index_covers_all_edges(g, vb_time):
    n_edges = g.num_edges
    assert vb_time.num_entries == n_edges


def test_offsets_resolve_to_date_sorted_entries(vb_time):
    resolved = vb_time.lists.select(
        "pk", "elabel", "skeys",
        gather(F.col("ref"), F.col("offsets")).alias("entries"),
    ).collect()
    assert resolved
    for r in resolved:
        # the aligned sort-key array is date-ordered
        dates = [s["date"] for s in r["skeys"]]
        non_null = [d for d in dates if d is not None]
        assert non_null == sorted(non_null)
        labels = {s["elabel"] for s in r["entries"]}
        assert labels == {r["elabel"]}  # partition purity
        assert len(r["skeys"]) == len(r["entries"])


def test_offsets_are_within_vertex_list(vb_time, fw):
    joined = vb_time.lists.join(
        fw.vertex_lists.select(F.col("pk").alias("p2"),
                               F.size("lst").alias("n")),
        vb_time.lists["pk"] == F.col("p2"),
    )
    bad = joined.where(
        F.exists("offsets", lambda o: (o < 0) | (o >= F.col("n")))
    ).count()
    assert bad == 0


def test_pred_view_content_matches_filter(g, vb_usd):
    resolved = vb_usd.lists.select(
        gather(F.col("ref"), F.col("offsets")).alias("entries")
    ).collect()
    got = sorted(s["eid"] for r in resolved for s in r["entries"])
    want = sorted(
        r["eid"]
        for r in g.edges.where("currency = 'USD' and amt > 600").collect()
    )
    assert got == want and len(want) > 0


def test_view_predicate_on_vertex_props(g, fw):
    """Predicates may reference the endpoint vertices (v_d here)."""
    vb = build_vertex_bound(
        fw,
        EdgeView("to_toronto", (Atom(("v_d", "city"), "=", "Toronto"),)),
        IndexConfig(direction="fw"),
    )
    resolved = vb.lists.select(
        gather(F.col("ref"), F.col("offsets")).alias("entries")
    ).collect()
    got = sorted(s["eid"] for r in resolved for s in r["entries"])
    want = sorted(
        r["eid"]
        for r in g.edges.join(
            g.vertices.where("city = 'Toronto'").select(
                F.col("vid").alias("dst")
            ),
            "dst",
        ).collect()
    )
    assert got == want and len(want) > 0
    vb.unpersist()


def test_backward_view_predicates_on_both_endpoints(g):
    """In a backward index the owner is ``v_d`` and the neighbour is
    ``v_s``: a predicate on each endpoint must select the same edges
    as in the edge table."""
    bw = build_default_index(g, graphflow_default("bw"))
    vb = build_vertex_bound(
        bw,
        EdgeView("waterloo_to_cq", (
            Atom(("v_s", "city"), "=", "Waterloo"),
            Atom(("v_d", "acc"), "=", "CQ"),
        )),
        IndexConfig(direction="bw"),
    )
    assert vb.atoms == (
        Atom(("v_nbr", "city"), "=", "Waterloo"),
        Atom(("v_shared", "acc"), "=", "CQ"),
    )
    resolved = vb.lists.select(
        gather(F.col("ref"), F.col("offsets")).alias("entries")
    ).collect()
    got = sorted(s["eid"] for r in resolved for s in r["entries"])
    v = g.vertices
    want = sorted(
        r["eid"]
        for r in g.edges.join(
            v.where("city = 'Waterloo'").select(F.col("vid").alias("src")),
            "src",
        ).join(
            v.where("acc = 'CQ'").select(F.col("vid").alias("dst")), "dst"
        ).collect()
    )
    assert got == want and len(want) > 0
    vb.unpersist()
    bw.unpersist()


def test_direction_mismatch_raises(fw):
    with pytest.raises(ValueError, match="must match"):
        build_vertex_bound(fw, EdgeView("x"), IndexConfig(direction="bw"))


def test_unknown_sort_column_raises(fw):
    with pytest.raises(ValueError, match="unknown columns"):
        build_vertex_bound(
            fw, EdgeView("x"),
            IndexConfig(direction="fw", sort_by=((EDGE, "nope"),)),
        )


def test_bad_view_entity_rejected():
    with pytest.raises(ValueError, match="references"):
        EdgeView("bad", (Atom(("e_b", "amt"), ">", 1),))
