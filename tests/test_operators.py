"""Join operators vs the DuckDB oracle on the running example and a
tiny synthetic financial graph: every access path (default granular
lists, sorted-array pruning, vertex-bound gather, edge-bound gather)
must produce exactly the relational-join answer."""
import re

import pytest
from pyspark.sql import functions as F

from repro.core.config import EDGE, NBR, Atom, IndexConfig, graphflow_default
from repro.core.default_index import build_default_index
from repro.core.edge_bound import build_edge_bound
from repro.core.index_store import IndexStore
from repro.core.probes import ListIndex
from repro.core.vertex_bound import build_vertex_bound
from repro.core.views import DST_FW, EdgeView, TwoPathView
from repro.engine.operators import (
    CloseExtend,
    EngineContext,
    Extend,
    ExtTarget,
    Filter,
    IntersectExtend,
    ListAccess,
    MultiExtend,
    Scan,
)
from repro.engine.patterns import QEdge, QueryGraph, QVertex
from repro.engine.plans import Plan
from repro.graphs.example import example_graph
from repro.graphs.financial import decorate_financial
from repro.graphs.generators import dataset
from repro.graphs.schema import PropertyGraph
from tests.util import check_pattern


@pytest.fixture(scope="module")
def g(spark):
    return example_graph(spark).cache()


@pytest.fixture(scope="module")
def ctx(g):
    fw = build_default_index(g, graphflow_default("fw"))
    bw = build_default_index(g, graphflow_default("bw"))
    store = IndexStore(fw, bw)
    store.add(
        build_vertex_bound(
            fw,
            EdgeView("all_fw"),
            IndexConfig(direction="fw", partition_by=((EDGE, "elabel"),),
                        sort_by=((EDGE, "amt"),)),
            name="VBt.fw",
        )
    )
    store.add(
        build_edge_bound(
            fw,
            TwoPathView(
                "moneyflow",
                DST_FW,
                (
                    Atom(("e_b", "date"), "<", ("e_adj", "date")),
                    Atom(("e_adj", "amt"), "<", ("e_b", "amt")),
                ),
            ),
            IndexConfig(direction="fw", sort_by=((NBR, "city"),)),
            name="EB.mf",
        )
    )
    return EngineContext(g, store)


def test_scan_with_label_and_pred(ctx, g):
    df = Scan("a1", (Atom(("a1", "vlabel"), "=", "Account"),
                     Atom(("a1", "vid"), "<", 4))).apply(ctx, None)
    assert sorted(r["a1"] for r in df.collect()) == [1, 2, 3]
    assert "a1__city" in df.columns


def test_scan_not_first_raises(ctx):
    df = Scan("a1").apply(ctx, None)
    with pytest.raises(ValueError):
        Scan("a2").apply(ctx, df)


def test_extend_default_granular(ctx, g):
    """Example 2: Alice -Owns-> a2 -W-> a3 via granular lists."""
    q = QueryGraph(
        "ex2",
        (QVertex("a1", "Customer"), QVertex("a2"), QVertex("a3")),
        (QEdge("r1", "a1", "a2", "Owns"), QEdge("r2", "a2", "a3", "W")),
        (Atom(("a1", "name"), "=", "Alice"),),
    )
    plan = Plan(
        "ex2",
        (
            Scan("a1", (Atom(("a1", "vlabel"), "=", "Customer"),
                        Atom(("a1", "name"), "=", "Alice"))),
            Extend("a1", "a2", "r1",
                   ListAccess("D.fw", part_eq=(("elabel", "Owns"),))),
            Extend("a2", "a3", "r2",
                   ListAccess("D.fw", part_eq=(("elabel", "W"),))),
        ),
    )
    df = plan.execute(ctx)
    check_pattern(df, q, g, project_edges=("r1", "r2"))


def test_extend_post_pred_equals_partitioned(ctx, g):
    """Unpartitioned access + FILTER == granular access."""
    base = (Scan("a1"),)
    via_part = Plan(
        "p", base + (Extend("a1", "a2", "e1",
                            ListAccess("D.fw", part_eq=(("elabel", "W"),))),)
    ).execute(ctx)
    via_post = Plan(
        "q", base + (Extend("a1", "a2", "e1", ListAccess("D.fw")),
                     Filter((Atom(("e1", "label"), "=", "W"),)))
    ).execute(ctx)
    a = sorted(map(tuple, via_part.select("a1", "a2", "e1__eid").collect()))
    b = sorted(map(tuple, via_post.select("a1", "a2", "e1__eid").collect()))
    assert a == b and len(a) > 0


def _assert_amt_carried(df, g) -> None:
    """Every row's ``e1__amt`` — a sort key of the index, which the base
    ID lists do not carry — is the edge table's ``amt`` of ``e1``."""
    amt = dict(g.edges.select("eid", "amt").collect())
    rows = df.select("e1__eid", "e1__amt").collect()
    assert rows and all(r["e1__amt"] == amt[r["e1__eid"]] for r in rows)


def test_extend_array_pred_sorted_prune(ctx, g):
    """Array-level pruning on the sort key (binary-search analog): the
    kept positions resolve to the right edges and carry their sort-key
    values."""
    df = Plan(
        "t",
        (
            Scan("a1"),
            Extend(
                "a1", "a2", "e1",
                ListAccess("VBt.fw", part_eq=(("elabel", "W"),),
                           array_preds=(("amt", ">", 700.0),)),
            ),
        ),
    ).execute(ctx)
    q = QueryGraph(
        "t",
        (QVertex("a1"), QVertex("a2")),
        (QEdge("e1", "a1", "a2", "W"),),
        (Atom(("e1", "amt"), ">", 700.0),),
    )
    check_pattern(df, q, g, project_edges=("e1",))
    _assert_amt_carried(df, g)


def test_extend_backward(ctx, g):
    df = Plan(
        "bwd",
        (
            Scan("a2", preds=(Atom(("a2", "vid"), "=", 2),)),
            Extend("a2", "a1", "e1",
                   ListAccess("D.bw", part_eq=(("elabel", "W"),))),
        ),
    ).execute(ctx)
    # v2's incoming Wire transfers are t5 and t17
    assert sorted(r["e1__eid"] for r in df.collect()) == [5, 17]


def test_vertex_bound_gather_matches_default(ctx, g):
    """Reading through offset-list indirection returns the same edges
    as reading the default ID lists (Section 3)."""
    via_d = Plan(
        "d", (Scan("a1"),
              Extend("a1", "a2", "e1",
                     ListAccess("D.fw", part_eq=(("elabel", "DD"),))))
    ).execute(ctx)
    via_vb = Plan(
        "v", (Scan("a1"),
              Extend("a1", "a2", "e1",
                     ListAccess("VBt.fw", part_eq=(("elabel", "DD"),))))
    ).execute(ctx)
    a = sorted(map(tuple, via_d.select("a1", "a2", "e1__eid").collect()))
    b = sorted(map(tuple, via_vb.select("a1", "a2", "e1__eid").collect()))
    assert a == b and len(a) > 0
    _assert_amt_carried(via_vb, g)


def test_close_extend_triangle(ctx, g):
    """Directed triangle via binary-join closure, oracle-checked."""
    q = QueryGraph(
        "tri",
        (QVertex("a1"), QVertex("a2"), QVertex("a3")),
        (QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3"),
         QEdge("e3", "a3", "a1")),
    )
    df = Plan(
        "tri",
        (
            Scan("a1"),
            Extend("a1", "a2", "e1", ListAccess("D.fw")),
            Extend("a2", "a3", "e2", ListAccess("D.fw")),
            CloseExtend("a3", "a1", "e3", ListAccess("D.fw")),
        ),
    ).execute(ctx)
    check_pattern(df, q, g, project_edges=("e1", "e2", "e3"))


def test_intersect_extend_triangle(ctx, g):
    """Same triangle via WCO 2-way intersection (Example 3 style)."""
    q = QueryGraph(
        "tri",
        (QVertex("a1"), QVertex("a2"), QVertex("a3")),
        (QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3"),
         QEdge("e3", "a3", "a1")),
    )
    df = Plan(
        "tri-wco",
        (
            Scan("a1"),
            Extend("a1", "a2", "e1", ListAccess("D.fw")),
            IntersectExtend(
                "a3",
                (("a2", ListAccess("D.fw")), ("a1", ListAccess("D.bw"))),
            ),
        ),
    ).execute(ctx)
    check_pattern(df, q, g, project_edges=("e1",))


def test_intersect_needs_two_sources():
    with pytest.raises(ValueError):
        IntersectExtend("x", (("a", ListAccess("D.fw")),))


def test_multi_extend_city_pairs(ctx, g):
    """MULTI-EXTEND on nbr_city: (a2, a3) from a1's fw lists with
    a2.city = a3.city and a2 != a3 enforced downstream by pattern."""
    fw_city = build_default_index(
        ctx.graph,
        IndexConfig(direction="fw", sort_by=((NBR, "city"),)),
        name="D.fw.city",
    )
    ctx.store.default_fw, saved = ctx.store.default_fw, ctx.store.default_fw
    ctx.store.vertex_bound.append(
        build_vertex_bound(
            fw_city, EdgeView("all_city"),
            IndexConfig(direction="fw", sort_by=((NBR, "city"),)),
            name="VBc.fw",
        )
    )
    q = QueryGraph(
        "fan",
        (QVertex("a1"), QVertex("a2"), QVertex("a3")),
        (QEdge("e1", "a1", "a2"), QEdge("e2", "a1", "a3")),
        (Atom(("a2", "city"), "=", ("a3", "city")),),
    )
    df = Plan(
        "fan",
        (
            Scan("a1"),
            MultiExtend(
                (
                    ExtTarget("a1", "a2", "e1", ListAccess("VBc.fw")),
                    ExtTarget("a1", "a3", "e2", ListAccess("VBc.fw")),
                ),
                key_field="nbr_city",
            ),
        ),
    ).execute(ctx)
    # homomorphism: a2 == a3 rows are legal matches of the pattern too
    check_pattern(df, q, g, project_edges=("e1", "e2"))
    ctx.store.default_fw = saved


def test_extend_from_edge_bound(ctx, g):
    """Example 4/8: after matching e1 = t13, extending through the
    MoneyFlow edge-bound list yields exactly the t19 2-path."""
    df = Plan(
        "mf",
        (
            Scan("a1"),
            Extend("a1", "a2", "e1", ListAccess("D.fw")),
            Filter((Atom(("e1", "vid"), "=", 13),)),
            Extend("e1", "a3", "e2", ListAccess("EB.mf")),
        ),
    ).execute(ctx)
    rows = df.collect()
    assert len(rows) == 1
    assert rows[0]["e2__eid"] == 19 and rows[0]["a2"] == 5


def test_edge_bound_equals_post_filtered_default(ctx, g):
    """EB access == default access + the cross-edge predicates."""
    via_eb = Plan(
        "eb",
        (
            Scan("a1"),
            Extend("a1", "a2", "e1", ListAccess("D.fw")),
            Extend("e1", "a3", "e2", ListAccess("EB.mf")),
        ),
    ).execute(ctx)
    via_d = Plan(
        "d",
        (
            Scan("a1"),
            Extend("a1", "a2", "e1", ListAccess("D.fw")),
            Extend("a2", "a3", "e2", ListAccess("D.fw")),
            Filter((
                Atom(("e1", "date"), "<", ("e2", "date")),
                Atom(("e2", "amt"), "<", ("e1", "amt")),
                Atom(("e2", "vid"), "!=", ("e1", "vid")),
            )),
        ),
    ).execute(ctx)
    cols = ["a1", "a2", "a3", "e1__eid", "e2__eid"]
    a = sorted(map(tuple, via_eb.select(*cols).collect()))
    b = sorted(map(tuple, via_d.select(*cols).collect()))
    assert a == b and len(a) > 0


def test_filter_and_fetchprops(ctx):
    df = Plan(
        "f",
        (
            Scan("a1"),
            Extend("a1", "a2", "e1", ListAccess("D.fw")),
            IntersectExtend(
                "a3", (("a2", ListAccess("D.fw")), ("a1", ListAccess("D.bw")))
            ),
            Filter((Atom(("a3", "city"), "=", "Toronto"),)),
        ),
    ).execute(ctx)
    assert "a3__city" in df.columns
    assert all(r["a3__city"] == "Toronto" for r in df.collect())


_JOIN = re.compile(
    r"\b(BroadcastHashJoin|SortMergeJoin|ShuffledHashJoin"
    r"|BroadcastNestedLoopJoin) (\[.*?\]), (\[.*?\])"
)
#: join keys the operators give the index side
_PROBE_KEY = re.compile(r"\b__k\d+#")
_KEY_NAME = re.compile(r"(\w+)#\d+")


def _probe_joins(df, capsys) -> list[str]:
    """Strategies of the operator joins in ``df``'s executed plan, read
    from ``DataFrame.explain()``.  The plan also prints the build plans
    of the cached index tables (under ``InMemoryRelation``), whose
    build-time joins ran once, not per query; operator joins are told
    apart by their keys: index probes key the index side ``__k<i>``, and
    property-store reads join on the match variable's own column, so
    both sides' keys have the same names."""
    df.collect()
    capsys.readouterr()
    df.explain()
    return [
        strategy
        for strategy, left, right in _JOIN.findall(capsys.readouterr().out)
        if _PROBE_KEY.search(left + right)
        or _KEY_NAME.findall(left) == _KEY_NAME.findall(right)
    ]


#: one plan per access path; every list lookup and property-store read
#: must probe a broadcast hash of the index side
_ACCESS_PATHS = {
    "default-granular": (
        Extend("a1", "a2", "e1",
               ListAccess("D.fw", part_eq=(("elabel", "W"),))),
    ),
    "nbr-ids-intersection": (
        Extend("a1", "a2", "e1", ListAccess("D.fw")),
        IntersectExtend(
            "a3", (("a2", ListAccess("D.fw")), ("a1", ListAccess("D.bw")))
        ),
    ),
    "vb-array-gather": (
        Extend("a1", "a2", "e1",
               ListAccess("VBt.fw", part_eq=(("elabel", "DD"),))),
    ),
    "vb-pruned-gather": (
        Extend("a1", "a2", "e1",
               ListAccess("VBt.fw", part_eq=(("elabel", "W"),),
                          array_preds=(("amt", ">", 700.0),))),
    ),
    "eb-pruned-gather": (
        Extend("a1", "a2", "e1", ListAccess("D.fw")),
        Extend("e1", "a3", "e2",
               ListAccess("EB.mf",
                          array_preds=(("nbr_city", "=", "Toronto"),))),
    ),
    "eb-gather": (
        Extend("a1", "a2", "e1", ListAccess("D.fw")),
        Extend("e1", "a3", "e2", ListAccess("EB.mf")),
    ),
    "multi-extend": (
        Extend("a1", "a2", "e1", ListAccess("D.fw")),
        MultiExtend(
            (
                ExtTarget("e1", "a3", "e2", ListAccess("EB.mf")),
                ExtTarget("e1", "a4", "e3", ListAccess("EB.mf")),
            ),
            key_field="nbr_city",
        ),
    ),
    "filter-fetch": (
        Extend("a1", "a2", "e1", ListAccess("D.fw")),
        Filter((Atom(("a2", "city"), "=", "Toronto"),
                Atom(("e1", "amt"), ">", 100.0))),
    ),
}


def _mf(e: str) -> tuple[Atom, ...]:
    """The EB.mf view's predicates on the 2-path ``e1`` -> ``e``."""
    return (
        Atom(("e1", "date"), "<", (e, "date")),
        Atom((e, "amt"), "<", ("e1", "amt")),
        Atom((e, "vid"), "!=", ("e1", "vid")),
    )


_A12 = QEdge("e1", "a1", "a2")

#: the pattern each access path's plan answers, and its edges to compare
_ACCESS_QUERIES = {
    "default-granular": (
        QueryGraph("dg", (QVertex("a1"), QVertex("a2")),
                   (QEdge("e1", "a1", "a2", "W"),)),
        ("e1",),
    ),
    "nbr-ids-intersection": (
        QueryGraph("tri", (QVertex("a1"), QVertex("a2"), QVertex("a3")),
                   (_A12, QEdge("e2", "a2", "a3"), QEdge("e3", "a3", "a1"))),
        ("e1",),
    ),
    "vb-array-gather": (
        QueryGraph("vg", (QVertex("a1"), QVertex("a2")),
                   (QEdge("e1", "a1", "a2", "DD"),)),
        ("e1",),
    ),
    "vb-pruned-gather": (
        QueryGraph("vr", (QVertex("a1"), QVertex("a2")),
                   (QEdge("e1", "a1", "a2", "W"),),
                   (Atom(("e1", "amt"), ">", 700.0),)),
        ("e1",),
    ),
    "eb-pruned-gather": (
        QueryGraph("er", (QVertex("a1"), QVertex("a2"), QVertex("a3")),
                   (_A12, QEdge("e2", "a2", "a3")),
                   _mf("e2") + (Atom(("a3", "city"), "=", "Toronto"),)),
        ("e1", "e2"),
    ),
    "eb-gather": (
        QueryGraph("eg", (QVertex("a1"), QVertex("a2"), QVertex("a3")),
                   (_A12, QEdge("e2", "a2", "a3")), _mf("e2")),
        ("e1", "e2"),
    ),
    "multi-extend": (
        QueryGraph(
            "me",
            (QVertex("a1"), QVertex("a2"), QVertex("a3"), QVertex("a4")),
            (_A12, QEdge("e2", "a2", "a3"), QEdge("e3", "a2", "a4")),
            _mf("e2") + _mf("e3")
            + (Atom(("a3", "city"), "=", ("a4", "city")),),
        ),
        ("e1", "e2", "e3"),
    ),
    "filter-fetch": (
        QueryGraph("ff", (QVertex("a1"), QVertex("a2")), (_A12,),
                   (Atom(("a2", "city"), "=", "Toronto"),
                    Atom(("e1", "amt"), ">", 100.0))),
        ("e1",),
    ),
}


@pytest.mark.parametrize("path", sorted(_ACCESS_PATHS))
def test_probe_tables_are_reused(ctx, g, monkeypatch, path):
    """A second build of the same plan reuses every probe table of the
    first (the identical DataFrame objects: index lists and
    property-store bindings), and its answer still equals the
    oracle's."""
    used: list = []

    def recording(build):
        def wrapper(self, *args):
            df = build(self, *args)
            used.append(df)
            return df
        return wrapper

    monkeypatch.setattr(ListIndex, "_cached", recording(ListIndex._cached))
    monkeypatch.setattr(PropertyGraph, "_bind", recording(PropertyGraph._bind))
    plan = Plan(path, (Scan("a1"),) + _ACCESS_PATHS[path])
    plan.execute(ctx)
    first = used[:]
    used.clear()
    df = plan.execute(ctx)
    assert len(first) > 1 and len(used) == len(first)
    assert all(a is b for a, b in zip(first, used))
    q, edges = _ACCESS_QUERIES[path]
    check_pattern(df, q, g, project_edges=edges)


@pytest.mark.parametrize("path", sorted(_ACCESS_PATHS))
def test_index_probes_are_broadcast_hash_joins(ctx, capsys, path):
    """E/I is an index probe: the match side stays in place and each
    operator probes a hash of the cached index, so no operator join
    repartitions the matches or the index.  The plan runs without
    adaptive query execution: hinted broadcasts leave it nothing to
    adapt."""
    df = Plan(path, (Scan("a1"),) + _ACCESS_PATHS[path]).execute(ctx)
    joins = _probe_joins(df, capsys)
    assert joins and set(joins) == {"BroadcastHashJoin"}, joins
    executed = df._jdf.queryExecution().executedPlan().toString()
    assert "AdaptiveSparkPlan" not in executed, executed


def _d_vb_eb(g):
    """Build a default, a vertex-bound and an edge-bound index, one per
    ``next``."""
    fw = build_default_index(g, graphflow_default("fw"))
    yield fw
    yield build_vertex_bound(
        fw, EdgeView("all_fw"),
        IndexConfig(direction="fw", partition_by=((EDGE, "elabel"),),
                    sort_by=((EDGE, "amt"),)),
    )
    yield build_edge_bound(
        fw,
        TwoPathView("mf", DST_FW,
                    (Atom(("e_b", "date"), "<", ("e_adj", "date")),)),
        IndexConfig(direction="fw", sort_by=((NBR, "city"),)),
    )


def test_each_index_caches_one_table_per_artifact(spark):
    """Building a default, vertex- or edge-bound index persists one RDD,
    its ``lists``."""
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    built = []
    before = persistent().size()
    for idx in _d_vb_eb(example_graph(spark)):
        built.append(idx)
        assert persistent().size() - before == 1, idx.name
        before = persistent().size()
    for idx in built:
        idx.unpersist()


def test_index_store_unpersist_leaves_no_cached_table(spark):
    """``IndexStore.unpersist()`` brings the persisted RDDs back to their
    count before the builds."""
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    fw, vb, eb = _d_vb_eb(example_graph(spark))
    store = IndexStore(fw, None, [vb], [eb])
    assert persistent().size() == before + 3
    store.unpersist()
    assert persistent().size() == before


def test_unbound_variable_raises(ctx):
    with pytest.raises(KeyError, match="not bound"):
        Plan(
            "bad",
            (Scan("a1"), Extend("zz", "a2", "e1", ListAccess("D.fw"))),
        ).execute(ctx)


def test_operators_on_synthetic_financial_graph(spark):
    """End-to-end on a tiny labelled financial graph, oracle-checked."""
    g = decorate_financial(
        dataset(spark, "brk", scale="tiny", n_vlabels=2, n_elabels=2)
    ).cache()
    fw = build_default_index(g, graphflow_default("fw"))
    bw = build_default_index(g, graphflow_default("bw"))
    ctx = EngineContext(g, IndexStore(fw, bw))
    q = QueryGraph(
        "sq",
        (QVertex("a1", "V0"), QVertex("a2", "V1"), QVertex("a3")),
        (QEdge("e1", "a1", "a2", "E0"), QEdge("e2", "a2", "a3", "E1")),
        (Atom(("e2", "amt"), ">", 500.0),),
    )
    df = Plan(
        "sq",
        (
            Scan("a1", (Atom(("a1", "vlabel"), "=", "V0"),)),
            Extend("a1", "a2", "e1",
                   ListAccess("D.fw", part_eq=(("elabel", "E0"),))),
            Filter((Atom(("a2", "vlabel"), "=", "V1"),)),
            Extend("a2", "a3", "e2",
                   ListAccess("D.fw", part_eq=(("elabel", "E1"),))),
            Filter((Atom(("e2", "amt"), ">", 500.0),)),
        ),
    ).execute(ctx)
    check_pattern(df, q, g, project_edges=("e1", "e2"))
    ctx.store.unpersist()
    g.unpersist()
