"""DP optimizer: chooses the paper's plan shapes (intersections under
id-sorted lists, granular-list lookups under partitioning, sorted-array
pruning under sorting, VB/EB accesses when views subsume predicates,
MULTI-EXTEND under property-equality chains) and always produces
oracle-correct results."""
import pytest
from pyspark.sql import functions as F

from repro.core.config import EDGE, NBR, Atom, IndexConfig, graphflow_default
from repro.core.default_index import build_default_index
from repro.core.edge_bound import build_edge_bound
from repro.core.index_store import IndexStore
from repro.core.vertex_bound import build_vertex_bound
from repro.core.views import DST_FW, EdgeView, TwoPathView
from repro.engine.catalogue import Catalogue
from repro.engine.operators import (
    CloseExtend,
    EngineContext,
    Extend,
    Filter,
    IntersectExtend,
    MultiExtend,
    Scan,
)
from repro.engine.optimizer import ENGINES, Optimizer
from repro.engine.patterns import QEdge, QueryGraph, QVertex
from repro.graphs.financial import decorate_financial, decorate_time
from repro.graphs.generators import dataset
from tests.util import check_pattern


@pytest.fixture(scope="module")
def g(spark):
    return decorate_time(
        decorate_financial(
            dataset(spark, "brk", scale="tiny", n_vlabels=2, n_elabels=2)
        )
    ).cache()


@pytest.fixture(scope="module")
def ctx(g):
    fw = build_default_index(g, graphflow_default("fw"))
    bw = build_default_index(g, graphflow_default("bw"))
    store = IndexStore(fw, bw)
    # VB_t: all edges, shared partitioning, sorted by time (fw)
    store.add(
        build_vertex_bound(
            fw, EdgeView("vbt"),
            IndexConfig("fw", partition_by=((EDGE, "elabel"),),
                        sort_by=((EDGE, "time"),)),
            name="VBt.fw",
        )
    )
    # VB_c: all edges, sorted by neighbour city, both directions
    for d, base in (("fw", fw), ("bw", bw)):
        store.add(
            build_vertex_bound(
                base, EdgeView("vbc"),
                IndexConfig(d, partition_by=((EDGE, "elabel"),),
                            sort_by=((NBR, "city"),)),
                name=f"VBc.{d}",
            )
        )
    # EB_c: MoneyFlow 2-paths sorted by neighbour city
    store.add(
        build_edge_bound(
            fw,
            TwoPathView(
                "mf", DST_FW,
                (Atom(("e_b", "date"), "<", ("e_adj", "date")),
                 Atom(("e_adj", "amt"), "<", ("e_b", "amt"))),
            ),
            IndexConfig("fw", sort_by=((NBR, "city"),)),
            name="EBc",
        )
    )
    return EngineContext(g, store)


@pytest.fixture(scope="module")
def cat(g):
    return Catalogue.build(g)


def _without(ctx, *names):
    """``ctx`` over the same indexes, less the secondary ones named."""
    s = ctx.store
    return EngineContext(ctx.graph, IndexStore(
        s.default_fw, s.default_bw,
        [i for i in s.vertex_bound if i.name not in names],
        [i for i in s.edge_bound if i.name not in names],
    ))


def _ops(plan, kind):
    return [op for op in plan.ops if isinstance(op, kind)]


TRIANGLE = QueryGraph(
    "triangle",
    (QVertex("a1"), QVertex("a2"), QVertex("a3")),
    (QEdge("e1", "a1", "a2", "E0"), QEdge("e2", "a2", "a3", "E0"),
     QEdge("e3", "a3", "a1", "E0")),
)


def test_triangle_uses_intersection(ctx, cat, g):
    plan = Optimizer(ctx, cat).plan(TRIANGLE)
    assert _ops(plan, IntersectExtend), plan.explain()
    check_pattern(plan.execute(ctx), TRIANGLE, g)


def test_triangle_correct_without_intersection(ctx, cat, g):
    plan = Optimizer(ctx, cat, engine="TG").plan(TRIANGLE)
    assert not _ops(plan, IntersectExtend)
    check_pattern(plan.execute(ctx), TRIANGLE, g)


LABELED = QueryGraph(
    "labeled",
    (QVertex("a1", "V0"), QVertex("a2", "V1"), QVertex("a3", "V0")),
    (QEdge("e1", "a1", "a2", "E1"), QEdge("e2", "a2", "a3", "E0")),
)


def test_label_handling_under_three_configs(g, cat):
    """D: post-filter; D_s: sorted-array prune; D_p: granular lookup.
    All three produce identical, oracle-correct results."""
    configs = {
        "D": graphflow_default("fw"),
        "Ds": IndexConfig("fw", partition_by=((EDGE, "elabel"),),
                          sort_by=((NBR, "vlabel"), (NBR, "vid"))),
        "Dp": IndexConfig("fw",
                          partition_by=((EDGE, "elabel"), (NBR, "vlabel")),
                          sort_by=((NBR, "vid"),)),
    }
    results = {}
    for name, cfg in configs.items():
        fw = build_default_index(g, cfg, name=f"{name}.fw")
        bw = build_default_index(
            g, IndexConfig("bw", cfg.partition_by, cfg.sort_by),
            name=f"{name}.bw",
        )
        ctx = EngineContext(g, IndexStore(fw, bw))
        plan = Optimizer(ctx, cat).plan(LABELED)
        ext = _ops(plan, Extend)
        assert ext, plan.explain()
        if name == "Dp":
            assert any(
                any(c == "nbr_vlabel" for c, _ in e.access.part_eq)
                for e in ext
            ), plan.explain()
        elif name == "Ds":
            assert any(
                any(p[0] == "nbr_vlabel" for p in e.access.array_preds)
                for e in ext
            ), plan.explain()
        else:
            # D: a FILTER directly after the Extend that binds the label
            assert any(
                isinstance(op, Filter) and isinstance(prev, Extend)
                and any(a.lhs[1] == "vlabel" for a in op.preds)
                for prev, op in zip(plan.ops, plan.ops[1:])
            ), plan.explain()
        df = plan.execute(ctx)
        check_pattern(df, LABELED, g, project_edges=("e1", "e2"))
        results[name] = df.count()
        fw.unpersist(); bw.unpersist()
    assert len(set(results.values())) == 1


def test_time_predicate_prefers_vbt(ctx, cat, g):
    thresh = 900_000
    q = QueryGraph(
        "mr1",
        (QVertex("a1"), QVertex("a2")),
        (QEdge("e1", "a1", "a2", "E0"),),
        (Atom(("e1", "time"), ">", thresh),),
    )
    plan = Optimizer(ctx, cat).plan(q)
    ext = _ops(plan, Extend)[0]
    assert ext.access.index == "VBt.fw", plan.explain()
    assert ("time", ">", thresh) in ext.access.array_preds
    check_pattern(plan.execute(ctx), q, g, project_edges=("e1",))


def test_time_predicate_without_vbt_is_post(ctx, cat, g):
    q = QueryGraph(
        "mr1",
        (QVertex("a1"), QVertex("a2")),
        (QEdge("e1", "a1", "a2", "E0"),),
        (Atom(("e1", "time"), ">", 900_000),),
    )
    no_vbt = _without(ctx, "VBt.fw")
    plan = Optimizer(no_vbt, cat).plan(q)
    ext = _ops(plan, Extend)[0]
    assert ext.access.index == "D.fw"
    assert not ext.access.array_preds
    check_pattern(plan.execute(no_vbt), q, g, project_edges=("e1",))


MONEYFLOW_2 = QueryGraph(
    "mf2path",
    (QVertex("a1"), QVertex("a2"), QVertex("a3")),
    (QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3")),
    (Atom(("e1", "date"), "<", ("e2", "date")),
     Atom(("e2", "amt"), "<", ("e1", "amt"))),
)


def test_cross_edge_predicates_prefer_edge_bound(ctx, cat, g):
    plan = Optimizer(ctx, cat).plan(MONEYFLOW_2)
    eb_ext = [
        op for op in _ops(plan, Extend) if op.access.index == "EBc"
    ]
    assert eb_ext and eb_ext[0].from_var == "e1", plan.explain()
    check_pattern(plan.execute(ctx), MONEYFLOW_2, g,
                  project_edges=("e1", "e2"))


def test_edge_bound_disabled_falls_back(ctx, cat, g):
    no_eb = _without(ctx, "EBc")
    plan = Optimizer(no_eb, cat).plan(MONEYFLOW_2)
    assert all(op.access.index != "EBc" for op in _ops(plan, Extend))
    check_pattern(plan.execute(no_eb), MONEYFLOW_2, g,
                  project_edges=("e1", "e2"))


FAN_CITY = QueryGraph(
    "fan",
    (QVertex("a1"), QVertex("a2"), QVertex("a3")),
    (QEdge("e1", "a1", "a2"), QEdge("e2", "a1", "a3")),
    (Atom(("a2", "city"), "=", ("a3", "city")),),
)


def test_city_equality_uses_multi_extend(ctx, cat, g):
    plan = Optimizer(ctx, cat).plan(FAN_CITY)
    me = _ops(plan, MultiExtend)
    assert me and me[0].key_field == "nbr_city", plan.explain()
    assert {t.access.index for t in me[0].targets} == {"VBc.fw"}
    check_pattern(plan.execute(ctx), FAN_CITY, g, project_edges=("e1", "e2"))


def test_multi_extend_disabled_same_result(ctx, cat, g):
    no_vbc = _without(ctx, "VBc.fw", "VBc.bw")
    plan = Optimizer(no_vbc, cat).plan(FAN_CITY)
    assert not _ops(plan, MultiExtend)
    check_pattern(plan.execute(no_vbc), FAN_CITY, g,
                  project_edges=("e1", "e2"))


def test_anchor_predicate_applied_at_scan(ctx, cat):
    q = QueryGraph(
        "anchored",
        (QVertex("a1"), QVertex("a2")),
        (QEdge("e1", "a1", "a2"),),
        (Atom(("a1", "vid"), "=", 3),),
    )
    plan = Optimizer(ctx, cat).plan(q)
    scan = plan.ops[0]
    assert isinstance(scan, Scan) and scan.preds
    df = plan.execute(ctx)
    assert all(r["a1"] == 3 for r in df.collect())


def test_disconnected_pattern_raises(ctx, cat):
    q = QueryGraph(
        "disc", (QVertex("a1"), QVertex("a2")), (),
    )
    with pytest.raises(ValueError, match="no plan"):
        Optimizer(ctx, cat).plan(q)


@pytest.mark.parametrize("engine", ENGINES)
def test_baselines_correct_and_restricted(ctx, cat, g, engine):
    """Each engine on patterns that exercise the fixture's VBt, VBc and
    EBc indexes: TG and N4 plan binary joins over the default lists."""
    opt = Optimizer(ctx, cat, engine=engine)
    for q in (LABELED, TRIANGLE, FAN_CITY, MONEYFLOW_2):
        plan = opt.plan(q)
        if engine != "GF":
            assert not _ops(plan, IntersectExtend), plan.explain()
            assert not _ops(plan, MultiExtend), plan.explain()
            lists = _ops(plan, Extend) + _ops(plan, CloseExtend)
            assert all(
                op.access.index.startswith("D.")
                and not op.access.array_preds
                for op in lists
            ), plan.explain()
        df = plan.execute(ctx)
        # an intersection binds no closing-edge ids
        edges = tuple(e for e in q.edge_names if f"{e}__eid" in df.columns)
        check_pattern(df, q, g, project_edges=edges)


def test_unknown_engine_raises(ctx, cat):
    with pytest.raises(ValueError, match="unknown engine"):
        Optimizer(ctx, cat, engine="GraphflowDB")


def test_n4_like_defers_filters(ctx, cat):
    plan = Optimizer(ctx, cat, engine="N4").plan(LABELED)
    scan = plan.ops[0]
    assert isinstance(scan, Scan) and not scan.preds
    assert _ops(plan, Filter), plan.explain()


def test_i_cost_monotone_more_granular_cheaper(g, cat):
    """i-cost of the D_p plan <= D_s plan <= D plan for LABELED."""
    costs = {}
    for name, cfg in {
        "D": graphflow_default("fw"),
        "Ds": IndexConfig("fw", partition_by=((EDGE, "elabel"),),
                          sort_by=((NBR, "vlabel"), (NBR, "vid"))),
        "Dp": IndexConfig("fw",
                          partition_by=((EDGE, "elabel"), (NBR, "vlabel")),
                          sort_by=((NBR, "vid"),)),
    }.items():
        fw = build_default_index(g, cfg, name=f"{name}.fw")
        bw = build_default_index(
            g, IndexConfig("bw", cfg.partition_by, cfg.sort_by),
            name=f"{name}.bw",
        )
        ctx = EngineContext(g, IndexStore(fw, bw))
        opt = Optimizer(ctx, cat)
        best = {}
        for v in LABELED.vertices:
            st = opt._scan_state(LABELED, v.name)
            best[st.bound_v] = st
        for size in range(1, len(LABELED.vertices)):
            for key in [k for k in best if len(k) == size]:
                for nxt in opt._transitions(LABELED, best[key]):
                    if (nxt.bound_v not in best
                            or nxt.cost < best[nxt.bound_v].cost):
                        best[nxt.bound_v] = nxt
        costs[name] = best[frozenset(LABELED.vertex_names)].cost
        fw.unpersist(); bw.unpersist()
    assert costs["Dp"] <= costs["Ds"] <= costs["D"]
