"""Workload integration: every SQ/MR/MF query planned by the optimizer
under each index configuration produces the oracle answer, and the
secondary indexes actually appear in the plans the paper says they
enable."""
import pytest
from pyspark.sql import functions as F

from repro.engine.catalogue import Catalogue
from repro.core.config import Atom
from repro.core.index_store import canon_atom
from repro.engine.operators import (
    EngineContext,
    Extend,
    Filter,
    IntersectExtend,
    MultiExtend,
    Scan,
)
from repro.engine.optimizer import Optimizer
from repro.graphs.financial import calibrate_alpha, decorate_financial, decorate_time, time_threshold
from repro.graphs.generators import dataset
from repro.workloads.magicrecs import mr_workload
from repro.workloads.moneyflow import mf_2path, mf_workload
from repro.workloads.setups import (
    add_EBc,
    add_VBc,
    add_VBt,
    build_D,
    build_Dp,
    build_Ds,
    flow_sel_hints,
    time_sel_hints,
)
from repro.workloads.subgraph_queries import CYCLIC, sq_workload
from tests.util import check_pattern


@pytest.fixture(scope="module")
def g(spark):
    base = dataset(spark, "brk", scale="tiny", n_vlabels=2, n_elabels=2)
    return decorate_time(decorate_financial(base, seed=23), seed=29).cache()


@pytest.fixture(scope="module")
def stores(g):
    out = {"D": build_D(g), "Ds": build_Ds(g), "Dp": build_Dp(g)}
    yield out
    for s in out.values():
        s.unpersist()


@pytest.fixture(scope="module")
def cat(g):
    return Catalogue.build(g)


SQS = sq_workload(n_vlabels=2, n_elabels=2)


@pytest.mark.parametrize("qname", sorted(SQS))
def test_sq_oracle_and_config_agreement(g, stores, cat, qname):
    q = SQS[qname]
    counts = {}
    for cname, store in stores.items():
        ctx = EngineContext(g, store)
        plan = Optimizer(ctx, cat).plan(q)
        df = plan.execute(ctx)
        if cname == "D":
            check_pattern(df, q, g)
        counts[cname] = df.count()
    assert len(set(counts.values())) == 1, counts


def test_cyclic_queries_use_intersections(g, stores, cat):
    ctx = EngineContext(g, stores["D"])
    used = 0
    for qname in sorted(CYCLIC):
        plan = Optimizer(ctx, cat).plan(SQS[qname])
        used += any(isinstance(op, IntersectExtend) for op in plan.ops)
    assert used >= len(CYCLIC) - 1  # triangles/cliques/cycles intersect


@pytest.fixture(scope="module")
def tau(g):
    return time_threshold(g, 0.5)  # generous on the tiny graph


@pytest.fixture(scope="module")
def store_vbt(g):
    s = add_VBt(build_D(g))
    yield s
    s.unpersist()


@pytest.mark.parametrize("mr", ["MR1", "MR2", "MR3"])
def test_magicrecs_oracle_both_configs(g, stores, store_vbt, cat, tau, mr):
    q = mr_workload(tau=tau)[mr]
    hints = Catalogue.build(g, time_sel_hints(tau))
    base_ctx = EngineContext(g, stores["D"])
    df_d = Optimizer(base_ctx, hints).plan(q).execute(base_ctx)
    check_pattern(df_d, q, g)
    vbt_ctx = EngineContext(g, store_vbt)
    plan = Optimizer(vbt_ctx, hints).plan(q)
    assert any(
        isinstance(op, Extend) and op.access.index == "VBt.fw"
        and any(p[0] == "time" for p in op.access.array_preds)
        for op in plan.ops
    ), plan.explain()
    assert plan.execute(vbt_ctx).count() == df_d.count()


@pytest.fixture(scope="module")
def alpha(g):
    return calibrate_alpha(g, 0.2)  # generous so the tiny graph has matches


@pytest.fixture(scope="module")
def beta_city(g):
    row = (
        g.vertices.groupBy("city").count().orderBy(F.desc("count")).first()
    )
    return row["city"]


@pytest.fixture(scope="module")
def store_vbc(g):
    s = add_VBc(build_D(g))
    yield s
    s.unpersist()


@pytest.fixture(scope="module")
def store_full(g, alpha):
    s = add_EBc(add_VBc(build_D(g)), alpha)
    yield s
    s.unpersist()


@pytest.mark.parametrize("mf", ["MF1", "MF2", "MF3", "MF4", "MF5"])
def test_moneyflow_oracle_all_configs(
    g, stores, store_vbc, store_full, cat, alpha, beta_city, mf
):
    q = mf_workload(alpha, anchor_max=10_000, beta_city=beta_city)[mf]
    hints = Catalogue.build(g, flow_sel_hints(alpha, 0.2))
    counts = {}
    for cname, store in [
        ("D", stores["D"]), ("D+VBc", store_vbc), ("full", store_full)
    ]:
        ctx = EngineContext(g, store)
        plan = Optimizer(ctx, hints).plan(q)
        df = plan.execute(ctx)
        if cname == "D":
            check_pattern(df, q, g)
        counts[cname] = df.count()
    assert len(set(counts.values())) == 1, counts


def test_mf1_uses_multi_extend_under_vbc(g, store_vbc, cat, alpha, beta_city):
    q = mf_workload(alpha, anchor_max=10_000, beta_city=beta_city)["MF1"]
    ctx = EngineContext(g, store_vbc)
    plan = Optimizer(ctx, Catalogue.build(g, flow_sel_hints(alpha, 0.2))).plan(q)
    me = [op for op in plan.ops if isinstance(op, MultiExtend)]
    assert me and me[0].key_field == "nbr_city", plan.explain()
    assert all(t.access.index.startswith("VBc") for t in me[0].targets)


def test_mf5_uses_edge_bound_chain(g, store_full, alpha, beta_city):
    q = mf_workload(alpha, anchor_max=10_000, beta_city=beta_city)["MF5"]
    ctx = EngineContext(g, store_full)
    plan = Optimizer(ctx, Catalogue.build(g, flow_sel_hints(alpha, 0.2))).plan(q)
    eb_exts = [
        op for op in plan.ops
        if isinstance(op, Extend) and op.access.index == "EBc"
    ]
    assert eb_exts, plan.explain()


def test_mf3_plan_mixes_vb_and_eb(g, store_full, alpha, beta_city):
    """The Figure-5 plan shape: a MULTI-EXTEND whose lists mix VB_c and
    EB_c accesses, intersecting on city."""
    q = mf_workload(alpha, anchor_max=10_000, beta_city=beta_city)["MF3"]
    ctx = EngineContext(g, store_full)
    plan = Optimizer(ctx, Catalogue.build(g, flow_sel_hints(alpha, 0.2))).plan(q)
    me = [op for op in plan.ops if isinstance(op, MultiExtend)]
    assert me, plan.explain()
    idxs = {t.access.index for op in me for t in op.targets}
    assert any(i.startswith("VBc") for i in idxs), plan.explain()


def test_table6_2path_query_oracle(g, stores, store_full, alpha):
    q = mf_2path(alpha)
    for store in (stores["D"], store_full):
        ctx = EngineContext(g, store)
        plan = Optimizer(
            ctx, Catalogue.build(g, flow_sel_hints(alpha, 0.2))
        ).plan(q)
        check_pattern(plan.execute(ctx), q, g, project_edges=("e1", "e2"))


def test_eb_num_entries_grows_with_alpha(g):
    lo = add_EBc(build_D(g), calibrate_alpha(g, 0.01))
    hi = add_EBc(build_D(g), calibrate_alpha(g, 0.25))
    n_lo = lo.edge_bound[0].num_entries
    n_hi = hi.edge_bound[0].num_entries
    assert n_hi > n_lo > 0
    lo.unpersist(); hi.unpersist()


def _plan_shape_faults(plan, q, engine: str) -> list[str]:
    """How ``plan`` fails to enforce each atom once: two adjacent
    FILTERs, an atom in more than one SCAN or FILTER, or (under GF) a
    vertex bound by an E/I whose label its lists do not enforce and the
    operator right after it does not filter."""
    faults, seen = [], set()
    labels = {v.name: v.vlabel for v in q.vertices}
    ops = plan.ops
    for i, op in enumerate(ops):
        if isinstance(op, Filter) and i and isinstance(ops[i - 1], Filter):
            faults.append(f"adjacent FILTERs at {i}")
        if isinstance(op, (Scan, Filter)):
            for a in op.preds:
                if canon_atom(a) in seen:
                    faults.append(f"{a} enforced twice")
                seen.add(canon_atom(a))
        label = (labels[op.to_var]
                 if isinstance(op, IntersectExtend) else None)
        if engine == "GF" and label is not None:
            by_list = any(
                ("nbr_vlabel", label) in acc.part_eq
                or ("nbr_vlabel", "=", label) in acc.array_preds
                for _, acc in op.sources
            )
            nxt = ops[i + 1] if i + 1 < len(ops) else None
            atom = Atom((op.to_var, "vlabel"), "=", label)
            if not by_list and not (
                isinstance(nxt, Filter) and atom in nxt.preds
            ):
                faults.append(f"{atom} not enforced right after its E/I")
    return faults


def test_plans_enforce_each_atom_once(
    g, stores, store_vbt, store_vbc, store_full, cat, tau, alpha, beta_city
):
    """Plan shape over every workload cell (planned, not executed): at
    most one FILTER per step, each atom enforced by one SCAN or FILTER
    (or by a list access), and an E/I-bound vertex's label enforced by
    the E/I or right after it."""
    mr = mr_workload(tau=tau)
    mf = mf_workload(alpha, anchor_max=10_000, beta_city=beta_city)
    mr_cat = Catalogue.build(g, time_sel_hints(tau))
    mf_cat = Catalogue.build(g, flow_sel_hints(alpha, 0.2))
    cells = [
        (c, "GF", stores[c], cat, q)
        for c in ("D", "Ds", "Dp") for q in SQS.values()
    ]
    cells += [("D+VBt", "GF", store_vbt, mr_cat, q) for q in mr.values()]
    cells += [("D+VBc", "GF", store_vbc, mf_cat, q) for q in mf.values()]
    cells += [("D+VBc+EBc", "GF", store_full, mf_cat, q)
              for q in (mf["MF3"], mf["MF4"], mf["MF5"], mf_2path(alpha))]
    cells += [
        (c, engine, stores[c], cat, SQS[name])
        for engine in ("GF", "TG", "N4") for c in ("D", "Dp")
        for name in ("SQ1", "SQ2", "SQ3", "SQ13")
    ]
    faults = []
    for cname, engine, store, c, q in cells:
        plan = Optimizer(EngineContext(g, store), c, engine).plan(q)
        faults += [
            f"{engine}/{cname}/{q.name}: {f}\n{plan.explain()}"
            for f in _plan_shape_faults(plan, q, engine)
        ]
    assert not faults, "\n".join(faults)
