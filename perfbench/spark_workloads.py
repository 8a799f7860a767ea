"""The query side of every workload: Spark query cells timed from
outside the engine.

A *cell* is one query under one index configuration of one generated
graph.  ``run`` builds every cell's graph and indexes (set-up), counts
each query once in DuckDB (the oracle) and warms the JVM and Spark
with one untimed run of the first cell of each configuration.  It then
runs a closed loop with one client: plan and count the next cell as
soon as the previous one returns (and the write side's stream slice
after it, see ``maint_workload.py``), in a fixed number of whole passes
over the cells in a fixed order.  The warm-up is not a whole pass,
which would double the cost of a run: so the first timed pass runs most
plans for the first time, Spark's code generation for them included, as
a user's first query does.  The work is fixed, not the time: every
run, on any machine and at any commit, takes the same number of samples
of the same mix, so ``query_tail_s`` is always the same percentile.

Latency of one query is ``Optimizer.plan`` plus ``Plan.count``.  Every
count is compared with the oracle's; a mismatch or an exception is a
failed operation.

Query mixes (``SETUPS``), on wt at tiny scale by default:

* ``money-flow`` — Tables 5–6: MF1–5 under D+VB_c; MF3–5 and the 2-path
  query under D+VB_c+EB_c (9 cells), on wt with financial properties.
* ``magicrecs`` — Table 4: MR1–3 under D+VB_t (3 cells), on wt with
  time properties.
* ``sq`` — the Table-3 grid: SQ1–SQ13 on wt_{4,2} under D, D_s and D_p
  (39 cells).
"""
from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass

import duckdb

from repro.core.index_store import IndexStore
from repro.core.vertex_bound import VertexBoundIndex
from repro.core.edge_bound import EdgeBoundIndex
from repro.engine.catalogue import Catalogue
from repro.engine.operators import EngineContext, Extend
from repro.engine.optimizer import Optimizer
from repro.engine.patterns import pattern_to_sql
from repro.engine.plans import Plan
from repro.graphs.financial import (
    calibrate_alpha,
    decorate_financial,
    decorate_time,
    time_threshold,
)
from repro.graphs.generators import dataset
from repro.storage.memory import config_mm_mb
from repro.workloads import setups
from repro.workloads.magicrecs import TIME_SELECTIVITY, mr_workload
from repro.workloads.moneyflow import ALPHA_SELECTIVITY, mf_2path, mf_workload
from repro.workloads.subgraph_queries import sq_workload

OP_KINDS = ("Scan", "Extend", "CloseExtend", "IntersectExtend",
            "MultiExtend", "Filter", "FetchProps")


@dataclass
class Cell:
    config: str
    graph_key: str
    query: object  # QueryGraph
    ctx: EngineContext
    cat: Catalogue

    @property
    def name(self) -> str:
        return f"{self.config}/{self.query.name}"


# ---------------------------------------------------------------------------
# Spark-side measurements (JVM storage info and status store)


def cached_bytes(spark) -> int:
    """Memory plus disk of every RDD Spark currently holds cached."""
    return sum(
        r.memSize() + r.diskSize()
        for r in spark.sparkContext._jsc.sc().getRDDStorageInfo()
    )


def stage_stats(spark) -> dict[int, tuple[int, int, int, int]]:
    """stage id -> (completed?, tasks, shuffle-read bytes, executor CPU
    ns), from the JVM's application status store."""
    sc = spark.sparkContext
    jvm = sc._jvm
    empty = jvm.java.util.ArrayList()
    stages = sc._jsc.sc().statusStore().stageList(
        empty, False, False, sc._gateway.new_array(jvm.double, 0), empty
    )
    out = {}
    for i in range(stages.size()):
        s = stages.apply(i)
        done = s.status().toString() == "COMPLETE"
        out[s.stageId()] = (int(done), s.numCompleteTasks(),
                            s.shuffleReadBytes(), s.executorCpuTime())
    return out


def group_stages(spark, group: str) -> list[int]:
    st = spark.sparkContext.statusTracker()
    ids: list[int] = []
    for j in st.getJobIdsForGroup(group):
        info = st.getJobInfo(j)
        if info is not None:
            ids.extend(info.stageIds)
    return ids


def spark_floor(spark, store: IndexStore, reps: int = 5) -> tuple[float, float]:
    """Median time of a count of a cached list table and of one shuffle
    join of ``D.fw.lists`` with itself: the floor under every query."""
    lists = store.default_fw.lists
    other = lists.select("pk").withColumnRenamed("pk", "pk2")
    join = lists.join(other, lists["pk"] == other["pk2"])
    floors = []
    for df in (lists, join):
        df.count()  # warm
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            df.count()
            ts.append(time.perf_counter() - t0)
        floors.append(statistics.median(ts))
    return floors[0], floors[1]


# ---------------------------------------------------------------------------
# set-up: graphs, indexes, catalogues and the memory model


class Setup:
    """What set-up produced: the cells, the graphs the oracle reads, and
    the index-memory figures."""

    def __init__(self) -> None:
        self.cells: list[Cell] = []
        self.graphs: dict = {}
        self.stores: dict[str, IndexStore] = {}
        self.cached_mb = 0.0
        self.model_mb = 0.0
        self.params: dict = {}


def setup_money_flow(spark, seed: int, scale: str, tracer) -> Setup:
    """D is built once and both configurations add their secondary
    indexes to that D."""
    out = Setup()
    with tracer.span("graphs.generate"):
        g = decorate_financial(dataset(spark, "wt", scale=scale, seed=seed),
                               seed=seed + 11).cache()
    alpha = calibrate_alpha(g, ALPHA_SELECTIVITY, seed=seed + 17)
    beta = g.vertices.groupBy("city").count().orderBy(
        "count", "city", ascending=[False, True]
    ).first()["city"]
    anchor = max(100, g.num_vertices // 4)
    out.params = {"alpha": alpha, "beta_city": beta, "mf_anchor_max": anchor}

    before = cached_bytes(spark)
    d = setups.build_D(g)
    vbc = setups.add_VBc(IndexStore(d.default_fw, d.default_bw))
    ebc = setups.add_EBc(IndexStore(d.default_fw, d.default_bw,
                                    list(vbc.vertex_bound)), alpha)
    out.cached_mb = (cached_bytes(spark) - before) / 1e6
    out.stores = {"D+VBc": vbc, "D+VBc+EBc": ebc}

    with tracer.span("engine.catalogue.build"):
        cat = Catalogue.build(g, setups.flow_sel_hints(alpha, ALPHA_SELECTIVITY))
    with tracer.span("storage.memory.model"):
        out.model_mb = sum(config_mm_mb(s) for s in out.stores.values())

    mf = mf_workload(alpha, anchor_max=anchor, beta_city=beta)
    queries = {
        "D+VBc": [mf["MF1"], mf["MF2"], mf["MF3"], mf["MF4"], mf["MF5"]],
        "D+VBc+EBc": [mf["MF3"], mf["MF4"], mf["MF5"], mf_2path(alpha)],
    }
    for c, qs in queries.items():
        ctx = EngineContext(g, out.stores[c])
        out.cells.extend(Cell(c, "g", q, ctx, cat) for q in qs)
    out.graphs = {"g": g}
    return out


def setup_magicrecs(spark, seed: int, scale: str, tracer) -> Setup:
    out = Setup()
    with tracer.span("graphs.generate"):
        g = decorate_time(dataset(spark, "wt", scale=scale, seed=seed),
                          seed=seed + 13).cache()
    tau = time_threshold(g, TIME_SELECTIVITY)
    out.params = {"tau": tau}
    before = cached_bytes(spark)
    d = setups.build_D(g)
    vbt = setups.add_VBt(IndexStore(d.default_fw, d.default_bw))
    out.cached_mb = (cached_bytes(spark) - before) / 1e6
    out.stores = {"D+VBt": vbt}
    with tracer.span("engine.catalogue.build"):
        cat = Catalogue.build(g, setups.time_sel_hints(tau))
    with tracer.span("storage.memory.model"):
        out.model_mb = config_mm_mb(vbt)
    mr = mr_workload(tau=tau)
    ctx = EngineContext(g, vbt)
    out.cells = [Cell("D+VBt", "g", mr[q], ctx, cat)
                 for q in ("MR1", "MR2", "MR3")]
    out.graphs = {"g": g}
    return out


def setup_sq(spark, seed: int, scale: str, tracer) -> Setup:
    out = Setup()
    with tracer.span("graphs.generate"):
        g = dataset(spark, "wt", scale=scale, n_vlabels=4, n_elabels=2,
                    seed=seed).cache()
    builders = {"D": setups.build_D, "Ds": setups.build_Ds,
                "Dp": setups.build_Dp}
    before = cached_bytes(spark)
    stores = {c: b(g) for c, b in builders.items()}
    out.cached_mb = (cached_bytes(spark) - before) / 1e6
    with tracer.span("engine.catalogue.build"):
        cat = Catalogue.build(g)
    with tracer.span("storage.memory.model"):
        out.model_mb = sum(config_mm_mb(s) for s in stores.values())
    qs = sq_workload(n_vlabels=4, n_elabels=2)
    for c, s in stores.items():
        ctx = EngineContext(g, s)
        out.cells.extend(Cell(c, "g", q, ctx, cat) for q in qs.values())
    out.graphs = {"g": g}
    out.stores = stores
    return out


SETUPS = {"money-flow": setup_money_flow, "magicrecs": setup_magicrecs,
          "sq": setup_sq}


def install_build_spans(spark, tracer, layer: dict) -> None:
    """Record a span and the cached bytes around each index build the
    configuration builders make (traced run only)."""
    for fn_name, name in (
        ("build_default_index", "core.default_index"),
        ("build_vertex_bound", "core.vertex_bound"),
        ("build_edge_bound", "core.edge_bound"),
    ):
        fn = getattr(setups, fn_name)

        def traced(*a, _fn=fn, _name=name, **kw):
            before = cached_bytes(spark)
            with tracer.span(_name + ".build"):
                idx = _fn(*a, **kw)
            layer[_name + ".cached_mb"] = layer.get(_name + ".cached_mb", 0.0) + (
                cached_bytes(spark) - before) / 1e6
            return idx

        setattr(setups, fn_name, traced)


# ---------------------------------------------------------------------------
# oracle


def oracle_counts(st: Setup) -> dict[tuple[str, str], int]:
    """DuckDB ``count(*)`` of every distinct (graph, query) of the run."""
    expected: dict[tuple[str, str], int] = {}
    tables = {}
    for key, g in st.graphs.items():
        tables[key] = (g.vertices.toPandas(), g.edges.toPandas())
    for cell in st.cells:
        k = (cell.graph_key, cell.query.name)
        if k in expected:
            continue
        vertices, edges = tables[cell.graph_key]
        con = duckdb.connect()
        try:
            con.register("vertices", vertices)
            con.register("edges", edges)
            expected[k] = con.execute(
                f"SELECT count(*) FROM ({pattern_to_sql(cell.query)})"
            ).fetchone()[0]
        finally:
            con.close()
    return expected


# ---------------------------------------------------------------------------
# the run


def run_cell(cell: Cell, tracer) -> tuple[Plan, int, float]:
    """The plan, its row count and the seconds ``Plan.count`` took."""
    with tracer.span("engine.optimizer.plan"):
        plan = Optimizer(cell.ctx, cell.cat).plan(cell.query)
    with tracer.span("engine.plans.execute"):
        t0 = time.perf_counter()
        n = plan.count(cell.ctx)
        return plan, n, time.perf_counter() - t0


def _index_kind(ctx: EngineContext, name: str) -> str:
    idx = ctx.store.by_name(name)
    if isinstance(idx, VertexBoundIndex):
        return "vertex_bound"
    if isinstance(idx, EdgeBoundIndex):
        return "edge_bound"
    return "default"


def prefix_profile(cell: Cell, plan: Plan, full_s: float, full_rows: int
                   ) -> list[tuple[str, float, int, str]]:
    """(kind, self seconds, rows out, index kind) per step of the plan, by
    timing ``Plan(name, ops[:k]).count`` at the end of each step and
    differencing.  A step is a run of consecutive operators of one kind
    reading one kind of index, such as the three FILTERs of a money-flow
    predicate: one prefix count per step instead of per operator halves
    the cost of profiling the long MF plans, which keeps a traced run
    well inside its time limit.  The whole plan's time and rows (k = n)
    come from its last timed run."""
    steps: list[tuple[int, str, str]] = []  # (end k, kind, index kind)
    for k, op in enumerate(plan.ops, 1):
        kind = type(op).__name__
        via = (_index_kind(cell.ctx, op.access.index)
               if isinstance(op, Extend) else "")
        if steps and steps[-1][1:] == (kind, via):
            steps[-1] = (k, kind, via)
        else:
            steps.append((k, kind, via))
    out = []
    prev = 0.0
    for k, kind, via in steps:
        if k == len(plan.ops):
            t, rows = full_s, full_rows
        else:
            t0 = time.perf_counter()
            rows = Plan(plan.name, plan.ops[:k]).count(cell.ctx)
            t = time.perf_counter() - t0
        out.append((kind, t - prev, rows, via))
        prev = t
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples
    beyond it.  That percentile lies above the median only from 21
    samples up; below that the slowest sample (p100) is taken.  The
    sample count is passes x cells, fixed per workload, so each
    workload always reports the same percentile (see README.md)."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run(spark, *, mix: str, passes: int, seed: int, scale: str, tracer,
        between, perturb_oracle: bool = False) -> dict:
    """Set up ``mix``, check and time it; after the i-th of n timed
    queries, call ``between(i, n)`` (the write side's stream slice)."""
    sc = spark.sparkContext
    layer: dict[str, float] = {}
    if tracer.enabled:
        install_build_spans(spark, tracer, layer)

    t0 = time.perf_counter()
    st = SETUPS[mix](spark, seed, scale, tracer)
    setup_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    with tracer.span("oracle.check"):
        expected = oracle_counts(st)
    oracle_s = time.perf_counter() - t0
    if perturb_oracle:
        first = next(iter(expected))
        expected[first] += 1

    attempted = failed = 0
    failures: list[str] = []
    got: dict[str, int] = {}
    plans: dict[str, Plan] = {}
    exec_s: dict[str, float] = {}  # last Plan.count time per cell

    def one(cell: Cell, group: str | None):
        nonlocal attempted, failed
        attempted += 1
        if group is not None:
            sc.setJobGroup(group, cell.name)
        t0 = time.perf_counter()
        try:
            plan, n, exec_s[cell.name] = run_cell(cell, tracer)
        except Exception:  # a failed operation; the loop goes on
            failed += 1
            failures.append(f"{cell.name}: {traceback.format_exc(limit=3)}")
            return None
        lat = time.perf_counter() - t0
        want = expected[(cell.graph_key, cell.query.name)]
        if n != want:
            failed += 1
            failures.append(f"{cell.name}: counted {n}, oracle {want}")
        got[cell.name] = n
        plans[cell.name] = plan
        return lat

    t0 = time.perf_counter()
    warmed: set[str] = set()
    for cell in st.cells:  # untimed warm-up: one cell per configuration
        if cell.config not in warmed:
            warmed.add(cell.config)
            one(cell, None)
    warm_s = time.perf_counter() - t0

    samples: list[tuple[str, float]] = []
    groups: list[str] = []
    spans_before = tracer.dump().get("per_name", {})
    query_wall = 0.0  # the queries' share of the timed loop
    n = passes * len(st.cells)
    for i in range(n):
        cell = st.cells[i % len(st.cells)]
        group = f"perfbench-q{i}" if tracer.enabled else None
        t0 = time.perf_counter()
        lat = one(cell, group)
        query_wall += time.perf_counter() - t0
        if lat is not None:
            samples.append((cell.name, lat))
            if group is not None:
                groups.append(group)
        between(i, n)
    if tracer.enabled:
        sc.setJobGroup("perfbench-after", "")

    # the same query must count the same rows under every configuration
    by_query: dict[tuple[str, str], set[int]] = {}
    for cell in st.cells:
        if cell.name in got:
            by_query.setdefault((cell.graph_key, cell.query.name),
                                set()).add(got[cell.name])
    for k, counts in by_query.items():
        attempted += 1
        if len(counts) != 1:
            failed += 1
            failures.append(f"{k}: configurations disagree {sorted(counts)}")

    lat = [s for _, s in samples] or [float("nan")]
    tail_v, tail_p = tail(lat)
    end_to_end = {
        "query_p50_s": (statistics.median(lat), "s"),
        "query_tail_s": (tail_v, "s"),
        "queries_per_s": (len(samples) / query_wall, "1/s"),
        "index_cached_mb": (st.cached_mb, "MB"),
        "index_model_mb": (st.model_mb, "MB"),
    }
    empty = sorted(c.name for c in st.cells
                   if expected[(c.graph_key, c.query.name)] == 0)
    notes = {
        "query_tail_s": f"p{tail_p:.0f} of {len(samples)} samples",
        "queries_per_s": f"{len(samples)} queries ({passes} passes over "
                         f"{len(st.cells)} cells) in {query_wall:.2f} s",
        "empty_result_cells": empty,
    }

    per_layer: dict[str, tuple[float, str]] = {}
    if tracer.enabled:
        per_layer = _per_layer(spark, st, tracer, layer, groups, samples,
                               plans, got, exec_s, spans_before)
        per_layer["engine.empty_result_cells"] = (len(empty), "count")

    cells = [
        {
            "cell": c.name,
            "config": c.config,
            "graph": c.graph_key,
            "index_set": [i.name for i in (
                c.ctx.store.default_fw, c.ctx.store.default_bw,
                *c.ctx.store.vertex_bound, *c.ctx.store.edge_bound)],
            "expected": expected[(c.graph_key, c.query.name)],
            "counted": got.get(c.name),
            "plan": plans[c.name].explain() if c.name in plans else None,
        }
        for c in st.cells
    ]
    graphs = {k: {"n_vertices": g.num_vertices, "n_edges": g.num_edges,
                  "meta": g.meta} for k, g in st.graphs.items()}
    return {
        "setup_s": setup_s,
        "oracle_s": oracle_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "notes": notes,
        "context": {"scale": scale, "graphs": graphs, "params": st.params,
                    "warm_up_s": warm_s, "query_wall_s": query_wall},
        "cells": cells,
        "samples": samples,
    }


def _per_layer(spark, st: Setup, tracer, layer, groups, samples, plans,
               got, exec_s, spans_before) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    stats = stage_stats(spark)
    n_q = max(1, len(groups))
    tot = [0, 0, 0, 0]
    for g in groups:
        for sid in group_stages(spark, g):
            for k, v in enumerate(stats.get(sid, (0, 0, 0, 0))):
                tot[k] += v
    out["spark.stages_per_query"] = (tot[0] / n_q, "count")
    out["spark.tasks_per_query"] = (tot[1] / n_q, "count")
    out["spark.shuffle_read_mb_per_query"] = (tot[2] / 1e6 / n_q, "MB")
    out["spark.executor_cpu_s_per_query"] = (tot[3] / 1e9 / n_q, "s")

    floor_count, floor_join = spark_floor(
        spark, next(iter(st.stores.values())))
    out["spark.floor_count_s"] = (floor_count, "s")
    out["spark.floor_join_s"] = (floor_join, "s")

    per = tracer.dump()["per_name"]

    def total(name):
        return per.get(name, {}).get("total_s", 0.0)

    for lay in ("core.default_index", "core.vertex_bound", "core.edge_bound"):
        if lay + ".build" in per:
            out[lay + ".build_s"] = (total(lay + ".build"), "s")
            out[lay + ".cached_mb"] = (layer.get(lay + ".cached_mb", 0.0), "MB")
    vbs = {id(v): v for s in st.stores.values() for v in s.vertex_bound}
    ebs = {id(e): e for s in st.stores.values() for e in s.edge_bound}
    if vbs:
        out["core.vertex_bound.entries"] = (
            sum(v.num_entries for v in vbs.values()), "count")
    if ebs:
        out["core.edge_bound.entries"] = (
            sum(e.num_entries for e in ebs.values()), "count")
    out["engine.catalogue.build_s"] = (total("engine.catalogue.build"), "s")
    out["storage.memory.model_s"] = (total("storage.memory.model"), "s")

    # mean per query of the timed passes (the warm-up is subtracted)
    for span, metric in (("engine.optimizer.plan", "engine.optimizer.plan_s"),
                         ("engine.plans.execute", "engine.plans.execute_s")):
        if span in per:
            b = spans_before.get(span, {"total_s": 0.0, "calls": 0})
            out[metric] = ((per[span]["total_s"] - b["total_s"])
                           / max(1, per[span]["calls"] - b["calls"]), "s")

    # operator kinds executed in the measured phase
    counts = dict.fromkeys(OP_KINDS, 0)
    for name, _ in samples:
        for op in plans[name].ops:
            counts[type(op).__name__] = counts.get(type(op).__name__, 0) + 1
    # self time and rows out per operator kind, one profile per cell
    self_s = dict.fromkeys(OP_KINDS, 0.0)
    rows = dict.fromkeys(OP_KINDS, 0)
    via = {"default": 0.0, "vertex_bound": 0.0, "edge_bound": 0.0}
    with tracer.span("engine.op.profile"):
        for cell in st.cells:
            if cell.name not in plans:
                continue
            for kind, s, r, v in prefix_profile(
                    cell, plans[cell.name], exec_s[cell.name], got[cell.name]):
                self_s[kind] = self_s.get(kind, 0.0) + s
                rows[kind] = rows.get(kind, 0) + r
                if v:
                    via[v] += s
    for kind in OP_KINDS:
        out[f"engine.op.{kind}.count"] = (counts[kind], "count")
        out[f"engine.op.{kind}.self_s"] = (self_s[kind], "s")
        out[f"engine.op.{kind}.rows_out"] = (rows[kind], "count")
    if ebs or vbs:
        for v, s in via.items():
            out[f"engine.op.Extend.by_index.{v}"] = (s, "s")
    return out
