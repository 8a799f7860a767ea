"""Secondary edge-bound A+ indexes: the four orientations, the
cross-edge-predicate (redundancy) rule, offset correctness, and the
paper's Example-8 MoneyFlow behaviour on the running example."""
import pytest
from pyspark.sql import functions as F

from repro.core.config import EDGE, NBR, Atom, IndexConfig, graphflow_default
from repro.core.default_index import build_default_index
from repro.core.edge_bound import build_edge_bound
from repro.core.probes import gather
from repro.core.views import (
    DST_BW,
    DST_FW,
    SRC_BW,
    SRC_FW,
    RedundantViewError,
    TwoPathView,
)
from repro.graphs.example import example_graph

MONEYFLOW_PREDS = (
    Atom(("e_b", "date"), "<", ("e_adj", "date")),
    Atom(("e_adj", "amt"), "<", ("e_b", "amt")),
)


@pytest.fixture(scope="module")
def g(spark):
    return example_graph(spark).cache()


@pytest.fixture(scope="module")
def fw(g):
    return build_default_index(g, graphflow_default("fw"))


@pytest.fixture(scope="module")
def bw(g):
    return build_default_index(g, graphflow_default("bw"))


@pytest.fixture(scope="module")
def moneyflow(fw):
    """Example 8's MoneyFlow 2-path view (DST-FW)."""
    view = TwoPathView("moneyflow", DST_FW, MONEYFLOW_PREDS)
    return build_edge_bound(
        fw,
        view,
        IndexConfig(direction="fw", partition_by=((EDGE, "elabel"),),
                    sort_by=((NBR, "city"),)),
    )


def _resolved(eb, bid):
    rows = eb.lists.where(F.col("bid") == bid).select(
        gather(F.col("ref"), F.col("offsets")).alias("entries")
    ).collect()
    return sorted(s["eid"] for r in rows for s in r["entries"])


def test_example8_t13_list_is_exactly_t19(moneyflow):
    assert _resolved(moneyflow, 13) == [19]


def test_t17_in_lists_of_t1_and_t16(moneyflow):
    assert 17 in _resolved(moneyflow, 1)
    assert 17 in _resolved(moneyflow, 16)


def test_lists_match_bruteforce_2path_join(g, moneyflow):
    edges = g.edges.toPandas()
    by_eid = {r.eid: r for r in edges.itertuples()}
    want: dict[int, list[int]] = {}
    for b in edges.itertuples():
        for a in edges.itertuples():
            if a.eid == b.eid or a.src != b.dst:
                continue
            if (
                b.date is not None and a.date is not None
                and b.date < a.date and a.amt < b.amt
            ):
                want.setdefault(b.eid, []).append(a.eid)
    got = {
        r["bid"]: sorted(s["eid"] for s in r["entries"])
        for r in moneyflow.lists.select(
            "bid", gather(F.col("ref"), F.col("offsets")).alias("entries")
        ).collect()
    }
    # merge multi-partition lists per bid
    merged: dict[int, list[int]] = {}
    for r in moneyflow.lists.select(
        "bid", gather(F.col("ref"), F.col("offsets")).alias("entries")
    ).collect():
        merged.setdefault(r["bid"], []).extend(s["eid"] for s in r["entries"])
    merged = {k: sorted(v) for k, v in merged.items()}
    assert merged == {k: sorted(v) for k, v in want.items()}
    assert by_eid  # silence linters


def test_anchor_is_dst_for_dst_fw(g, moneyflow):
    e = {r["eid"]: r["dst"] for r in g.edges.collect()}
    for r in moneyflow.lists.select("bid", "anchor").collect():
        assert r["anchor"] == e[r["bid"]]


@pytest.mark.parametrize(
    "orientation,base_dir",
    [(DST_FW, "fw"), (DST_BW, "bw"), (SRC_FW, "bw"), (SRC_BW, "fw")],
)
def test_orientation_semantics(g, fw, bw, orientation, base_dir):
    """Each orientation stores exactly its 2-path pattern."""
    base = fw if base_dir == "fw" else bw
    view = TwoPathView(f"mf_{orientation.name}", orientation, MONEYFLOW_PREDS)
    eb = build_edge_bound(base, view, IndexConfig(direction=base_dir))
    edges = g.edges.toPandas()
    anchor_col = "dst" if orientation.anchor == "dst" else "src"
    adj_col = "src" if orientation.adj_dir == "fw" else "dst"
    want = set()
    for b in edges.itertuples():
        for a in edges.itertuples():
            if a.eid == b.eid:
                continue
            if getattr(a, adj_col) != getattr(b, anchor_col):
                continue
            if (
                b.date is not None and a.date is not None
                and b.date < a.date and a.amt < b.amt
            ):
                want.add((b.eid, a.eid))
    got = {
        (r["bid"], s["eid"])
        for r in eb.lists.select(
            "bid", gather(F.col("ref"), F.col("offsets")).alias("entries")
        ).collect()
        for s in r["entries"]
    }
    assert got == want
    eb.unpersist()


def test_redundant_view_rejected():
    with pytest.raises(RedundantViewError):
        TwoPathView(
            "redundant", DST_FW, (Atom(("e_adj", "amt"), "<", 10000),)
        )


def test_wrong_base_direction_raises(bw):
    view = TwoPathView("mf", DST_FW, MONEYFLOW_PREDS)
    with pytest.raises(ValueError, match="needs the fw default index"):
        build_edge_bound(bw, view, IndexConfig(direction="fw"))


def test_num_entries_counts_2paths(moneyflow):
    total = moneyflow.lists.select(
        F.sum(F.size("offsets")).alias("n")
    ).collect()[0]["n"]
    assert moneyflow.num_entries == total > 0


def test_sorted_by_nbr_city(moneyflow):
    for r in moneyflow.lists.select("skeys", "offsets").collect():
        cities = [s["nbr_city"] for s in r["skeys"]]
        assert cities == sorted(cities)
        assert len(r["skeys"]) == len(r["offsets"])
