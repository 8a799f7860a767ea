"""Memory model (Mm columns): identities against the byte widths of
Sections 3–4.3 and the paper's headline ratios on analog data."""
import pytest
from pyspark.sql import functions as F

from repro.core.config import EDGE, NBR, IndexConfig, graphflow_default
from repro.core.default_index import build_default_index
from repro.core.edge_bound import build_edge_bound
from repro.core.index_store import IndexStore
from repro.core.vertex_bound import build_vertex_bound
from repro.core.views import DST_FW, EdgeView, TwoPathView
from repro.core.config import Atom
from repro.graphs.example import example_graph
from repro.graphs.financial import decorate_financial
from repro.graphs.generators import dataset
from repro.storage.memory import (
    config_mm_mb,
    default_index_bytes,
    offset_index_bytes,
    store_bytes,
)


@pytest.fixture(scope="module")
def g(spark):
    return decorate_financial(dataset(spark, "brk", scale="tiny")).cache()


@pytest.fixture(scope="module")
def fw(g):
    return build_default_index(g, graphflow_default("fw"))


@pytest.fixture(scope="module")
def bw(g):
    return build_default_index(g, graphflow_default("bw"))


def test_default_bytes_identity(g, fw):
    """12 B per edge + 4 B per vertex offset + 5 B per layer cell."""
    e, v = g.num_edges, g.num_vertices
    groups = fw.flat.select("pk", "elabel").distinct().count()
    assert default_index_bytes(fw) == 12 * e + 4 * (v + 1) + 5 * groups


#: D, D_s and D_p of Table 3, plus D partitioned again by the
#: neighbour's account type
FIG1_CONFIGS = {
    "D": graphflow_default,
    "Ds": lambda d: IndexConfig(d, partition_by=((EDGE, "elabel"),),
                                sort_by=((NBR, "vlabel"), (NBR, "vid"))),
    "Dp": lambda d: IndexConfig(d, partition_by=((EDGE, "elabel"),
                                                 (NBR, "vlabel")),
                                sort_by=((NBR, "vid"),)),
    "Dp_acc": lambda d: IndexConfig(d, partition_by=((EDGE, "elabel"),
                                                     (NBR, "acc")),
                                    sort_by=((NBR, "vid"),)),
}


@pytest.mark.parametrize(
    "config,direction,want",
    [
        # 21 edges x 12 B, 9 vertex offsets x 4 B, then 5 B per layer
        # cell.  Forward (src, elabel) groups per vertex 1..8:
        # 1+2+2+1+2+2+1+1 = 12
        ("D", "fw", 12 * 21 + 4 * 9 + 5 * 12),
        # backward (dst, elabel) groups per vertex 1..8:
        # 3+3+2+2+1+2+0+0 = 13 (Owns ends at 1 and 2)
        ("D", "bw", 12 * 21 + 4 * 9 + 5 * 13),
        # sorting differently costs nothing
        ("Ds", "fw", 12 * 21 + 4 * 9 + 5 * 12),
        ("Ds", "bw", 12 * 21 + 4 * 9 + 5 * 13),
        # each (vertex, elabel) list's neighbours share one vertex label
        # (transfers join accounts; Owns joins a customer to an
        # account), so the second layer repeats the first
        ("Dp", "fw", 12 * 21 + 4 * 9 + 5 * 12 + 5 * 12),
        ("Dp", "bw", 12 * 21 + 4 * 9 + 5 * 13 + 5 * 13),
        # (src, elabel, nbr acc) groups per vertex 1..8:
        # 2+2+3+2+4+2+1+1 = 17
        ("Dp_acc", "fw", 12 * 21 + 4 * 9 + 5 * 12 + 5 * 17),
    ],
)
def test_default_bytes_counted_by_hand(spark, config, direction, want):
    """Bytes of the Figure-1 graph's default indexes, counted by hand
    from its edge list (``repro.graphs.example``)."""
    idx = build_default_index(example_graph(spark),
                              FIG1_CONFIGS[config](direction))
    assert default_index_bytes(idx) == want
    idx.unpersist()


def test_reconfigured_sort_costs_nothing(g, fw):
    """D_s: changing only the sort criteria has zero memory cost."""
    ds = build_default_index(
        g,
        IndexConfig("fw", partition_by=((EDGE, "elabel"),),
                    sort_by=((NBR, "city"),)),
    )
    assert default_index_bytes(ds) == default_index_bytes(fw)
    ds.unpersist()


def test_added_partition_layer_is_minor(g, fw):
    """D_p: one extra layer costs a few percent (paper: 1.05–1.15x)."""
    dp = build_default_index(
        g,
        IndexConfig("fw", partition_by=((EDGE, "elabel"), (NBR, "acc")),
                    sort_by=((NBR, "vid"),)),
    )
    ratio = default_index_bytes(dp) / default_index_bytes(fw)
    assert 1.0 < ratio < 1.25
    dp.unpersist()


@pytest.fixture(scope="module")
def vb(fw):
    return build_vertex_bound(
        fw, EdgeView("all"),
        IndexConfig("fw", partition_by=((EDGE, "elabel"),),
                    sort_by=((EDGE, "date"),)),
    )


def test_vb_overhead_matches_paper_regime(g, fw, bw, vb):
    """A forward-only no-predicate VB index over D(fw+bw) costs ~1.08x
    total (Table 4's Mm column: 1.07–1.08x)."""
    d_total = default_index_bytes(fw) + default_index_bytes(bw)
    overhead = vb.memory_bytes / d_total
    assert 0.03 < overhead < 0.15


def test_vb_offsets_far_cheaper_than_copied_ids(vb):
    """Section 3: offsets cost far less than copying each indexed
    entry's 12-byte (edge id, neighbour id) pair."""
    assert vb.memory_bytes < 0.25 * 12 * vb.num_entries


def test_offset_bytes_formula(spark, vb):
    rows = vb.lists.select(
        F.size("offsets").alias("n"),
        F.coalesce(F.array_max("offsets"), F.lit(0)).alias("mx"),
    ).collect()
    want = 0
    for r in rows:
        width = 1 if r["mx"] < 256 else (2 if r["mx"] < 65536 else 4)
        want += 1 + r["n"] * width
    assert offset_index_bytes(vb.lists, n_layer_keys=0) == want


@pytest.mark.parametrize(
    "offsets,want",
    [([], 1), ([0], 1 + 1), ([3, 255], 1 + 2 * 1), ([256], 1 + 2),
     ([65535, 7], 1 + 2 * 2), ([65536], 1 + 4), ([2**32 - 1, 0], 1 + 2 * 4)],
    ids=["empty", "0-1", "255-1", "256-2", "65535-2", "65536-4",
         "4294967295-4"],
)
def test_offset_width_boundaries(spark, offsets, want):
    """Every offset of a list is stored at the width of its largest one
    (1, 2 or 4 B) behind a 1-byte header; an empty list is the header
    alone (Section 4.3)."""
    lists = spark.createDataFrame([(offsets,)], "offsets array<bigint>")
    assert offset_index_bytes(lists) == want


def test_eb_overhead_larger_but_bounded(g, fw, bw):
    eb = build_edge_bound(
        fw,
        TwoPathView(
            "mf", DST_FW,
            (Atom(("e_b", "date"), "<", ("e_adj", "date")),
             Atom(("e_adj", "amt"), "<", ("e_b", "amt"))),
        ),
        IndexConfig("fw", sort_by=((NBR, "city"),)),
    )
    d_total = default_index_bytes(fw) + default_index_bytes(bw)
    ratio = (d_total + eb.memory_bytes) / d_total
    # Table 5 regime: EB roughly doubles memory when it indexes ~4x the
    # edges; our no-label analog indexes ~25% of 2-paths
    assert 1.05 < ratio < 4.0
    eb.unpersist()


def test_store_bytes_and_mm(g, fw, bw, vb):
    store = IndexStore(fw, bw)
    store.add(vb)
    per = store_bytes(store)
    assert set(per) == {"D.fw", "D.bw", vb.name}
    assert config_mm_mb(store) == pytest.approx(sum(per.values()) / 1e6)
