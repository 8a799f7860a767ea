"""Default A+ indexes (Section 2.1) as materialized Spark DataFrames.

A default index (one per direction) caches one table, ``lists`` — the
nested-CSR analog: one row per ``(pk, partition-col values)`` holding
the sorted most-granular list as an array of structs.  Partition-column
equality predicates become *lookup keys* here (constant-time
granular-list access); sort columns order the array
(binary-search-style access via array pruning).

Two derived plans are kept beside it, uncached; only secondary-index
builds read them:

* ``flat`` — one row per adjacent edge: ``pk`` (the partitioning
  vertex), ``nbr``, ``eid``, all edge properties, neighbour vertex
  properties (``nbr_*``), own vertex properties (``self_*``), and
  ``pos`` — the edge's offset within its vertex's full neighbourhood in
  canonical CSR order.  ``pos`` is what secondary indexes' offset lists
  point at (Section 3).
* ``vertex_lists`` — one row per vertex with the full neighbourhood
  array in ``pos`` order (the contiguous CSR neighbourhood that offset
  lists index into), merged from the vertex's cached ``lists`` rows;
  secondary-index builds store it as each list's ``ref``.

Canonical order within a vertex is ``(partition cols, sort cols, eid)``
ascending, nulls first (Spark struct comparison places nulls first;
the paper places null partitions last — an ordering convention only,
documented in DESIGN.md).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.core.config import V_NBR, V_SHARED, IndexConfig, role_col
from repro.core.probes import ListAccess, ListIndex, entry_cond
from repro.graphs.schema import PropertyGraph


def _flat_edges(graph: PropertyGraph, direction: str) -> DataFrame:
    """Per-edge rows with pk/nbr endpoints and both vertices' props."""
    e = graph.edges
    pk, nbr = ("src", "dst") if direction == "fw" else ("dst", "src")
    edge_props = graph.edge_props
    flat = e.select(
        F.col(pk).alias("pk"), F.col(nbr).alias("nbr"), "eid", *edge_props
    )
    vprops = graph.vertex_props
    nbr_v = graph.vertices.select(
        F.col("vid").alias("__nv"),
        *[F.col(p).alias(role_col(V_NBR, p)) for p in vprops],
    )
    self_v = graph.vertices.select(
        F.col("vid").alias("__sv"),
        *[F.col(p).alias(role_col(V_SHARED, p)) for p in vprops],
    )
    flat = flat.join(nbr_v, flat["nbr"] == nbr_v["__nv"], "left").drop("__nv")
    flat = flat.join(self_v, flat["pk"] == self_v["__sv"], "left").drop("__sv")
    return flat


def canonical_order_cols(config: IndexConfig) -> list[str]:
    """The columns defining a vertex's CSR neighbourhood order."""
    return list(dict.fromkeys([*config.partition_cols, *config.sort_cols, "eid"]))


@dataclass
class DefaultIndex(ListIndex):
    """One direction of the system's default A+ index."""

    name: str
    graph: PropertyGraph
    config: IndexConfig
    flat: DataFrame = field(repr=False)
    lists: DataFrame = field(repr=False)
    struct_fields: tuple[str, ...] = ()

    @property
    def direction(self) -> str:
        return self.config.direction

    def _entries(self, access: ListAccess) -> tuple[Column, Column]:
        if not access.array_preds:
            # build-time nbr_ids: no per-element lambda on the hot
            # intersection path
            return F.col("lst"), F.col("nbr_ids")
        lst = F.filter(
            F.col("lst"), lambda s: entry_cond(lambda f: s[f], access.array_preds)
        )
        return lst, F.transform(lst, lambda s: s["nbr"])

    @cached_property
    def vertex_lists(self) -> DataFrame:
        """Each vertex's granular lists merged into one array; sorting
        the entries restores the canonical order that ``pos`` counts."""
        return self.lists.groupBy("pk").agg(
            F.sort_array(F.flatten(F.collect_list("lst"))).alias("lst")
        )

    @cached_property
    def memory_bytes(self) -> int:
        """Structural size per the storage model (for Mm columns)."""
        from repro.storage.memory import default_index_bytes

        return default_index_bytes(self)


def build_default_index(
    graph: PropertyGraph, config: IndexConfig, *, name: str | None = None
) -> DefaultIndex:
    """Build and materialize one default A+ index."""
    name = name or f"D.{config.direction}"
    edges = _flat_edges(graph, config.direction)
    order_cols = canonical_order_cols(config)
    missing = [c for c in order_cols if c not in edges.columns]
    if missing:
        raise ValueError(
            f"index {name!r}: partition/sort columns {missing} not in graph "
            f"(have {sorted(edges.columns)})"
        )

    # ID lists carry exactly what the paper's lists carry: the edge and
    # neighbour ids plus the partition/sort key values.  Any *other*
    # property read costs a property-store join at query time
    # (operators._fetch_missing_props) — the cost asymmetry that makes
    # partitioning/sorting on a property worth it (Sections 1–2).
    struct_fields = tuple(
        dict.fromkeys(
            [*config.partition_cols, *config.sort_cols, "eid", "nbr"]
        )
    )
    entry = F.struct(*[F.col(c) for c in struct_fields])
    lists = (
        edges.groupBy("pk", *config.partition_cols)
        .agg(F.sort_array(F.collect_list(entry)).alias("lst"))
        # plain neighbour-id arrays, materialized once at build time so
        # WCO intersections read them without per-element lambdas
        .withColumn("nbr_ids", F.expr("transform(lst, s -> s.nbr)"))
        .persist()
    )
    # Materialize now so benchmarks time queries, not index builds.
    lists.count()

    w = Window.partitionBy("pk").orderBy(
        *[F.col(c).asc_nulls_first() for c in order_cols]
    )
    return DefaultIndex(
        name=name,
        graph=graph,
        config=config,
        flat=edges.withColumn("pos", F.row_number().over(w) - F.lit(1)),
        lists=lists,
        struct_fields=struct_fields,
    )
