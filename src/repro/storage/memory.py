"""Byte-level memory accounting for every A+ index type (the ``Mm``
columns of Tables 3–6).

Entry widths follow Sections 3–4.3: ID lists cost 8 B (edge id) + 4 B
(neighbour id) per entry; every CSR layer cell costs 4 B (offset) + 1 B
(group key); top-level vertex offsets cost 4 B each; offset lists are
var-byte encoded with a 1-byte header per list; edge-bound lists are
keyed by an 8-byte bound-edge id on their vertex page (Section 4.3).

The paper's Mm numbers are JVM heap sizes of the index structures; our
model is the structural size of the same layouts, so *ratios* between
configurations are comparable (DESIGN.md §4).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

ID_ENTRY_BYTES = 12  # 8-byte edge id + 4-byte neighbour id
LAYER_CELL_BYTES = 5  # 4-byte offset + 1-byte group key
VERTEX_OFFSET_BYTES = 4


def default_index_bytes(index) -> int:
    """Structural bytes of one direction of a default A+ index.

    Counted from the cached ``lists``: each row is one most-granular
    list, that is one distinct ``(pk, partition values)``, so the
    distinct prefixes of its keys are the layer groups."""
    lists = index.lists
    n_edges = lists.select(F.sum(F.size("lst")).alias("n")).collect()[0]["n"]
    n_vertices = index.graph.num_vertices
    total = (ID_ENTRY_BYTES * (n_edges or 0)
             + VERTEX_OFFSET_BYTES * (n_vertices + 1))
    part_cols = list(index.config.partition_cols)
    for i in range(1, len(part_cols) + 1):
        groups = lists.select("pk", *part_cols[:i]).distinct().count()
        total += LAYER_CELL_BYTES * groups
    return total


def _offset_width_col(maxoff):
    return (
        F.when(maxoff < 256, 1).when(maxoff < 65536, 2).otherwise(4)
    )


def offset_index_bytes(
    lists: DataFrame,
    *,
    n_layer_keys: int = 0,
    per_list_key_bytes: int = 0,
) -> int:
    """Structural bytes of a secondary index stored as offset lists.

    ``n_layer_keys`` — secondary-partitioning layers this index stores
    itself (0 when the Section-3 shared-layer storage applies);
    ``per_list_key_bytes`` — per-list key overhead (8 B bound-edge ids
    for edge-bound indexes).
    """
    agg = lists.select(
        F.size("offsets").alias("n"),
        F.coalesce(F.array_max("offsets"), F.lit(0)).alias("mx"),
    ).select(
        (
            F.lit(1)  # width header
            + F.col("n") * _offset_width_col(F.col("mx"))
            + F.lit(n_layer_keys * LAYER_CELL_BYTES)
            + F.lit(per_list_key_bytes)
        ).alias("b")
    ).agg(F.sum("b").alias("total")).collect()[0]
    return int(agg["total"] or 0)


def store_bytes(store) -> dict[str, int]:
    """Per-index structural bytes for every index in an INDEX STORE."""
    out: dict[str, int] = {}
    for idx in (store.default_fw, store.default_bw):
        if idx is not None:
            out[idx.name] = default_index_bytes(idx)
    for vb in store.vertex_bound:
        out[vb.name] = vb.memory_bytes
    for eb in store.edge_bound:
        out[eb.name] = eb.memory_bytes
    return out


def config_mm_mb(store) -> float:
    """Total Mm of an index configuration, in MB (10^6 bytes)."""
    return sum(store_bytes(store).values()) / 1e6
