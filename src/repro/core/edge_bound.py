"""Secondary edge-bound A+ indexes (Section 2.2.2) with offset lists.

An edge-bound index materializes a ``TwoPathView`` — a selection over
2-paths with at least one cross-edge predicate — partitioned primarily
by the **bound edge's id**.  For each bound edge the list stores the
qualifying adjacent edges of the anchor vertex (the bound edge's source
or destination, per the view's orientation) as offsets into that
vertex's default ID list, exactly as Section 3 prescribes:
"an edge-bound list for e=(v_s, v_d) is a subset of either v_s's or
v_d's default ID list".

The index caches one table, ``lists``.  Its rows carry ``bid`` (bound
edge id), ``anchor`` (the vertex whose default list the offsets point
into — the paper stores this page association for maintenance,
Section 4.3), the index's own partition columns, the offset array, the
aligned sort-key array ``skeys`` and the pre-joined ``ref`` ID-list
array.  Reads gather through the offsets at query time, as for
vertex-bound lists (``repro.core.probes``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.config import E_B, Atom, IndexConfig, role_col
from repro.core.default_index import DefaultIndex
from repro.core.probes import OffsetListIndex, build_offset_lists
from repro.core.views import TwoPathView


@dataclass
class EdgeBoundIndex(OffsetListIndex):
    """A secondary edge-bound A+ index."""

    _key = "bid"

    name: str
    view: TwoPathView
    config: IndexConfig
    base: DefaultIndex  # default index of the *adjacent* edges' direction
    lists: DataFrame = field(repr=False)  # bid, anchor, part…, offsets, ref

    @property
    def orientation(self):
        return self.view.orientation

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The view's predicates, which 2-path views write in role form."""
        return self.view.predicates

    @cached_property
    def memory_bytes(self) -> int:
        from repro.storage.memory import offset_index_bytes

        return offset_index_bytes(
            self.lists,
            n_layer_keys=len(self.config.partition_cols),
            per_list_key_bytes=8,  # bound-edge id keys the list (Section 4.3)
        )


def build_edge_bound(
    base: DefaultIndex,
    view: TwoPathView,
    config: IndexConfig,
    *,
    name: str | None = None,
) -> EdgeBoundIndex:
    """Materialize an edge-bound index.

    ``base`` must be the default index of the orientation's adjacent
    direction (fw/bw), because the offsets point into its ID lists.
    """
    o = view.orientation
    if base.direction != o.adj_dir:
        raise ValueError(
            f"edge-bound view {view.name!r} ({o.name}) needs the "
            f"{o.adj_dir} default index, got {base.direction}"
        )
    if config.direction != o.adj_dir:
        raise ValueError(
            "edge-bound config.direction must equal the orientation's "
            f"adjacent direction {o.adj_dir!r}"
        )
    name = name or f"EB.{view.name}"

    graph = base.graph
    eprops = graph.edge_props
    bound = graph.edges.select(
        F.col("eid").alias(role_col(E_B, "vid")),
        F.col(o.anchor).alias("anchor"),
        *[F.col(p).alias(role_col(E_B, p)) for p in eprops],
    )
    flat = base.flat
    joined = bound.join(flat, bound["anchor"] == flat["pk"], "inner")
    # Exclude the bound edge itself from its own neighbourhood: a 2-path
    # is two distinct edges (relevant for reciprocal edges in bw lists).
    joined = joined.where(F.col("bid") != F.col("eid"))
    for atom in view.predicates:
        joined = joined.where(atom.to_spark(lambda r: F.col(role_col(*r))))
    lists = build_offset_lists(
        name, base, config, joined, ("bid", "anchor"), "anchor"
    )
    return EdgeBoundIndex(
        name=name, view=view, config=config, base=base, lists=lists
    )
