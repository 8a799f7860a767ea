"""Secondary vertex-bound A+ indexes (Section 2.2.1) with offset lists.

A vertex-bound index materializes a global ``EdgeView`` (arbitrary
selection over edges), partitioned primarily by vertex id with its own
secondary partitioning and sorting.  Per Section 3, every list is a
subset of the vertex's default-index neighbourhood, so only *offsets*
(positions ``pos`` in the default CSR order) are stored.

The index caches one table, ``lists``.  Its rows carry the offset
array, the aligned sort-key array ``skeys`` and a reference to the
vertex's full default ID-list array (``ref``), pre-joined at build
time — the analog of the offset-list page pointing at the vertex's
ID-list page.  Every read resolves entries through the offsets
(``gather``) at *query* time, so the per-read indirection cost of
Section 3 is paid by every query, as in the paper; a range predicate
on the sort keys selects positions before that gather
(``repro.core.probes``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.config import Atom, IndexConfig, edge_roles, role_col
from repro.core.default_index import DefaultIndex
from repro.core.probes import OffsetListIndex, build_offset_lists
from repro.core.views import EdgeView


def _role_atoms(view: EdgeView, direction: str) -> tuple[Atom, ...]:
    roles = edge_roles(direction)
    return tuple(a.rename(roles) for a in view.predicates)


@dataclass
class VertexBoundIndex(OffsetListIndex):
    """One direction of a secondary vertex-bound A+ index."""

    name: str
    view: EdgeView
    config: IndexConfig
    base: DefaultIndex
    lists: DataFrame = field(repr=False)  # pk, part cols…, offsets, ref

    @property
    def direction(self) -> str:
        return self.config.direction

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The view's predicates in role form (``v_s``/``v_d`` become
        ``v_shared``/``v_nbr`` by the index's direction)."""
        return _role_atoms(self.view, self.direction)

    @property
    def shares_layers(self) -> bool:
        """True when the Section-3 shared-layer storage applies: no view
        predicate and same secondary partitioning as the default index."""
        return (
            not self.view.predicates
            and self.config.partition_by == self.base.config.partition_by
        )

    @cached_property
    def memory_bytes(self) -> int:
        from repro.storage.memory import offset_index_bytes

        return offset_index_bytes(self.lists, n_layer_keys=0 if self.shares_layers
                                  else len(self.config.partition_cols))


def build_vertex_bound(
    base: DefaultIndex,
    view: EdgeView,
    config: IndexConfig,
    *,
    name: str | None = None,
) -> VertexBoundIndex:
    """Materialize a vertex-bound index over ``base``'s direction."""
    if config.direction != base.direction:
        raise ValueError(
            f"vertex-bound config direction {config.direction} must match "
            f"base index direction {base.direction}"
        )
    name = name or f"VB.{view.name}.{config.direction}"
    flat = base.flat
    for atom in _role_atoms(view, base.direction):
        flat = flat.where(atom.to_spark(lambda r: F.col(role_col(*r))))
    lists = build_offset_lists(name, base, config, flat, ("pk",), "pk")
    return VertexBoundIndex(
        name=name, view=view, config=config, base=base, lists=lists
    )
