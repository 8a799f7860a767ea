"""Property-graph container and column contract.

The whole reproduction works over two DataFrames:

* ``vertices``: one row per vertex — ``vid`` (long), ``vlabel`` (string),
  plus arbitrary property columns (``name``, ``city``, ``acc``, ...).
* ``edges``: one row per directed edge — ``eid`` (long), ``src`` (long),
  ``dst`` (long), ``elabel`` (string), plus arbitrary property columns
  (``amt``, ``currency``, ``date``, ``time``, ...).

Graphs are *simple* per the generators' contract: at most one edge per
``(src, dst)`` pair. This matches the SNAP datasets the paper uses and
keeps intersection-based join multiplicities identical to relational
join multiplicities (see DESIGN.md §6).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

VERTEX_KEY_COLS = ("vid", "vlabel")
EDGE_KEY_COLS = ("eid", "src", "dst", "elabel")


@dataclass
class PropertyGraph:
    """A property graph as a pair of Spark DataFrames.

    ``name`` identifies the dataset in job/benchmark output.  The
    DataFrames are treated as immutable; index builders derive cached
    artifacts from them.
    """

    name: str
    vertices: DataFrame
    edges: DataFrame
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        vcols, ecols = set(self.vertices.columns), set(self.edges.columns)
        missing_v = set(VERTEX_KEY_COLS) - vcols
        missing_e = set(EDGE_KEY_COLS) - ecols
        if missing_v or missing_e:
            raise ValueError(
                f"graph '{self.name}' missing required columns: "
                f"vertices {sorted(missing_v)}, edges {sorted(missing_e)}"
            )

    @property
    def vertex_props(self) -> list[str]:
        """Vertex property columns (everything except ``vid``)."""
        return [c for c in self.vertices.columns if c != "vid"]

    @property
    def edge_props(self) -> list[str]:
        """Edge property columns (everything except ids/endpoints)."""
        return [c for c in self.edges.columns if c not in ("eid", "src", "dst")]

    def bind_vertices(
        self, var: str, props: tuple[str, ...], *, probe: bool = False
    ) -> DataFrame:
        """The vertex table as the match columns of vertex variable
        ``var``: ``vid`` as ``var``, each of ``props`` as
        ``var__<prop>``.  With ``probe`` it is marked as a broadcast
        hash-join build side (a property-store read)."""
        return self._bind(self.vertices, "vid", var, var, props, probe)

    def bind_edges(self, var: str, props: tuple[str, ...]) -> DataFrame:
        """The edge table as a broadcast probe side for edge variable
        ``var``: ``eid`` as ``var__eid``, each of ``props`` as
        ``var__<prop>``."""
        return self._bind(self.edges, "eid", f"{var}__eid", var, props, True)

    def _bind(self, table: DataFrame, id_col: str, key: str, var: str,
              props: tuple[str, ...], probe: bool) -> DataFrame:
        """Built once per (table, var, props, probe) and reused by every
        plan, so a plan build does not re-derive the projection."""
        bound = self.__dict__.setdefault("_bindings", {})
        k = (id_col, var, props, probe)
        if k not in bound:
            df = table.select(
                F.col(id_col).alias(key),
                *[F.col(p).alias(f"{var}__{p}") for p in props],
            )
            bound[k] = F.broadcast(df) if probe else df
        return bound[k]

    @cached_property
    def num_vertices(self) -> int:
        return self.vertices.count()

    @cached_property
    def num_edges(self) -> int:
        return self.edges.count()

    @property
    def avg_degree(self) -> float:
        return self.num_edges / max(1, self.num_vertices)

    def cache(self) -> "PropertyGraph":
        """Persist and materialize both DataFrames."""
        self.vertices.cache().count()
        self.edges.cache().count()
        return self

    def unpersist(self) -> "PropertyGraph":
        self.vertices.unpersist()
        self.edges.unpersist()
        return self
