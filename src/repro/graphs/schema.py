"""Property-graph container and column contract.

A graph's rows live in two pandas frames, and Spark gets each of them
once:

* ``vertex_frame``: one row per vertex — ``vid`` (long), ``vlabel``
  (string), plus arbitrary property columns (``name``, ``city``,
  ``acc``, ...).
* ``edge_frame``: one row per directed edge — ``eid`` (long), ``src``
  (long), ``dst`` (long), ``elabel`` (string), plus arbitrary property
  columns (``amt``, ``currency``, ``date``, ``time``, ...).

The generators and decorators work on the frames alone.  ``vertices``
and ``edges``, the Spark tables every index and plan reads, are made
from the frames on first use, with one ``createDataFrame`` each.

Graphs are *simple* per the generators' contract: at most one edge per
``(src, dst)`` pair. This matches the SNAP datasets the paper uses and
keeps intersection-based join multiplicities identical to relational
join multiplicities (see DESIGN.md §6).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

VERTEX_KEY_COLS = ("vid", "vlabel")
EDGE_KEY_COLS = ("eid", "src", "dst", "elabel")


@dataclass
class PropertyGraph:
    """A property graph: its rows as two pandas frames, and the Spark
    tables made from them.

    ``name`` identifies the dataset in job/benchmark output.  The frames
    are treated as immutable (a decorator returns a new graph over new
    frames); index builders derive cached artifacts from the Spark
    tables.
    """

    name: str
    spark: SparkSession
    vertex_frame: pd.DataFrame
    edge_frame: pd.DataFrame
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing_v = set(VERTEX_KEY_COLS) - set(self.vertex_frame.columns)
        missing_e = set(EDGE_KEY_COLS) - set(self.edge_frame.columns)
        if missing_v or missing_e:
            raise ValueError(
                f"graph '{self.name}' missing required columns: "
                f"vertices {sorted(missing_v)}, edges {sorted(missing_e)}"
            )

    @cached_property
    def vertices(self) -> DataFrame:
        return self.spark.createDataFrame(self.vertex_frame)

    @cached_property
    def edges(self) -> DataFrame:
        return self.spark.createDataFrame(self.edge_frame)

    @property
    def vertex_props(self) -> list[str]:
        """Vertex property columns (everything except ``vid``)."""
        return [c for c in self.vertex_frame.columns if c != "vid"]

    @property
    def edge_props(self) -> list[str]:
        """Edge property columns (everything except ids/endpoints)."""
        return [c for c in self.edge_frame.columns
                if c not in ("eid", "src", "dst")]

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

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_frame)

    @property
    def num_edges(self) -> int:
        return len(self.edge_frame)

    @property
    def avg_degree(self) -> float:
        return self.num_edges / max(1, self.num_vertices)

    def cache(self) -> "PropertyGraph":
        """Persist and materialize both Spark tables."""
        self.vertices.cache().count()
        self.edges.cache().count()
        return self

    def unpersist(self) -> "PropertyGraph":
        self.vertices.unpersist()
        self.edges.unpersist()
        return self
