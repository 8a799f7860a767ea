"""NumPy nested-CSR build of a default A+ index (Section 4.3).

The canonical neighbourhood order matches the Spark-side
``DefaultIndex`` exactly — (partition cols, sort cols, eid) ascending —
so offsets computed on either layer agree.  ID lists are stored as the
paper stores them: edge ids as 8-byte and neighbour ids as 4-byte
arrays.  Used by the Section-3 indirection micro-benchmark, the
Section-5.5 maintenance benchmark, and as a cross-check for the memory
model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.config import IndexConfig
from repro.graphs.schema import PropertyGraph


@dataclass
class CSRStorage:
    """One direction of a default index, materialized in NumPy."""

    n_vertices: int
    config: IndexConfig
    indptr: np.ndarray  # int64, len V+1
    eids: np.ndarray  # int64 (8-byte ID list component)
    nbrs: np.ndarray  # int32 (4-byte ID list component)
    #: per secondary-partitioning layer: number of (vertex, group-path)
    #: entries — the layer's CSR cells
    layer_groups: tuple[int, ...]

    @property
    def n_edges(self) -> int:
        return len(self.eids)

    def neighbours(self, v: int) -> np.ndarray:
        return self.nbrs[self.indptr[v]: self.indptr[v + 1]]

    def id_list(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.eids[s:e], self.nbrs[s:e]

    def id_list_bytes(self) -> int:
        """8 B per edge id + 4 B per neighbour id (Section 3)."""
        return 12 * self.n_edges

    def layer_bytes(self, cell_bytes: int = 5) -> int:
        """CSR layer cells: a 4-byte offset + 1-byte group key each,
        plus the 4-byte top-level vertex offsets."""
        return 4 * (self.n_vertices + 1) + cell_bytes * sum(self.layer_groups)

    def total_bytes(self) -> int:
        return self.id_list_bytes() + self.layer_bytes()


def flat_pandas(graph: PropertyGraph, direction: str) -> pd.DataFrame:
    """Driver-side flat adjacency rows with nbr_* property columns."""
    e = graph.edges.toPandas()
    v = graph.vertices.toPandas()
    pk, nbr = ("src", "dst") if direction == "fw" else ("dst", "src")
    flat = e.rename(columns={pk: "pk", nbr: "nbr"})
    vprops = v.rename(
        columns={c: f"nbr_{c}" for c in v.columns if c != "vid"}
    )
    return flat.merge(vprops, left_on="nbr", right_on="vid", how="left").drop(
        columns=["vid"]
    )


def build_csr(graph: PropertyGraph, config: IndexConfig) -> CSRStorage:
    """Build the NumPy CSR model for one direction."""
    flat = flat_pandas(graph, config.direction)
    order_cols = list(
        dict.fromkeys(
            [*config.partition_cols, *config.sort_cols, "eid"]
        )
    )
    missing = [c for c in order_cols if c not in flat.columns]
    if missing:
        raise ValueError(f"unknown partition/sort columns {missing}")
    flat = flat.sort_values(
        ["pk", *order_cols], na_position="first", kind="mergesort"
    ).reset_index(drop=True)
    # slot space covers the vertex-id range (ids need not start at 0,
    # e.g. the running-example graph numbers vertices from 1)
    max_vid = graph.vertices.agg({"vid": "max"}).collect()[0][0]
    nv = int(max_vid) + 1
    counts = np.bincount(flat["pk"].to_numpy(), minlength=nv)
    indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    layer_groups = []
    for i in range(1, len(config.partition_cols) + 1):
        cols = ["pk", *config.partition_cols[:i]]
        layer_groups.append(int(flat[cols].drop_duplicates().shape[0]))
    return CSRStorage(
        n_vertices=nv,
        config=config,
        indptr=indptr,
        eids=flat["eid"].to_numpy(np.int64),
        nbrs=flat["nbr"].to_numpy(np.int32),
        layer_groups=tuple(layer_groups),
    )
