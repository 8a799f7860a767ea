"""Subgraph query patterns and their relational (oracle) compilation.

A :class:`QueryGraph` is the subgraph-pattern component of a query
(Section 4.1): query vertices with optional vertex-label constraints,
directed query edges with optional edge-label constraints, and a
conjunction of :class:`~repro.core.config.Atom` predicates over the
variables (anchors like ``a1.vid = 7``, property comparisons like
``a2.city = a4.city``, and cross-edge predicates like
``e1.amt < e2.amt + alpha``).  ``QueryGraph.atoms`` writes the labels
as atoms too, so the optimizer enforces every constraint the same way.

``pattern_to_sql`` compiles the pattern to a DuckDB self-join over the
``vertices``/``edges`` tables with *homomorphism* semantics — exactly
the semantics of the engine's join operators — so every engine plan can
be verified with ``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.config import Atom, canon_prop


@dataclass(frozen=True)
class QVertex:
    name: str
    vlabel: str | None = None


@dataclass(frozen=True)
class QEdge:
    name: str
    src: str
    dst: str
    elabel: str | None = None


@dataclass(frozen=True)
class QueryGraph:
    name: str
    vertices: tuple[QVertex, ...]
    edges: tuple[QEdge, ...]
    preds: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        vnames = [v.name for v in self.vertices]
        enames = [e.name for e in self.edges]
        if len(set(vnames)) != len(vnames) or len(set(enames)) != len(enames):
            raise ValueError(f"duplicate variable names in query {self.name!r}")
        if set(vnames) & set(enames):
            raise ValueError("vertex and edge variable names must be disjoint")
        for e in self.edges:
            if e.src not in vnames or e.dst not in vnames:
                raise ValueError(
                    f"edge {e.name} references unknown vertex in {self.name!r}"
                )

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vertices)

    @property
    def edge_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.edges)

    def edge(self, name: str) -> QEdge:
        return next(e for e in self.edges if e.name == name)

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """Every constraint of the pattern as an atom: the label atoms
        ``v.vlabel = L`` and ``e.elabel = L``, then ``preds``.  The
        optimizer plans over these alone, so a label is a lookup key
        where an index is partitioned or sorted on it and a predicate
        like any other where it is not."""
        return (
            tuple(Atom((v.name, "vlabel"), "=", v.vlabel)
                  for v in self.vertices if v.vlabel is not None)
            + tuple(Atom((e.name, "elabel"), "=", e.elabel)
                    for e in self.edges if e.elabel is not None)
            + self.preds
        )


def _sql_ref(q: QueryGraph, ref: tuple[str, str]) -> str:
    var, prop = ref[0], canon_prop(ref[1])
    if var in q.vertex_names:
        return f"t_{var}.vid" if prop == "vid" else f"t_{var}.{prop}"
    if var in q.edge_names:
        return f"t_{var}.eid" if prop == "vid" else f"t_{var}.{prop}"
    raise KeyError(f"unknown variable {var!r} in query {q.name!r}")


def pattern_to_sql(
    q: QueryGraph,
    *,
    project_vertices: tuple[str, ...] | None = None,
    project_edges: tuple[str, ...] = (),
) -> str:
    """DuckDB SQL equivalent of the pattern (homomorphism join).

    Projects each vertex variable as a column named like the variable
    (vid values) and each requested edge variable as ``<name>`` (eid).
    """
    pv = project_vertices if project_vertices is not None else q.vertex_names
    sel = [f"t_{v}.vid AS {v}" for v in pv] + [
        f"t_{e}.eid AS {e}" for e in project_edges
    ]
    frm = [f"vertices AS t_{v.name}" for v in q.vertices] + [
        f"edges AS t_{e.name}" for e in q.edges
    ]
    where: list[str] = []
    for v in q.vertices:
        if v.vlabel is not None:
            where.append(f"t_{v.name}.vlabel = '{v.vlabel}'")
    for e in q.edges:
        where.append(f"t_{e.name}.src = t_{e.src}.vid")
        where.append(f"t_{e.name}.dst = t_{e.dst}.vid")
        if e.elabel is not None:
            where.append(f"t_{e.name}.elabel = '{e.elabel}'")
    for a in q.preds:
        where.append(a.to_sql(lambda r: _sql_ref(q, r)))
    cond = " AND ".join(where) if where else "TRUE"
    return f"SELECT {', '.join(sel)} FROM {', '.join(frm)} WHERE {cond}"
