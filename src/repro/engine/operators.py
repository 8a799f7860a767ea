"""Join operators over A+ indexes (Section 4.1), as DataFrame→DataFrame
transformations.

Match DataFrames use one column per bound variable: a vertex variable
``a1`` binds column ``a1`` (vid) plus ``a1__<prop>`` property columns;
an edge variable ``e1`` binds ``e1__eid`` plus ``e1__<prop>``.

Operators:

* :class:`Scan` — match one query vertex from the vertex table,
  selecting by its own literal atoms (its label among them).
* :class:`Extend` — E/I with z=1: extend every partial match through an
  adjacency list bound to a vertex (default/vertex-bound index) or to
  an edge (edge-bound index).  Partition-column equalities are lookup
  keys (no predicate evaluation); ``array_preds`` prune inside the
  sorted list pre-explode (binary-search analog).
* :class:`CloseExtend` — E/I closing an edge between two already-bound
  vertices by probing the list (the binary joins of the TG and N4
  engines, and GF's plans when no intersection applies).
* :class:`IntersectExtend` — E/I with z≥2: multiway intersection of
  neighbour-id-sorted lists (WCO-style closure).
* :class:`MultiExtend` — the paper's new operator: intersects z lists
  sorted on a *property* and extends by z query vertices whose
  neighbours agree on that property (Section 4.1).
* :class:`Filter` — the one operator that evaluates predicates on
  partial matches (the expensive path the indexes avoid), and the one
  that reads the property store after SCAN: it joins only the
  properties its atoms need and the matches lack.  The optimizer
  places at most one after each list-access operator, with every atom
  that access left over or that the operator's new bindings make
  evaluable.

Every list lookup and property-store read is an index probe, not a
repartitioning join: the index or property-store side is a cached,
broadcast probe table (``repro.core.probes``, ``PropertyGraph.bind_*``)
that is built once and reused by every plan, and the matches stay in
place.  Operators carry the matches' own columns forward with
``matches["*"]``, so probe keys and list arrays never reach an
operator's output.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.config import E_ADJ, V_NBR, Atom, canon_prop, field_role
from repro.core.edge_bound import EdgeBoundIndex
from repro.core.index_store import IndexStore
from repro.core.probes import ListAccess, ListIndex
from repro.graphs.schema import PropertyGraph


@dataclass
class EngineContext:
    """Everything operators need: the graph and the INDEX STORE."""

    graph: PropertyGraph
    store: IndexStore


# ---------------------------------------------------------------------------
# list access


def _probe_join(
    ctx: EngineContext,
    matches: DataFrame,
    from_var: str,
    access: ListAccess,
    tag: str,
) -> tuple[DataFrame, ListIndex]:
    """Join ``matches`` with the probe table of ``access`` (one row per
    list, ``__k<tag>``/``__arr<tag>``/``__nbr<tag>``; see
    ``repro.core.probes``).  Returns the joined DataFrame and the index.
    Offset-list indexes resolve their entries here, at query time,
    through the ``gather`` indirection of the probe table."""
    idx = ctx.store.by_name(access.index)
    key_col = _key_col(matches, idx, from_var)
    out = matches.join(
        idx.probe(access, tag), matches[key_col] == F.col(f"__k{tag}"), "inner"
    )
    return out, idx


def _key_col(matches: DataFrame, idx: ListIndex, from_var: str) -> str:
    """The match column that keys ``idx``'s lists from ``from_var``:
    the vertex id, or the edge id for edge-bound lists."""
    key_col = (
        f"{from_var}__eid" if isinstance(idx, EdgeBoundIndex) else from_var
    )
    if key_col not in matches.columns:
        raise KeyError(
            f"variable column {key_col!r} not bound yet "
            f"(have {sorted(matches.columns)})"
        )
    return key_col


def _entry_projection(
    x: Column, fields: tuple[str, ...], to_var: str | None,
    edge_var: str | None,
) -> list[Column]:
    """Columns produced by materializing one list entry as a match
    extension: the new vertex and its properties, then the new edge and
    its properties (``None`` skips either half)."""
    cols = []
    if to_var is not None:
        cols += [x["nbr"].alias(to_var), *_prop_cols(x, fields, V_NBR, to_var)]
    if edge_var is not None:
        cols += [x["eid"].alias(f"{edge_var}__eid"),
                 *_prop_cols(x, fields, E_ADJ, edge_var)]
    return cols


def _prop_cols(x: Column, fields: tuple[str, ...], role: str,
               var: str) -> list[Column]:
    """``var``'s property columns: the entry fields holding ``role``'s
    properties."""
    return [
        x[f_].alias(f"{var}__{prop}")
        for f_, (r, prop) in zip(fields, map(field_role, fields))
        if r == role and prop != "vid"
    ]


def _fetch_missing_props(
    ctx: EngineContext, df: DataFrame, atoms: tuple[Atom, ...]
) -> DataFrame:
    """Property-store reads.

    Adjacency lists carry only ids plus partition/sort key values (as
    in the paper); evaluating a predicate on any other property costs a
    join against the vertex or edge table here — the work that
    partitioning, sorting, and secondary-index views let plans avoid.
    """
    cols = set(df.columns)
    vprops = set(ctx.graph.vertex_props)
    eprops = set(ctx.graph.edge_props)
    need_v: dict[str, set] = {}
    need_e: dict[str, set] = {}

    def visit(ref) -> None:
        var, prop = ref[0], canon_prop(ref[1])
        if prop == "vid" or f"{var}__{prop}" in cols:
            return
        if var in cols and prop in vprops:
            need_v.setdefault(var, set()).add(prop)
        elif f"{var}__eid" in cols and prop in eprops:
            need_e.setdefault(var, set()).add(prop)

    for a in atoms:
        visit(a.lhs)
        if a.rhs_is_ref:
            visit(a.rhs)
    for var, props in sorted(need_e.items()):
        df = df.join(ctx.graph.bind_edges(var, tuple(sorted(props))),
                     f"{var}__eid")
    for var, props in sorted(need_v.items()):
        df = df.join(ctx.graph.bind_vertices(var, tuple(sorted(props)),
                                             probe=True), var)
    return df


def resolve_ref(columns: list[str], ref: tuple[str, str]) -> Column:
    """Resolve an Atom reference against match-DataFrame columns."""
    var, prop = ref[0], canon_prop(ref[1])
    if prop == "vid" and var in columns:
        return F.col(var)
    if prop == "vid" and f"{var}__eid" in columns:
        return F.col(f"{var}__eid")
    if f"{var}__{prop}" in columns:
        return F.col(f"{var}__{prop}")
    raise KeyError(
        f"cannot resolve {var}.{prop}: no column among {sorted(columns)}"
    )


def compile_atoms(df: DataFrame, atoms: tuple[Atom, ...]) -> Column:
    cols = df.columns
    return functools.reduce(
        operator.and_,
        (a.to_spark(lambda r: resolve_ref(cols, r)) for a in atoms),
    )


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True)
class Scan:
    """Match one query vertex against the vertex table, keeping the
    vertices that satisfy every atom of ``preds``."""

    var: str
    preds: tuple[Atom, ...] = ()

    def apply(self, ctx: EngineContext, matches: DataFrame | None) -> DataFrame:
        if matches is not None:
            raise ValueError("Scan must be the first operator of a plan")
        g = ctx.graph
        df = g.bind_vertices(self.var, tuple(g.vertex_props))
        if self.preds:
            df = df.where(compile_atoms(df, self.preds))
        return df

    def describe(self) -> str:
        where = ": " + " & ".join(map(str, self.preds)) if self.preds else ""
        return f"SCAN({self.var}{where})"


@dataclass(frozen=True)
class Extend:
    """E/I with z=1: extend through one adjacency list."""

    from_var: str
    to_var: str
    edge_var: str
    access: ListAccess

    def apply(self, ctx: EngineContext, matches: DataFrame) -> DataFrame:
        df, idx = _probe_join(ctx, matches, self.from_var, self.access, "0")
        df = df.select(matches["*"], F.explode("__arr0").alias("__x"))
        df = df.select(
            matches["*"],
            *_entry_projection(F.col("__x"), idx.struct_fields,
                               self.to_var, self.edge_var),
        )
        return df

    def describe(self) -> str:
        return f"EXTEND({self.from_var}->{self.to_var} {self.access.describe()})"


@dataclass(frozen=True)
class CloseExtend:
    """E/I closing an edge between two already-bound vertices."""

    from_var: str
    to_existing: str
    edge_var: str
    access: ListAccess

    def apply(self, ctx: EngineContext, matches: DataFrame) -> DataFrame:
        df, idx = _probe_join(ctx, matches, self.from_var, self.access, "0")
        # explode-then-filter keeps the probe inside Spark's code
        # generation (an array-filter lambda is interpreted per element
        # and an order of magnitude slower on large inputs)
        df = df.select(matches["*"], F.explode("__arr0").alias("__x"))
        x = F.col("__x")
        df = df.where(x["nbr"] == F.col(self.to_existing))
        return df.select(
            matches["*"],
            *_entry_projection(x, idx.struct_fields, None, self.edge_var),
        )

    def describe(self) -> str:
        return (
            f"CLOSE({self.from_var}->{self.to_existing} "
            f"{self.access.describe()})"
        )


@dataclass(frozen=True)
class IntersectExtend:
    """E/I with z≥2: multiway intersection on neighbour ids.

    Produces the new vertex variable only (no edge ids for the closing
    edges) — exactly how intersection-based closure is used in WCO
    plans, where the closing edges' properties are already constrained
    by each list's partitioning/array predicates.
    """

    to_var: str
    sources: tuple[tuple[str, ListAccess], ...]

    def __post_init__(self) -> None:
        if len(self.sources) < 2:
            raise ValueError("IntersectExtend needs z >= 2 lists")

    def apply(self, ctx: EngineContext, matches: DataFrame) -> DataFrame:
        df = matches
        for i, (from_var, access) in enumerate(self.sources):
            df, _ = _probe_join(ctx, df, from_var, access, str(i))
        cands = functools.reduce(
            F.array_intersect,
            [F.col(f"__nbr{i}") for i in range(len(self.sources))],
        )
        return df.select(matches["*"], F.explode(cands).alias(self.to_var))

    def describe(self) -> str:
        srcs = " ∩ ".join(f"{v}{a.describe()}" for v, a in self.sources)
        return f"E/I({self.to_var} = {srcs})"


@dataclass(frozen=True)
class ExtTarget:
    """One extension of a MULTI-EXTEND."""

    from_var: str
    to_var: str
    edge_var: str
    access: ListAccess


@dataclass(frozen=True)
class MultiExtend:
    """Intersect z property-sorted lists and extend by z query vertices
    whose neighbours share the value of ``key_field`` (e.g.
    ``nbr_city``).  Lists may be bound to vertices or to edges."""

    targets: tuple[ExtTarget, ...]
    key_field: str

    def __post_init__(self) -> None:
        if len(self.targets) < 2:
            raise ValueError("MultiExtend needs z >= 2 lists")

    def apply(self, ctx: EngineContext, matches: DataFrame) -> DataFrame:
        df = matches
        fields: list[tuple[str, ...]] = []
        for i, t in enumerate(self.targets):
            df, idx = _probe_join(ctx, df, t.from_var, t.access, str(i))
            fields.append(idx.struct_fields)
        # Explode the first list; probe the others with a sorted-key
        # equality filter (the merge-intersection analog), then explode.
        n = len(self.targets)
        key = F.col("__x0")[self.key_field]
        for i in range(n):
            arr = F.col(f"__arr{i}")
            if i:
                arr = F.filter(arr, lambda s: s[self.key_field] == key)
            df = df.select(
                matches["*"],
                *[f"__x{j}" for j in range(i)],
                *[f"__arr{j}" for j in range(i + 1, n)],
                F.explode(arr).alias(f"__x{i}"),
            )
        df = df.select(
            matches["*"],
            *[
                c
                for i, t in enumerate(self.targets)
                for c in _entry_projection(F.col(f"__x{i}"), fields[i],
                                           t.to_var, t.edge_var)
            ],
        )
        return df

    def describe(self) -> str:
        tgts = " ∩ ".join(
            f"{t.from_var}->{t.to_var}{t.access.describe()}" for t in self.targets
        )
        return f"MULTI-EXTEND[{self.key_field}]({tgts})"


@dataclass(frozen=True)
class Filter:
    """Keep the matches that satisfy every atom of ``preds``."""

    preds: tuple[Atom, ...]

    def apply(self, ctx: EngineContext, matches: DataFrame) -> DataFrame:
        matches = _fetch_missing_props(ctx, matches, self.preds)
        return matches.where(compile_atoms(matches, self.preds))

    def describe(self) -> str:
        return "FILTER(" + " & ".join(map(str, self.preds)) + ")"

