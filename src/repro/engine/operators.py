"""Join operators over A+ indexes (Section 4.1), as DataFrame→DataFrame
transformations.

Match DataFrames use one column per bound variable: a vertex variable
``a1`` binds column ``a1`` (vid) plus ``a1__<prop>`` property columns;
an edge variable ``e1`` binds ``e1__eid`` plus ``e1__<prop>``.

Operators:

* :class:`Scan` — match one query vertex from the vertex table.
* :class:`Extend` — E/I with z=1: extend every partial match through an
  adjacency list bound to a vertex (default/vertex-bound index) or to
  an edge (edge-bound index).  Partition-column equalities are lookup
  keys (no predicate evaluation); ``array_preds`` prune inside the
  sorted list pre-explode (binary-search analog); ``post_preds`` run as
  per-row predicates afterwards (the expensive path the indexes avoid).
* :class:`CloseExtend` — E/I closing an edge between two already-bound
  vertices by probing the list (used by binary-join baselines too).
* :class:`IntersectExtend` — E/I with z≥2: multiway intersection of
  neighbour-id-sorted lists (WCO-style closure).
* :class:`MultiExtend` — the paper's new operator: intersects z lists
  sorted on a *property* and extends by z query vertices whose
  neighbours agree on that property (Section 4.1).
* :class:`Filter`, :class:`FetchProps` — predicate evaluation and
  vertex-property lookup.

Every list lookup and property-store read is an index probe, not a
repartitioning join: the index or property-store side is marked with
``F.broadcast`` as the hash-join build side, and the matches stay in
place.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.config import Atom
from repro.core.default_index import DefaultIndex, gather
from repro.core.edge_bound import EdgeBoundIndex
from repro.core.index_store import IndexStore
from repro.core.vertex_bound import VertexBoundIndex, _canon_prop
from repro.graphs.schema import PropertyGraph


@dataclass
class EngineContext:
    """Everything operators need: the graph and the INDEX STORE."""

    graph: PropertyGraph
    store: IndexStore


# ---------------------------------------------------------------------------
# list access

#: (struct field, op, literal) — evaluated inside the list array
ArrayPred = tuple[str, str, Any]


@dataclass(frozen=True)
class ListAccess:
    """How one adjacency list is read: which index, which granular list
    (partition-column equalities), and which sorted-array prunes."""

    index: str
    part_eq: tuple[tuple[str, Any], ...] = ()
    array_preds: tuple[ArrayPred, ...] = ()

    def describe(self) -> str:
        parts = [self.index]
        if self.part_eq:
            parts.append(",".join(f"{c}={v}" for c, v in self.part_eq))
        if self.array_preds:
            parts.append(",".join(f"{f}{o}{v}" for f, o, v in self.array_preds))
        return "[" + " ".join(parts) + "]"


def _cmp(lhs: Column, op: str, rhs: Column) -> Column:
    return {
        "=": lhs == rhs, "!=": lhs != rhs, "<": lhs < rhs,
        "<=": lhs <= rhs, ">": lhs > rhs, ">=": lhs >= rhs,
    }[op]


def _apply_array_preds(arr: Column, preds: tuple[ArrayPred, ...]) -> Column:
    if not preds:
        return arr
    def cond(s: Column) -> Column:
        return functools.reduce(
            lambda acc, p: acc & _cmp(s[p[0]], p[1], F.lit(p[2])),
            preds,
            F.lit(True),
        )
    return F.filter(arr, cond)


def _offset_gather(idx, access: ListAccess) -> tuple[Column, tuple, tuple]:
    """Entry-array expression for an offset-list index.

    When every array predicate targets the index's sort keys, positions
    are pruned on the aligned ``skeys`` array *before* the ID-list
    gather — the engine analog of binary-searching a sorted list: only
    qualifying entries are ever read (Section 3).  Sort-key values that
    the base ID list does not carry are merged into the gathered
    entries (the index *is* the structure that knows them).  Returns
    (array column, predicates still needing post-gather evaluation,
    entry struct fields).
    """
    base_fields = idx.base.struct_fields
    skey_fields = tuple(idx.config.sort_cols)
    extras = tuple(c for c in skey_fields if c not in base_fields)
    preds = access.array_preds
    prune = bool(
        preds and skey_fields
        and all(f in skey_fields for f, _, _ in preds)
    )
    if prune:
        z = F.arrays_zip(F.col("skeys"), F.col("offsets"))

        def cond(t: Column) -> Column:
            return functools.reduce(
                lambda acc, p: acc
                & _cmp(t["skeys"][p[0]], p[1], F.lit(p[2])),
                preds,
                F.lit(True),
            )

        kept = F.filter(z, cond)
        offs = F.transform(kept, lambda t: t["offsets"])
        skf = F.transform(kept, lambda t: t["skeys"])
        residual: tuple = ()
    else:
        offs, skf, residual = F.col("offsets"), F.col("skeys"), preds
    arr = gather(F.col("ref"), offs)
    if extras:
        arr = F.zip_with(
            arr, skf,
            lambda s, k: F.struct(
                *[s[f].alias(f) for f in base_fields],
                *[k[f].alias(f) for f in extras],
            ),
        )
    return arr, residual, base_fields + extras


def _attach(
    ctx: EngineContext,
    matches: DataFrame,
    from_var: str,
    access: ListAccess,
    tag: str,
) -> tuple[DataFrame, str, tuple[str, ...]]:
    """Join ``matches`` with one (possibly granular) list table.

    Returns (joined df, name of the attached array column, struct
    fields of the array's entries).  Offset-list indexes resolve their
    entries here, at query time, through the ``gather`` indirection.
    """
    idx = ctx.store.by_name(access.index)
    k, a = f"__k{tag}", f"__arr{tag}"
    residual = access.array_preds
    if isinstance(idx, DefaultIndex):
        ldf = idx.granular_lists(dict(access.part_eq)).select(
            F.col("pk").alias(k), F.col("lst").alias(a)
        )
        key_col, fields = from_var, idx.struct_fields
    elif isinstance(idx, VertexBoundIndex):
        arr, residual, fields = _offset_gather(idx, access)
        ldf = idx.granular_lists(dict(access.part_eq)).select(
            F.col("pk").alias(k), arr.alias(a)
        )
        key_col = from_var
    elif isinstance(idx, EdgeBoundIndex):
        arr, residual, fields = _offset_gather(idx, access)
        ldf = idx.granular_lists(dict(access.part_eq)).select(
            F.col("bid").alias(k), arr.alias(a)
        )
        key_col = f"{from_var}__eid"
    else:  # pragma: no cover - registry guarantees the three kinds
        raise TypeError(type(idx))
    if key_col not in matches.columns:
        raise KeyError(
            f"variable column {key_col!r} not bound yet "
            f"(have {sorted(matches.columns)})"
        )
    out = matches.join(
        F.broadcast(ldf), matches[key_col] == F.col(k), "inner"
    ).drop(k)
    if residual:
        out = out.withColumn(a, _apply_array_preds(F.col(a), residual))
    return out, a, fields


def _entry_projection(
    x: Column, fields: tuple[str, ...], to_var: str, edge_var: str | None
) -> list[Column]:
    """Columns produced by materializing one list entry as a match
    extension: the new vertex, its properties, and the new edge."""
    cols = [x["nbr"].alias(to_var)]
    for f_ in fields:
        if f_.startswith("nbr_"):
            cols.append(x[f_].alias(f"{to_var}__{f_[4:]}"))
    if edge_var is not None:
        cols.append(x["eid"].alias(f"{edge_var}__eid"))
        for f_ in fields:
            if f_ in ("eid", "nbr") or f_.startswith("nbr_"):
                continue
            cols.append(x[f_].alias(f"{edge_var}__{f_}"))
    return cols


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
    vprops = {c for c in ctx.graph.vertices.columns if c != "vid"}
    eprops = {
        c for c in ctx.graph.edges.columns if c not in ("eid", "src", "dst")
    }
    need_v: dict[str, set] = {}
    need_e: dict[str, set] = {}

    def visit(ref) -> None:
        var, prop = ref[0], _canon_prop(ref[1])
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
        et = ctx.graph.edges.select(
            F.col("eid").alias("__fe"),
            *[F.col(p).alias(f"{var}__{p}") for p in sorted(props)],
        )
        df = df.join(
            F.broadcast(et), df[f"{var}__eid"] == F.col("__fe"), "inner"
        ).drop("__fe")
    for var, props in sorted(need_v.items()):
        vt = ctx.graph.vertices.select(
            F.col("vid").alias("__fv"),
            *[F.col(p).alias(f"{var}__{p}") for p in sorted(props)],
        )
        df = df.join(
            F.broadcast(vt), df[var] == F.col("__fv"), "inner"
        ).drop("__fv")
    return df


def resolve_ref(columns: list[str], ref: tuple[str, str]) -> Column:
    """Resolve an Atom reference against match-DataFrame columns."""
    var, prop = ref[0], _canon_prop(ref[1])
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
        lambda acc, a: acc & a.to_spark(lambda r: resolve_ref(cols, r)),
        atoms,
        F.lit(True),
    )


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True)
class Scan:
    """Match one query vertex against the vertex table."""

    var: str
    vlabel: str | None = None
    preds: tuple[Atom, ...] = ()

    def apply(self, ctx: EngineContext, matches: DataFrame | None) -> DataFrame:
        if matches is not None:
            raise ValueError("Scan must be the first operator of a plan")
        v = ctx.graph.vertices
        props = [c for c in v.columns if c != "vid"]
        df = v.select(
            F.col("vid").alias(self.var),
            *[F.col(p).alias(f"{self.var}__{p}") for p in props],
        )
        if self.vlabel is not None:
            df = df.where(F.col(f"{self.var}__vlabel") == self.vlabel)
        if self.preds:
            df = df.where(compile_atoms(df, self.preds))
        return df

    def describe(self) -> str:
        lbl = f":{self.vlabel}" if self.vlabel else ""
        return f"SCAN({self.var}{lbl})"


@dataclass(frozen=True)
class Extend:
    """E/I with z=1: extend through one adjacency list."""

    from_var: str
    to_var: str
    edge_var: str
    access: ListAccess
    post_preds: tuple[Atom, ...] = ()

    def apply(self, ctx: EngineContext, matches: DataFrame) -> DataFrame:
        idx = ctx.store.by_name(self.access.index)
        if (
            isinstance(idx, (VertexBoundIndex, EdgeBoundIndex))
            and self.access.array_preds
            and all(f in idx.config.sort_cols
                    for f, _, _ in self.access.array_preds)
        ):
            df = self._row_mode(ctx, matches, idx)
        else:
            df, a, fields = _attach(
                ctx, matches, self.from_var, self.access, "0"
            )
            x = F.explode(F.col(a))
            keep = [c for c in df.columns if c != a]
            df = df.select(*keep, x.alias("__x"))
            df = df.select(
                *keep,
                *_entry_projection(F.col("__x"), fields, self.to_var,
                                   self.edge_var),
            )
        if self.post_preds:
            df = _fetch_missing_props(ctx, df, self.post_preds)
            df = df.where(compile_atoms(df, self.post_preds))
        return df

    def _row_mode(
        self, ctx: EngineContext, matches: DataFrame, idx
    ) -> DataFrame:
        """Sorted-offset-list access via the row form: the range
        predicate on the index's sort keys selects qualifying
        (list, position) rows before any per-match work — the engine's
        binary-search analog — and only those entries are resolved
        through the ID-list indirection (``element_at``)."""
        fl = idx.flat_offsets
        for c, v in self.access.part_eq:
            fl = fl.where(F.col(c).eqNullSafe(F.lit(v)))
        for f_, op, v in self.access.array_preds:
            fl = fl.where(_cmp(F.col(f_), op, F.lit(v)))
        # the index's sort-key values ride along (it is the structure
        # that stores them; other properties still cost a fetch)
        skeys = [
            F.col(c).alias(
                f"{self.to_var}__{c[4:]}" if c.startswith("nbr_")
                else f"{self.edge_var}__{c}"
            )
            for c in idx.config.sort_cols
            # keys the base ID-list entry already provides are projected
            # from the entry itself, not duplicated here
            if c not in idx.base.struct_fields
        ]
        if isinstance(idx, VertexBoundIndex):
            key_col, anchor = self.from_var, F.col("__k0")
            fl = fl.select(
                F.col("pk").alias("__k0"), F.col("pos").alias("__p0"), *skeys
            )
        else:
            key_col = f"{self.from_var}__eid"
            fl = fl.select(
                F.col("bid").alias("__k0"),
                F.col("anchor").alias("__a0"),
                F.col("pos").alias("__p0"),
                *skeys,
            )
            anchor = F.col("__a0")
        if key_col not in matches.columns:
            raise KeyError(
                f"variable column {key_col!r} not bound yet "
                f"(have {sorted(matches.columns)})"
            )
        df = matches.join(
            F.broadcast(fl), matches[key_col] == F.col("__k0"), "inner"
        )
        vl = idx.base.vertex_lists.select(
            F.col("pk").alias("__vk0"), F.col("lst").alias("__vl0")
        )
        df = df.join(F.broadcast(vl), anchor == F.col("__vk0"), "inner")
        entry = F.element_at(F.col("__vl0"), F.col("__p0") + 1)
        keep = [
            c for c in df.columns
            if c not in ("__k0", "__a0", "__p0", "__vk0", "__vl0")
        ]
        return df.select(
            *keep,
            *_entry_projection(entry, idx.base.struct_fields, self.to_var,
                               self.edge_var),
        )

    def describe(self) -> str:
        s = f"EXTEND({self.from_var}->{self.to_var} {self.access.describe()}"
        if self.post_preds:
            s += " post:" + " & ".join(map(str, self.post_preds))
        return s + ")"


@dataclass(frozen=True)
class CloseExtend:
    """E/I closing an edge between two already-bound vertices."""

    from_var: str
    to_existing: str
    edge_var: str
    access: ListAccess
    post_preds: tuple[Atom, ...] = ()

    def apply(self, ctx: EngineContext, matches: DataFrame) -> DataFrame:
        df, a, fields = _attach(ctx, matches, self.from_var, self.access, "0")
        # explode-then-filter keeps the probe inside Spark's code
        # generation (an array-filter lambda is interpreted per element
        # and an order of magnitude slower on large inputs)
        keep = [c for c in df.columns if c != a]
        df = df.select(*keep, F.explode(F.col(a)).alias("__x"))
        df = df.where(F.col("__x")["nbr"] == F.col(self.to_existing))
        cols = [F.col("__x")["eid"].alias(f"{self.edge_var}__eid")]
        for f_ in fields:
            if f_ in ("eid", "nbr") or f_.startswith("nbr_"):
                continue
            cols.append(F.col("__x")[f_].alias(f"{self.edge_var}__{f_}"))
        df = df.select(*keep, *cols)
        if self.post_preds:
            df = _fetch_missing_props(ctx, df, self.post_preds)
            df = df.where(compile_atoms(df, self.post_preds))
        return df

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
        arrs: list[str] = []
        for i, (from_var, access) in enumerate(self.sources):
            idx = ctx.store.by_name(access.index)
            a = f"__arr{i}"
            if isinstance(idx, DefaultIndex) and not access.array_preds:
                # read the build-time nbr_ids arrays (no per-element
                # lambda on the hot intersection path)
                k = f"__k{i}"
                ldf = idx.granular_lists(dict(access.part_eq)).select(
                    F.col("pk").alias(k), F.col("nbr_ids").alias(a)
                )
                if from_var not in df.columns:
                    raise KeyError(
                        f"variable column {from_var!r} not bound yet"
                    )
                df = df.join(
                    F.broadcast(ldf), df[from_var] == F.col(k), "inner"
                ).drop(k)
            else:
                df, a, _ = _attach(ctx, df, from_var, access, str(i))
                df = df.withColumn(
                    a, F.transform(F.col(a), lambda s: s["nbr"])
                )
            arrs.append(a)
        cands = functools.reduce(
            lambda x, y: F.array_intersect(x, y), [F.col(a) for a in arrs]
        )
        keep = [c for c in df.columns if c not in arrs]
        return df.select(*keep, F.explode(cands).alias(self.to_var))

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
    post_preds: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        if len(self.targets) < 2:
            raise ValueError("MultiExtend needs z >= 2 lists")

    def apply(self, ctx: EngineContext, matches: DataFrame) -> DataFrame:
        df = matches
        arrs: list[tuple[str, tuple[str, ...]]] = []
        for i, t in enumerate(self.targets):
            df, a, fields = _attach(ctx, df, t.from_var, t.access, str(i))
            arrs.append((a, fields))
        # Explode the first list; probe the others with a sorted-key
        # equality filter (the merge-intersection analog), then explode.
        arr_cols = [a for a, _ in arrs]
        key = None
        for i, (a, _fields) in enumerate(arrs):
            keep = [c for c in df.columns if c != a]
            if i == 0:
                df = df.select(*keep, F.explode(F.col(a)).alias("__x0"))
                key = F.col("__x0")[self.key_field]
            else:
                k = key
                probe = F.filter(F.col(a), lambda s: s[self.key_field] == k)
                df = df.select(*keep, F.explode(probe).alias(f"__x{i}"))
        # project all targets' new columns, drop temporaries
        keep = [
            c for c in df.columns
            if not c.startswith("__x") and c not in arr_cols
        ]
        newcols: list[Column] = []
        for i, (t, (a, fields)) in enumerate(zip(self.targets, arrs)):
            newcols.extend(
                _entry_projection(F.col(f"__x{i}"), fields, t.to_var, t.edge_var)
            )
        df = df.select(*keep, *newcols)
        if self.post_preds:
            df = _fetch_missing_props(ctx, df, self.post_preds)
            df = df.where(compile_atoms(df, self.post_preds))
        return df

    def describe(self) -> str:
        tgts = " ∩ ".join(
            f"{t.from_var}->{t.to_var}{t.access.describe()}" for t in self.targets
        )
        return f"MULTI-EXTEND[{self.key_field}]({tgts})"


@dataclass(frozen=True)
class Filter:
    preds: tuple[Atom, ...]

    def apply(self, ctx: EngineContext, matches: DataFrame) -> DataFrame:
        matches = _fetch_missing_props(ctx, matches, self.preds)
        return matches.where(compile_atoms(matches, self.preds))

    def describe(self) -> str:
        return "FILTER(" + " & ".join(map(str, self.preds)) + ")"


@dataclass(frozen=True)
class FetchProps:
    """Join the vertex table to bind a variable's property columns
    (used when a plan needs properties the lists did not carry)."""

    var: str

    def apply(self, ctx: EngineContext, matches: DataFrame) -> DataFrame:
        v = ctx.graph.vertices
        props = [
            c for c in v.columns
            if c != "vid" and f"{self.var}__{c}" not in matches.columns
        ]
        vt = v.select(
            F.col("vid").alias("__fv"),
            *[F.col(p).alias(f"{self.var}__{p}") for p in props],
        )
        return matches.join(
            F.broadcast(vt), matches[self.var] == F.col("__fv"), "inner"
        ).drop("__fv")

    def describe(self) -> str:
        return f"FETCH({self.var})"
