"""Probe tables: the index side of every E/I lookup (Section 4.1).

An operator reads adjacency lists by joining its matches with a *probe
table* of one index: the index's lists keyed by their owner, narrowed
to the access's granular lists, with its array predicates applied, and
marked as the broadcast hash-join build side.  A probe table depends on
the index and the access only, never on a query's variables, so each
index builds it the first time an access asks for it and returns the
same DataFrame after that, across operators and queries: building a
plan then costs list work, not re-deriving the same lookup tables
(DESIGN.md §6).

Column names carry the caller's ``tag``, so that several lists can be
joined to one match DataFrame: ``probe(access, tag)`` has one row per
list, with ``__k<tag>`` (owner key), ``__arr<tag>`` (entries, with
struct fields ``struct_fields``) and ``__nbr<tag>`` (the entries'
neighbour ids, for intersections).  Offset-list indexes build the
entries by gathering through their offsets (``OffsetListIndex``); that
is the one way an offset list is read, and ``build_offset_lists`` is
the one way both secondary index kinds build their lists.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Callable

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.config import COMPARE

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


def entry_cond(entry: Callable[[str], Column],
               preds: tuple[ArrayPred, ...]) -> Column:
    """Conjunction of array predicates over one list entry's fields."""
    return functools.reduce(
        operator.and_,
        (COMPARE[op](entry(f), F.lit(v)) for f, op, v in preds),
    )


def gather(vertex_lists_col: Column, offsets_col: Column) -> Column:
    """Resolve an offset list against a vertex's ID-list array.

    ``element_at`` is 1-based; offsets are 0-based positions (``pos``).
    This is the engine-layer analog of reading ID lists through offset
    lists — a per-entry indirection, paid at query time.
    """
    return F.transform(
        offsets_col, lambda o: F.element_at(vertex_lists_col, o + 1)
    )


def _nbr_ids(entries: Column) -> Column:
    return F.transform(entries, lambda s: s["nbr"])


class ListIndex:
    """What the three index kinds share: granular-list lookup, the
    probe-table cache and the one cached table, ``lists``.  Subclasses
    are dataclasses with ``name``, ``config`` and ``lists``, and say how
    a list's entries are read (``_entries``), which column keys a list
    (``_key``) and which view predicates, in role form, every list
    already satisfies (``atoms``)."""

    _key = "pk"
    atoms: tuple = ()

    def unpersist(self) -> None:
        self.lists.unpersist()

    def granular_lists(self, part_eq: dict[str, object]) -> DataFrame:
        """Lists narrowed by equality on partition columns.

        Keys must be partition columns of this index — the analog of
        descending the CSR layers without evaluating predicates.
        """
        bad = set(part_eq) - set(self.config.partition_cols)
        if bad:
            raise KeyError(
                f"{sorted(bad)} are not partition columns of index "
                f"{self.name!r} (has {self.config.partition_cols})"
            )
        df = self.lists
        for c, v in part_eq.items():
            df = df.where(F.col(c).eqNullSafe(F.lit(v)))
        return df

    def _cached(self, key: tuple, build: Callable[[], DataFrame]) -> DataFrame:
        """The broadcast probe table for ``key``, built on first use."""
        probes = self.__dict__.setdefault("_probes", {})
        if key not in probes:
            probes[key] = F.broadcast(build())
        return probes[key]

    def probe(self, access: ListAccess, tag: str) -> DataFrame:
        """One row per granular list of ``access``: ``__k<tag>``,
        ``__arr<tag>``, ``__nbr<tag>``."""

        def build() -> DataFrame:
            arr, nbr = self._entries(access)
            return self.granular_lists(dict(access.part_eq)).select(
                F.col(self._key).alias(f"__k{tag}"),
                arr.alias(f"__arr{tag}"),
                nbr.alias(f"__nbr{tag}"),
            )

        return self._cached(("list", access, tag), build)

    def _entries(self, access: ListAccess) -> tuple[Column, Column]:
        """(entry array, neighbour-id array) of one list row."""
        raise NotImplementedError


class OffsetListIndex(ListIndex):
    """Secondary indexes whose lists are offsets into the ``base``
    default index's ID lists (Section 3).  Each list row carries its
    ``offsets``, the aligned sort keys ``skeys`` (when the index sorts)
    and ``ref``, the ID list the offsets point into."""

    @property
    def extra_sort_cols(self) -> tuple[str, ...]:
        """Sort keys the base ID-list entries do not carry; the index
        stores them, so reads merge them into the entries."""
        return tuple(c for c in self.config.sort_cols
                     if c not in self.base.struct_fields)

    @property
    def struct_fields(self) -> tuple[str, ...]:
        return self.base.struct_fields + self.extra_sort_cols

    @functools.cached_property
    def num_entries(self) -> int:
        """Total offsets stored (|E_indexed| in Table 6)."""
        return (
            self.lists.select(F.sum(F.size("offsets")).alias("n"))
            .collect()[0]["n"] or 0
        )

    def prunes(self, access: ListAccess) -> bool:
        """True when every array predicate targets a sort key, so that
        qualifying positions are selected before the ID-list gather —
        the engine analog of binary-searching a sorted list."""
        return bool(access.array_preds) and all(
            f in self.config.sort_cols for f, _, _ in access.array_preds
        )

    def _entries(self, access: ListAccess) -> tuple[Column, Column]:
        """Entries gathered through the offsets at query time.

        When the access prunes, positions are filtered on the aligned
        ``skeys`` array *before* the gather, so only qualifying entries
        are ever read; otherwise the array predicates filter the
        gathered entries.  Sort-key values the base ID list does not
        carry are merged into the entries.
        """
        preds = access.array_preds
        if self.prunes(access):
            kept = F.filter(
                F.arrays_zip(F.col("skeys"), F.col("offsets")),
                lambda t: entry_cond(lambda f: t["skeys"][f], preds),
            )
            offs = F.transform(kept, lambda t: t["offsets"])
            skf = F.transform(kept, lambda t: t["skeys"])
            preds = ()
        else:
            offs, skf = F.col("offsets"), F.col("skeys")
        arr = gather(F.col("ref"), offs)
        if self.extra_sort_cols:
            arr = F.zip_with(
                arr, skf,
                lambda s, k: F.struct(
                    *[s[f].alias(f) for f in self.base.struct_fields],
                    *[k[f].alias(f) for f in self.extra_sort_cols],
                ),
            )
        if preds:
            arr = F.filter(arr, lambda s: entry_cond(lambda f: s[f], preds))
        return arr, _nbr_ids(arr)


def build_offset_lists(name: str, base, config, rows: DataFrame,
                       keys: tuple[str, ...], owner: str) -> DataFrame:
    """Group ``rows`` — edges of ``base.flat``, with their ``pos`` — into
    the persisted ``lists`` table of a secondary index.

    One row per ``keys`` and ``config``'s partition values, holding the
    ``offsets`` in ``config``'s sort order, the aligned sort-key array
    ``skeys`` (when the index sorts) and ``ref``, the ID list of the
    vertex ``owner`` names, which the offsets point into.
    """
    part_cols = list(config.partition_cols)
    sort_cols = list(config.sort_cols)
    have = base.flat.columns
    missing = [c for c in (*part_cols, *sort_cols) if c not in have]
    if missing:
        raise ValueError(f"index {name!r}: unknown columns {missing}")
    entry_fields = list(dict.fromkeys([*sort_cols, "eid", "pos"]))
    entry = F.struct(*[F.col(c) for c in entry_fields])
    sorted_entries = F.sort_array(F.collect_list(entry))
    aggs = [F.transform(sorted_entries, lambda s: s["pos"]).alias("offsets")]
    if sort_cols:
        # Sort-key array aligned with the offsets: the engine analog of
        # binary-searching a sorted list — range predicates on the sort
        # keys select positions *before* the ID-list gather, so only
        # qualifying entries are read (Section 2.1.2).
        aggs.append(
            F.transform(
                sorted_entries,
                lambda s: F.struct(*[s[c].alias(c) for c in sort_cols]),
            ).alias("skeys")
        )
    lists = rows.groupBy(*keys, *part_cols).agg(*aggs)
    ref = base.vertex_lists.select(
        F.col("pk").alias("__rpk"), F.col("lst").alias("ref")
    )
    lists = (
        lists.join(ref, lists[owner] == ref["__rpk"], "inner")
        .drop("__rpk")
        .persist()
    )
    lists.count()
    return lists
