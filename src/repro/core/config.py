"""Index configuration and the shared predicate AST.

``PropRef`` names a property of either the *adjacent edge* (``e_adj``
in the paper's CREATE/RECONFIGURE syntax) or the *neighbour vertex*
(``v_nbr``).  ``IndexConfig`` captures the tunable part of an A+ index:
direction, nested secondary partitioning, and final-list sorting
(Sections 2.1.1–2.1.2).

``Atom`` is the predicate atom used everywhere — view definitions
(WHERE clauses of CREATE ... VIEW), query-graph predicates, and the
optimizer's subsumption checks.  It compiles to both a Spark ``Column``
(engine) and a SQL snippet (DuckDB oracle) through a caller-supplied
name resolver, so engine and oracle always evaluate the *same*
predicate.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from pyspark.sql import Column
from pyspark.sql import functions as F

# ---------------------------------------------------------------------------
# Property references

EDGE = "edge"
NBR = "nbr"

#: (owner, prop) — owner in {"edge", "nbr"}; prop "vid"/"elabel" are the
#: neighbour id and edge label themselves.
PropRef = tuple[str, str]


def propref_col(ref: PropRef) -> str:
    """Flat-DataFrame column name for a PropRef (see default_index)."""
    owner, prop = ref
    if owner == EDGE:
        return prop  # edge props keep their names ("elabel", "amt", ...)
    if owner == NBR:
        return "nbr" if prop == "vid" else f"nbr_{prop}"
    raise ValueError(f"unknown PropRef owner {owner!r}")


@dataclass(frozen=True)
class IndexConfig:
    """Tunable criteria of one A+ index (one direction).

    ``partition_by`` adds one CSR layer per entry (categorical
    properties only, per Section 2.1.1); ``sort_by`` orders the most
    granular lists (Section 2.1.2).  Ties are always broken by edge id
    so list order is deterministic.
    """

    direction: str  # "fw" | "bw"
    partition_by: tuple[PropRef, ...] = ()
    sort_by: tuple[PropRef, ...] = ()

    def __post_init__(self) -> None:
        if self.direction not in ("fw", "bw"):
            raise ValueError(f"direction must be fw/bw, got {self.direction!r}")
        for ref in (*self.partition_by, *self.sort_by):
            if ref[0] not in (EDGE, NBR):
                raise ValueError(f"bad PropRef {ref!r}")

    @property
    def partition_cols(self) -> tuple[str, ...]:
        return tuple(propref_col(r) for r in self.partition_by)

    @property
    def sort_cols(self) -> tuple[str, ...]:
        return tuple(propref_col(r) for r in self.sort_by)


def graphflow_default(direction: str) -> IndexConfig:
    """GraphflowDB's out-of-the-box configuration (Section 2.1):
    secondary partitioning by edge label, sorting by neighbour id."""
    return IndexConfig(
        direction=direction,
        partition_by=((EDGE, "elabel"),),
        sort_by=((NBR, "vid"),),
    )


# ---------------------------------------------------------------------------
# Predicate atoms

#: comparison op → the Column operator that builds it
COMPARE = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_SQL_OPS = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

Ref = tuple[str, str]  # (entity, prop) — entity is a view role or query var


def canon_prop(prop: str) -> str:
    """Accept the paper's surface names: ``label``→``elabel``, ``ID``→vid."""
    return {"label": "elabel", "ID": "vid", "id": "vid"}.get(prop, prop)


@dataclass(frozen=True)
class Atom:
    """One comparison: ``lhs op rhs (+ delta)``.

    ``lhs`` is always an entity-property reference.  ``rhs`` is either a
    literal or another reference; ``delta`` implements the paper's
    windowed comparisons (``e1.amt < e2.amt + alpha``).
    """

    lhs: Ref
    op: str
    rhs: Any  # literal, or Ref (a 2-tuple of strings)
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in COMPARE:
            raise ValueError(f"unsupported op {self.op!r}")

    @property
    def rhs_is_ref(self) -> bool:
        return (
            isinstance(self.rhs, tuple)
            and len(self.rhs) == 2
            and all(isinstance(x, str) for x in self.rhs)
        )

    def entities(self) -> set[str]:
        ents = {self.lhs[0]}
        if self.rhs_is_ref:
            ents.add(self.rhs[0])
        return ents

    # -- compilation -------------------------------------------------------
    def to_spark(self, resolve: Callable[[Ref], Column]) -> Column:
        lhs = resolve(self.lhs)
        rhs = resolve(self.rhs) if self.rhs_is_ref else F.lit(self.rhs)
        if self.delta:
            rhs = rhs + F.lit(self.delta)
        return COMPARE[self.op](lhs, rhs)

    def to_sql(self, resolve: Callable[[Ref], str]) -> str:
        lhs = resolve(self.lhs)
        if self.rhs_is_ref:
            rhs = resolve(self.rhs)
        elif isinstance(self.rhs, str):
            rhs = "'" + self.rhs.replace("'", "''") + "'"
        else:
            rhs = repr(self.rhs)
        if self.delta:
            rhs = f"({rhs} + {self.delta!r})"
        return f"{lhs} {_SQL_OPS[self.op]} {rhs}"

    def __str__(self) -> str:  # for plan/explain output
        rhs = ".".join(self.rhs) if self.rhs_is_ref else repr(self.rhs)
        d = f" + {self.delta}" if self.delta else ""
        return f"{self.lhs[0]}.{self.lhs[1]} {self.op} {rhs}{d}"
