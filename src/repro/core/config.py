"""Index configuration, the role vocabulary and the shared predicate AST.

A list table's columns are about one of four *roles* (Section 2.2):
the adjacent edge ``e_adj``, the neighbour vertex ``v_nbr``, the vertex
that owns the list ``v_shared`` and, in edge-bound indexes, the bound
edge ``e_b``.  ``role_col`` names the column that holds a role's
property, and is the one place those names are spelled.  An edge
view's endpoint roles ``v_s``/``v_d`` become ``v_shared``/``v_nbr``
through ``edge_roles`` once the index's direction is known.

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
# Roles and list-table columns

E_ADJ, V_NBR, V_SHARED, E_B = "e_adj", "v_nbr", "v_shared", "e_b"

#: role -> (id column, property-column prefix); edge properties keep
#: their names ("elabel", "amt", ...)
_ROLE_COLS = {
    E_ADJ: ("eid", ""),
    V_NBR: ("nbr", "nbr_"),
    V_SHARED: ("pk", "self_"),
    E_B: ("bid", "b_"),
}
ROLES = frozenset(_ROLE_COLS)


def canon_prop(prop: str) -> str:
    """Accept the paper's surface names: ``label``→``elabel``, ``ID``→vid."""
    return {"label": "elabel", "ID": "vid", "id": "vid"}.get(prop, prop)


def role_col(role: str, prop: str) -> str:
    """The list-table column holding ``role``'s property ``prop`` (its
    id for ``vid``)."""
    id_col, prefix = _ROLE_COLS[role]
    prop = canon_prop(prop)
    return id_col if prop == "vid" else prefix + prop


def field_role(col: str) -> tuple[str, str]:
    """``(role, prop)`` of a list entry's field: the inverse of
    ``role_col`` over the adjacent edge and the neighbour, the two
    roles list entries carry."""
    nbr_id, nbr_prefix = _ROLE_COLS[V_NBR]
    if col == nbr_id:
        return V_NBR, "vid"
    if col.startswith(nbr_prefix):
        return V_NBR, col[len(nbr_prefix):]
    return E_ADJ, "vid" if col == _ROLE_COLS[E_ADJ][0] else col


def edge_roles(direction: str) -> dict[str, str]:
    """An edge view's roles in the lists of a ``direction`` index: the
    list's owner is the source ``v_s`` of a forward list and the
    destination ``v_d`` of a backward one."""
    owner, nbr = ("v_s", "v_d") if direction == "fw" else ("v_d", "v_s")
    return {E_ADJ: E_ADJ, owner: V_SHARED, nbr: V_NBR}


# ---------------------------------------------------------------------------
# Property references

EDGE = "edge"
NBR = "nbr"

#: (owner, prop) — owner in {"edge", "nbr"}; prop "vid"/"elabel" are the
#: neighbour id and edge label themselves.
PropRef = tuple[str, str]

_OWNER_ROLES = {EDGE: E_ADJ, NBR: V_NBR}


def propref_col(ref: PropRef) -> str:
    """Flat-DataFrame column name for a PropRef (see default_index)."""
    owner, prop = ref
    if owner not in _OWNER_ROLES:
        raise ValueError(f"unknown PropRef owner {owner!r}")
    return role_col(_OWNER_ROLES[owner], prop)


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
            if ref[0] not in _OWNER_ROLES:
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

    def rename(self, mapping: dict[str, str]) -> Atom:
        """This atom with every entity ``e`` replaced by ``mapping[e]``."""
        lhs, rhs = (mapping[self.lhs[0]], self.lhs[1]), self.rhs
        if self.rhs_is_ref:
            rhs = (mapping[rhs[0]], rhs[1])
        return Atom(lhs, self.op, rhs, self.delta)

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
