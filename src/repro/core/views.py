"""Global-view definitions for secondary A+ indexes (Section 2.2).

``EdgeView`` is the paper's ``CREATE EDGE VIEW``: a selection over the
edge table whose predicates may reference the adjacent edge (``e_adj``)
and the endpoint vertices (``v_s``, ``v_d``).  ``TwoPathView`` is
``CREATE 2PATH VIEW``: a selection over 2-paths in one of the four
orientations, whose predicates may reference the bound edge (``e_b``),
the adjacent edge (``e_adj``), the far vertex (``v_nbr``) and the
shared vertex (``v_shared``): the role vocabulary of
``repro.core.config``, so its predicates are already in role form.
An edge view's predicates reach role form through ``edge_roles`` when
a vertex-bound index of a known direction is built over it.

Per Section 2.2.2, a 2-path view must contain at least one predicate
that accesses properties of **both** edges; otherwise the view would
materialize duplicated vertex neighbourhoods and a vertex-bound index
gives the same access path (``RedundantViewError``).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ROLES, Atom

# entity roles allowed in view predicates
EDGE_VIEW_ENTITIES = {"e_adj", "v_s", "v_d"}
TWOPATH_VIEW_ENTITIES = ROLES


class RedundantViewError(ValueError):
    """Raised for a 2-path view with no cross-edge predicate."""


@dataclass(frozen=True)
class Orientation:
    """How an edge's neighbourhood is defined (Section 2.2.2).

    ``anchor`` is which endpoint of the bound edge the adjacent edges
    attach to; ``adj_dir`` is which default index (fw/bw of the anchor
    vertex) the adjacent edges live in — and therefore which ID list
    the offset lists point into.
    """

    name: str
    anchor: str  # "src" | "dst" of the bound edge
    adj_dir: str  # "fw" | "bw"


#: v_s -[e_b]-> v_d -[e_adj]-> v_nbr
DST_FW = Orientation("dst-fw", "dst", "fw")
#: v_s -[e_b]-> v_d <-[e_adj]- v_nbr
DST_BW = Orientation("dst-bw", "dst", "bw")
#: v_nbr -[e_adj]-> v_s -[e_b]-> v_d
SRC_FW = Orientation("src-fw", "src", "bw")
#: v_nbr <-[e_adj]- v_s -[e_b]-> v_d
SRC_BW = Orientation("src-bw", "src", "fw")

ORIENTATIONS = {o.name: o for o in (DST_FW, DST_BW, SRC_FW, SRC_BW)}


@dataclass(frozen=True)
class EdgeView:
    """A selection view over edges (vertex-bound secondary indexes).

    ``predicates=()`` is allowed: the index then re-indexes all edges
    under a different sort order (e.g. the MagicRecs ``VB_t``), which
    enables the shared-layer storage of Section 3.
    """

    name: str
    predicates: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        for a in self.predicates:
            bad = a.entities() - EDGE_VIEW_ENTITIES
            if bad:
                raise ValueError(
                    f"edge view {self.name!r} references {sorted(bad)}; "
                    f"allowed entities: {sorted(EDGE_VIEW_ENTITIES)}"
                )


@dataclass(frozen=True)
class TwoPathView:
    """A selection view over 2-paths (edge-bound secondary indexes)."""

    name: str
    orientation: Orientation
    predicates: tuple[Atom, ...]

    def __post_init__(self) -> None:
        for a in self.predicates:
            bad = a.entities() - TWOPATH_VIEW_ENTITIES
            if bad:
                raise ValueError(
                    f"2-path view {self.name!r} references {sorted(bad)}; "
                    f"allowed entities: {sorted(TWOPATH_VIEW_ENTITIES)}"
                )
        if not any(
            {"e_b", "e_adj"} <= a.entities() for a in self.predicates
        ):
            raise RedundantViewError(
                f"2-path view {self.name!r} has no predicate accessing both "
                "edges; define a vertex-bound index instead (Section 2.2.2)"
            )
