"""The INDEX STORE (Section 4.2).

Registry of every A+ index in the system — the default pair plus
secondary vertex- and edge-bound indexes — with the predicate-matching
queries the optimizer issues when enumerating extensions: "is there a
vertex- or edge-bound index whose view's predicates are satisfied by
(a subset of) the predicates of this extension?".

Subsumption is syntactic, over canonicalized atoms (entity role, prop,
op, rhs, delta) — the paper's INDEX STORE likewise matches the stored
predicate/sort criteria of each index against the query's predicates.
Both sides are in role form (``repro.core.config``): an index's
``atoms`` and the optimizer's translation of each extension.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import Atom, canon_prop
from repro.core.default_index import DefaultIndex
from repro.core.edge_bound import EdgeBoundIndex
from repro.core.vertex_bound import VertexBoundIndex
from repro.core.views import Orientation


def canon_atom(a: Atom) -> tuple:
    """Hashable canonical form for syntactic subsumption checks."""
    lhs = (a.lhs[0], canon_prop(a.lhs[1]))
    rhs = (a.rhs[0], canon_prop(a.rhs[1])) if a.rhs_is_ref else a.rhs
    return (lhs, a.op, rhs, a.delta)


def atoms_subsumed(
    view_atoms: tuple[Atom, ...], role_atoms: list[Atom]
) -> bool:
    """True iff every view atom appears among the query's role-form
    atoms."""
    have = {canon_atom(a) for a in role_atoms}
    return all(canon_atom(v) in have for v in view_atoms)


@dataclass
class IndexStore:
    """All A+ indexes known to the system."""

    default_fw: DefaultIndex
    default_bw: DefaultIndex | None = None
    vertex_bound: list[VertexBoundIndex] = field(default_factory=list)
    edge_bound: list[EdgeBoundIndex] = field(default_factory=list)

    def default(self, direction: str) -> DefaultIndex:
        idx = self.default_fw if direction == "fw" else self.default_bw
        if idx is None:
            raise KeyError(f"no default {direction} index registered")
        return idx

    def add(self, index: VertexBoundIndex | EdgeBoundIndex) -> "IndexStore":
        if isinstance(index, VertexBoundIndex):
            self.vertex_bound.append(index)
        elif isinstance(index, EdgeBoundIndex):
            self.edge_bound.append(index)
        else:
            raise TypeError(type(index))
        return self

    def by_name(self, name: str):
        for idx in (self.default_fw, self.default_bw, *self.vertex_bound,
                    *self.edge_bound):
            if idx is not None and idx.name == name:
                return idx
        raise KeyError(f"no index named {name!r}")

    # -- optimizer queries -------------------------------------------------
    def match_vertex_bound(
        self, direction: str, role_atoms: list[Atom]
    ) -> list[VertexBoundIndex]:
        """Vertex-bound indexes in ``direction`` whose view predicates
        are all implied (syntactically) by the extension's atoms."""
        return [
            vb
            for vb in self.vertex_bound
            if vb.direction == direction
            and atoms_subsumed(vb.atoms, role_atoms)
        ]

    def match_edge_bound(
        self, orientation: Orientation, role_atoms: list[Atom]
    ) -> list[EdgeBoundIndex]:
        """Edge-bound indexes with the given orientation whose 2-path
        view predicates are all implied by the extension's atoms."""
        return [
            eb
            for eb in self.edge_bound
            if eb.orientation.name == orientation.name
            and atoms_subsumed(eb.atoms, role_atoms)
        ]

    def unpersist(self) -> None:
        for idx in (self.default_fw, self.default_bw, *self.vertex_bound,
                    *self.edge_bound):
            if idx is not None:
                idx.unpersist()
