"""The subgraph catalogue (Section 4.1): average adjacency-list
lengths and predicate-selectivity estimates used by the i-cost model.

The paper's catalogue stores estimated average lengths of different
lists (e.g. the forward Wire list of a vertex).  At reproduction scale
we compute the averages exactly over the graph's pandas frames —
cheap, and it removes estimation noise from plan-choice tests.
Predicate selectivity defaults follow the paper's approach of
multiplying list lengths by the estimated selectivity of non-label
predicates (a vertex-label atom's
selectivity is the label's exact share of the vertices); callers can
override per atom via ``sel_hints`` (the paper likewise sets the alpha
windows to known selectivities).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import Atom, canon_prop
from repro.core.index_store import canon_atom
from repro.graphs.schema import PropertyGraph

#: default selectivity for inequality/range atoms with no hint
RANGE_SEL = 0.3
NEQ_SEL = 0.9


@dataclass
class Catalogue:
    n_vertices: int
    n_edges: int
    #: (direction, elabel or None, nbr vlabel or None) -> avg list length
    avg_len_map: dict[tuple[str, str | None, str | None], float]
    #: column -> number of distinct values (vertex and edge props)
    ndv: dict[str, int]
    vlabel_frac: dict[str, float]
    sel_hints: dict[tuple, float] = field(default_factory=dict)

    @classmethod
    def build(
        cls, graph: PropertyGraph, sel_hints: dict[Atom, float] | None = None
    ) -> "Catalogue":
        nv, ne = graph.num_vertices, graph.num_edges
        vf, ef = graph.vertex_frame, graph.edge_frame
        vlabel = vf.set_index("vid")["vlabel"]
        counts = ef.groupby([
            ef["elabel"], ef["src"].map(vlabel).rename("src_vlabel"),
            ef["dst"].map(vlabel).rename("dst_vlabel"),
        ]).size().to_dict()
        avg: dict[tuple[str, str | None, str | None], float] = {}

        def bump(key, n):
            avg[key] = avg.get(key, 0.0) + n

        for (elabel, src_vlabel, dst_vlabel), n in counts.items():
            for d, nlab in (("fw", dst_vlabel), ("bw", src_vlabel)):
                bump((d, None, None), n)
                bump((d, elabel, None), n)
                bump((d, elabel, nlab), n)
                bump((d, None, nlab), n)
        avg = {k: v / nv for k, v in avg.items()}
        ndv = {
            c: max(1, int(frame[c].nunique()))
            for frame, props in ((vf, graph.vertex_props),
                                 (ef, graph.edge_props))
            for c in props
        }
        vl = (vf["vlabel"].value_counts() / nv).to_dict()
        hints = {
            canon_atom(a): s for a, s in (sel_hints or {}).items()
        }
        return cls(nv, ne, avg, ndv, vl, hints)

    # -- estimates ---------------------------------------------------------
    def avg_len(
        self,
        direction: str,
        elabel: str | None = None,
        nbr_vlabel: str | None = None,
    ) -> float:
        return self.avg_len_map.get((direction, elabel, nbr_vlabel), 0.0)

    def prop_eq_sel(self, prop: str) -> float:
        """Selectivity of an equality on a property (1/NDV)."""
        prop = canon_prop(prop)
        if prop == "vid":
            return 1.0 / max(1, self.n_vertices)
        return 1.0 / self.ndv.get(prop, 10)

    def atom_sel(self, atom: Atom) -> float:
        """Estimated selectivity of one predicate atom."""
        hit = self.sel_hints.get(canon_atom(atom))
        if hit is not None:
            return hit
        if atom.op == "=" and canon_prop(atom.lhs[1]) == "vlabel":
            return self.vlabel_frac.get(atom.rhs, 0.0)
        if atom.op == "=":
            return self.prop_eq_sel(atom.lhs[1])
        if atom.op == "!=":
            return NEQ_SEL
        return RANGE_SEL
