"""Dynamic-programming join optimizer with i-cost (Section 4.1).

For each k the optimizer finds the cheapest plan for every sub-query
over k query vertices, extending smaller sub-queries by

* an E/I operator (``Extend`` for one connecting edge, WCO-style
  ``IntersectExtend`` for z≥2 connecting edges on neighbour-id-sorted
  lists, or Extend+``CloseExtend`` when intersection is unavailable), or
* a ``MultiExtend`` operator when z≥2 *new* query vertices are linked
  by equality predicates on a common property and property-sorted lists
  exist for all of them (the paper's structurally-acyclic WCO plans).

For every extension the INDEX STORE is consulted for vertex- and
edge-bound indexes whose view predicates are subsumed by the
extension's predicates; every candidate access yields a plan
alternative.  The cost metric is **i-cost**: the estimated total length
of adjacency lists accessed.  A list narrowed by index partitioning, a
stored view predicate, or sorted-array pruning counts only its narrowed
length, while predicates a ``Filter`` evaluates per edge right after
the access do not shrink the accessed length — this asymmetry is what
makes the optimizer prefer A+ indexes that subsume predicates, as in
the paper.

Every constraint is an atom (``QueryGraph.atoms``: the labels, then the
predicates), and each atom is enforced exactly once and its selectivity
counted once: by the SCAN of its one vertex, by a list access (a view,
a partition lookup key or a sorted-array prune), or by the one
``Filter`` that follows each operator with the atoms its accesses left
over and every other pending atom whose variables are now bound.

``engine`` picks one of the three engines Section 5.6 compares
(Table 7).  Neo4j and TigerGraph are closed-source and not installable
offline, so they are simulated as capability restrictions of the same
engine — the honest way to reproduce the table's shape on one
substrate:

* **GF (GraphflowDB)** — the full plan space above: WCO intersections,
  MULTI-EXTEND, sorted-array pruning and secondary indexes (Table 7
  runs it on the ``D_p`` default indexes).
* **TG (TigerGraph-like)** — a typed-graph traversal engine: granular
  edge-label lists and filter pushdown, but binary ``Extend``/
  ``CloseExtend`` joins over the default lists only — no intersections,
  no sorted-list pruning, no secondary indexes.
* **N4 (Neo4j-like)** — an EXPAND-then-FILTER pipeline: TG's binary
  joins over granular edge-label ("relationship type") lists, with every
  label and property predicate that is not a list lookup key applied
  by one ``Filter`` at the end of the pipeline rather than pushed into
  the traversal (Cypher's Expand(a)→Filter(a:Label) plan shape).

Absolute gaps to the real systems (e.g. Neo4j's record-at-a-time
interpretation overhead) are *not* simulated; DESIGN.md documents this
substitution and EXPERIMENTS.md flags it next to Table 7.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from repro.core.config import (E_ADJ, E_B, NBR, V_NBR, V_SHARED, Atom,
                                canon_prop, field_role, propref_col, role_col)
from repro.core.index_store import canon_atom
from repro.core.views import ORIENTATIONS
from repro.engine.catalogue import Catalogue
from repro.engine.operators import (
    CloseExtend,
    EngineContext,
    Extend,
    ExtTarget,
    Filter,
    IntersectExtend,
    ListAccess,
    MultiExtend,
    Scan,
)
from repro.engine.patterns import QEdge, QueryGraph
from repro.engine.plans import Plan

_EPS = 1e-9

#: the engines of Section 5.6 (Table 7)
ENGINES = ("GF", "TG", "N4")


@dataclass(frozen=True)
class AccessCand:
    """One way to read the adjacency list of an extension."""

    access: ListAccess
    from_var: str  # vertex var, or bound-edge var for edge-bound access
    est_accessed: float  # avg list length touched per partial match
    satisfied: frozenset  # canon forms of the query atoms it enforces
    post_atoms: tuple[Atom, ...]  # the atoms it leaves to a FILTER
    id_sorted: bool  # usable in neighbour-id intersections
    sort_field: str | None  # effective leading sort field after pruning


@dataclass(frozen=True)
class PState:
    bound_v: frozenset
    bound_e: frozenset
    applied: frozenset  # canon atoms already enforced
    ops: tuple
    cost: float
    card: float


class Optimizer:
    def __init__(
        self, ctx: EngineContext, catalogue: Catalogue, engine: str = "GF"
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}: expected one of {ENGINES}"
            )
        self.ctx = ctx
        self.cat = catalogue
        # GF plans over the whole A+ plan space; TG and N4 use binary
        # Extend/CloseExtend joins over granular default lists only
        self.a_plus = engine == "GF"
        # N4 defers every non-structural predicate to the end of the plan
        self.defer = engine == "N4"

    # ------------------------------------------------------------------
    def plan(self, q: QueryGraph) -> Plan:
        best: dict[frozenset, PState] = {}
        for v in q.vertices:
            st = self._scan_state(q, v.name)
            if st.bound_v not in best or st.cost < best[st.bound_v].cost:
                best[st.bound_v] = st
        for size in range(1, len(q.vertices)):
            for key in [k for k in best if len(k) == size]:
                for nxt in self._transitions(q, best[key]):
                    k2 = nxt.bound_v
                    if k2 not in best or nxt.cost < best[k2].cost:
                        best[k2] = nxt
        full = frozenset(q.vertex_names)
        if full not in best:
            raise ValueError(
                f"no plan found for query {q.name!r} (disconnected pattern "
                "or a predicate no allowed access path can enforce)"
            )
        final = self._apply_pending(q, best[full], final=True)
        remaining = [a for a in q.atoms if canon_atom(a) not in final.applied]
        if remaining:
            raise ValueError(
                f"query {q.name!r}: predicates "
                f"{[str(a) for a in remaining]} reference variables no "
                "operator bound (e.g. closing-edge properties after an "
                "intersection)"
            )
        return Plan(q.name, final.ops)

    # ------------------------------------------------------------------
    def _scan_state(self, q: QueryGraph, var: str) -> PState:
        local = () if self.defer else tuple(
            a for a in q.atoms if a.entities() == {var} and not a.rhs_is_ref
        )
        card = float(max(self.cat.n_vertices, 1))
        for a in local:
            card *= self.cat.atom_sel(a)
        return PState(
            frozenset({var}), frozenset(),
            frozenset(canon_atom(a) for a in local),
            (Scan(var, local),), 0.0, max(card, _EPS),
        )

    # ------------------------------------------------------------------
    def _transitions(self, q: QueryGraph, st: PState):
        one_edge: dict[str, list[QEdge]] = {}
        for x in (v for v in q.vertex_names if v not in st.bound_v):
            conn = [
                e for e in q.edges
                if (e.src == x and e.dst in st.bound_v)
                or (e.dst == x and e.src in st.bound_v)
            ]
            if conn:
                one_edge[x] = conn
                yield from self._extend_transitions(q, st, x, conn)
        if self.a_plus:
            yield from self._multi_transitions(q, st, one_edge)

    # -- single-vertex E/I ---------------------------------------------
    def _extend_transitions(self, q, st, x, conn):
        cand_sets = [self._edge_candidates(q, st, c, x) for c in conn]
        if any(not cs for cs in cand_sets):
            return
        if len(conn) == 1:
            for cand in cand_sets[0]:
                yield self._extend(q, st, x, conn[0], cand)
            return
        # z >= 2 WCO intersection: all lists id-sorted; predicates on the
        # closing edges must be enforced by the accesses (the new
        # vertex's own predicates can still be filtered afterwards).
        if self.a_plus:
            usable = []
            for cs in cand_sets:
                ok = [
                    c for c in cs
                    if c.id_sorted
                    and all(a.entities() == {x} for a in c.post_atoms)
                ]
                usable.append(ok)
            if all(usable):
                picks = [min(cs, key=lambda c: c.est_accessed) for cs in usable]
                sources = tuple((c.from_var, c.access) for c in picks)
                out = 1.0
                for c in picks:
                    out *= max(c.est_accessed, _EPS)
                out /= max(1, self.cat.n_vertices) ** (len(picks) - 1)
                nxt = PState(
                    st.bound_v | {x}, st.bound_e,
                    st.applied.union(*(c.satisfied for c in picks)),
                    st.ops + (IntersectExtend(x, sources),),
                    st.cost + st.card * sum(c.est_accessed for c in picks),
                    st.card * max(out, _EPS),
                )
                yield self._apply_pending(
                    q, nxt, tuple(a for c in picks for a in c.post_atoms)
                )
        # fallback: Extend the cheapest edge, then CloseExtend each other
        # edge with the atoms the steps before it left unapplied
        picks = [min(cs, key=lambda c: c.est_accessed) for cs in cand_sets]
        first = min(range(len(conn)), key=lambda i: picks[i].est_accessed)
        nxt = self._extend(q, st, x, conn[first], picks[first])
        for i, c in enumerate(conn):
            if i != first:
                ci = min(self._edge_candidates(q, nxt, c, x),
                         key=lambda k: k.est_accessed)
                nxt = self._extend(q, nxt, x, c, ci, close=True)
        yield nxt

    def _extend(self, q, st, x, c: QEdge, cand: AccessCand,
                close: bool = False) -> PState:
        """``st`` after an ``Extend`` of ``x`` over edge ``c`` through
        ``cand`` (a ``CloseExtend`` if ``x`` is bound), and its FILTER."""
        op = (CloseExtend if close else Extend)(
            cand.from_var, x, c.name, cand.access
        )
        # a close keeps the entries that are the bound x
        hit = 1.0 / max(1, self.cat.n_vertices) if close else 1.0
        return self._apply_pending(
            q,
            PState(
                st.bound_v | {x}, st.bound_e | {c.name},
                st.applied | cand.satisfied, st.ops + (op,),
                st.cost + st.card * cand.est_accessed,
                st.card * max(cand.est_accessed, _EPS) * hit,
            ),
            cand.post_atoms,
        )

    # -- MULTI-EXTEND ---------------------------------------------------
    def _multi_transitions(self, q, st, one_edge):
        singles = {x for x, es in one_edge.items() if len(es) == 1}
        if len(singles) < 2:
            return
        links: dict[str, set[frozenset]] = {}
        for a in q.atoms:
            if a.op == "=" and a.rhs_is_ref and not a.delta:
                va, pa = a.lhs[0], canon_prop(a.lhs[1])
                vb, pb = a.rhs[0], canon_prop(a.rhs[1])
                if pa == pb and va in singles and vb in singles and va != vb:
                    links.setdefault(pa, set()).add(frozenset((va, vb)))
        for prop, pairs in links.items():
            nodes = sorted({v for p in pairs for v in p})
            for z in (2, 3):
                for T in itertools.combinations(nodes, z):
                    if self._eq_connected(T, pairs):
                        nxt = self._multi_state(q, st, T, prop, one_edge)
                        if nxt is not None:
                            yield nxt

    @staticmethod
    def _eq_connected(T, pairs) -> bool:
        seen = {T[0]}
        grew = True
        while grew:
            grew = False
            for p in pairs:
                a, b = tuple(p)
                if a in seen and b in T and b not in seen:
                    seen.add(b)
                    grew = True
                if b in seen and a in T and a not in seen:
                    seen.add(a)
                    grew = True
        return set(T) <= seen

    def _multi_state(self, q, st, T, prop, one_edge):
        """The MULTI-EXTEND of the vertices ``T`` (each joined to the
        bound vertices by one edge, ``one_edge[x]``) on ``prop``, or
        ``None`` when some list is not sorted on it."""
        field_name = role_col(V_NBR, prop)
        targets, sat, acc, out = [], set(), 0.0, 1.0
        posts: list[Atom] = []
        for x in T:
            c = one_edge[x][0]
            cands = [
                k for k in self._edge_candidates(q, st, c, x)
                if k.sort_field == field_name
            ]
            if not cands:
                return None
            k = min(cands, key=lambda cc: cc.est_accessed)
            targets.append(ExtTarget(k.from_var, x, c.name, k.access))
            sat |= k.satisfied
            posts.extend(k.post_atoms)
            acc += k.est_accessed
            out *= max(k.est_accessed, _EPS)
        eq_atoms = [
            a for a in q.atoms
            if a.op == "=" and a.rhs_is_ref and not a.delta
            and canon_prop(a.lhs[1]) == prop
            and canon_prop(a.rhs[1]) == prop
            and {a.lhs[0], a.rhs[0]} <= set(T)
        ]
        sat |= {canon_atom(a) for a in eq_atoms}
        out *= self.cat.prop_eq_sel(prop) ** (len(T) - 1)
        op = MultiExtend(tuple(targets), field_name)
        nxt = PState(
            st.bound_v | set(T),
            st.bound_e | {t.edge_var for t in targets},
            st.applied | frozenset(sat),
            st.ops + (op,),
            st.cost + st.card * acc,
            st.card * max(out, _EPS),
        )
        return self._apply_pending(q, nxt, tuple(posts))

    # -- candidate accesses for one connecting edge ---------------------
    def _edge_candidates(self, q, st, c: QEdge, x: str) -> list[AccessCand]:
        u = c.src if c.dst == x else c.dst
        d = "fw" if c.src == u else "bw"
        evar = c.name

        # query atoms this extension could enforce locally, in role form:
        # through a default or vertex-bound list of either direction the
        # edge is e_adj, the new vertex v_nbr and the bound one v_shared
        roles = {evar: E_ADJ, x: V_NBR, u: V_SHARED}
        pairs_v = [
            (a, a.rename(roles)) for a in q.atoms
            if canon_atom(a) not in st.applied
            and a.entities() <= {evar, x} and not a.rhs_is_ref
        ]

        cands = self._index_cands(self.ctx.store.default(d), u, d, pairs_v)
        if not self.a_plus:
            return cands
        role_atoms = [ra for _, ra in pairs_v]
        for vb in self.ctx.store.match_vertex_bound(d, role_atoms):
            cands += self._index_cands(vb, u, d, pairs_v)
        for bvar in st.bound_e:
            qb = q.edge(bvar)
            for anch in ("dst", "src"):
                if getattr(qb, anch) != u:
                    continue
                ori = next(o for o in ORIENTATIONS.values()
                           if o.anchor == anch and o.adj_dir == d)
                eb_roles = {**roles, bvar: E_B}
                pairs_eb = pairs_v + [
                    (a, a.rename(eb_roles)) for a in q.atoms
                    if canon_atom(a) not in st.applied
                    and bvar in a.entities()
                    and a.entities() <= {bvar, evar, x, u}
                ]
                role_atoms = [ra for _, ra in pairs_eb]
                for eb in self.ctx.store.match_edge_bound(ori, role_atoms):
                    cands += self._index_cands(eb, bvar, d, pairs_eb)
        return cands

    def _index_cands(self, idx, from_var, d, pairs) -> list[AccessCand]:
        """Build the access candidate for one concrete index.

        ``pairs`` is [(query atom, role atom)].  Atoms enforced by the
        index's *view* (its role-form ``atoms``) are free;
        partition-column equalities become lookup keys;
        leading-sort-column literals become array predicates; the rest
        are left to a FILTER after the access.
        """
        view_canon = {canon_atom(v) for v in idx.atoms}
        satisfied: set = set()
        rest: list[tuple[Atom, Atom]] = []
        for qa, ra in pairs:
            if canon_atom(ra) in view_canon:
                satisfied.add(canon_atom(qa))
            else:
                rest.append((qa, ra))

        cfg = idx.config
        part_eq: list[tuple[str, object]] = []
        for ref in cfg.partition_by:
            col = propref_col(ref)
            hit = next(
                ((qa, ra) for qa, ra in rest
                 if ra.op == "=" and not ra.rhs_is_ref
                 and role_col(*ra.lhs) == col),
                None,
            )
            if hit is None:
                break
            part_eq.append((col, hit[0].rhs))
            satisfied.add(canon_atom(hit[0]))
            rest.remove(hit)

        array_preds: list[tuple[str, str, object]] = []
        sort_field = propref_col(cfg.sort_by[0]) if cfg.sort_by else None
        if self.a_plus and cfg.sort_by:
            for i, ref in enumerate(cfg.sort_by):
                col = propref_col(ref)
                hits = [
                    (qa, ra) for qa, ra in rest
                    if not ra.rhs_is_ref and role_col(*ra.lhs) == col
                ]
                for qa, ra in hits:
                    array_preds.append((col, ra.op, qa.rhs))
                    satisfied.add(canon_atom(qa))
                    rest.remove((qa, ra))
                if not any(ra.op == "=" for _, ra in hits):
                    break
                sort_field = (
                    propref_col(cfg.sort_by[i + 1])
                    if i + 1 < len(cfg.sort_by) else None
                )

        id_sorted = bool(cfg.sort_by) and cfg.sort_by[-1] == (NBR, "vid")
        if id_sorted and len(cfg.sort_by) > 1:
            eq_bound = {col for col, op, _ in array_preds if op == "="}
            id_sorted = all(
                propref_col(r) in eq_bound for r in cfg.sort_by[:-1]
            )

        return [
            AccessCand(
                access=ListAccess(idx.name, tuple(part_eq),
                                  tuple(array_preds)),
                from_var=from_var,
                est_accessed=self._estimate(d, part_eq, array_preds,
                                            idx.atoms),
                satisfied=frozenset(satisfied),
                post_atoms=tuple(qa for qa, _ in rest),
                id_sorted=id_sorted,
                sort_field=sort_field,
            )
        ]

    def _estimate(self, d, part_eq, array_preds, view_atoms) -> float:
        elab = next((v for c, v in part_eq if c == "elabel"), None)
        vlab = next((v for c, v in part_eq
                     if c == role_col(V_NBR, "vlabel")), None)
        stored = self.cat.avg_len(d, elab, vlab)
        for a in view_atoms:
            if canon_prop(a.lhs[1]) == "elabel" and a.op == "=" and elab:
                continue
            stored *= self.cat.atom_sel(a)
        accessed = stored
        # a prune's atom names no query variable, so no sel hint applies;
        # an id keeps its column name, which has no NDV in the catalogue
        for col, op, val in array_preds:
            prop = field_role(col)[1]
            prop = col if prop == "vid" else prop
            accessed *= self.cat.atom_sel(Atom(("x", prop), op, val))
        return accessed

    # -- filter application --------------------------------------------
    def _apply_pending(self, q, st: PState, post: tuple[Atom, ...] = (),
                       final: bool = False) -> PState:
        """``st`` followed by at most one FILTER: the atoms ``post`` that
        the last operator's accesses left over, and every other atom not
        yet applied whose variables ``st`` binds.  Each atom's
        selectivity is counted here, once.  N4 defers them all to the
        ``final`` FILTER at the end of the plan."""
        if self.defer and not final:
            return st
        bound = st.bound_v | st.bound_e
        todo: dict[tuple, Atom] = {}
        for a in post + q.atoms:
            ca = canon_atom(a)
            if ca not in st.applied and a.entities() <= bound:
                todo.setdefault(ca, a)
        if not todo:
            return st
        card = st.card
        for a in todo.values():
            card *= self.cat.atom_sel(a)
        return replace(
            st, ops=st.ops + (Filter(tuple(todo.values())),),
            applied=st.applied | todo.keys(), card=max(card, _EPS),
        )
