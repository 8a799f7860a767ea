"""INDEX STORE registry and predicate-subsumption matching."""
import pytest

from repro.core.config import Atom, IndexConfig, edge_roles, graphflow_default
from repro.core.default_index import build_default_index
from repro.core.edge_bound import build_edge_bound
from repro.core.index_store import (
    IndexStore,
    atoms_subsumed,
    canon_atom,
)
from repro.core.vertex_bound import build_vertex_bound
from repro.core.views import DST_FW, SRC_BW, EdgeView, TwoPathView
from repro.graphs.example import example_graph


@pytest.fixture(scope="module")
def store(spark):
    g = example_graph(spark)
    fw = build_default_index(g, graphflow_default("fw"))
    bw = build_default_index(g, graphflow_default("bw"))
    s = IndexStore(fw, bw)
    s.add(
        build_vertex_bound(
            fw,
            EdgeView("usd", (Atom(("e_adj", "currency"), "=", "USD"),)),
            IndexConfig("fw"),
            name="VB.usd",
        )
    )
    s.add(
        build_vertex_bound(
            bw,
            EdgeView("from_waterloo",
                     (Atom(("v_s", "city"), "=", "Waterloo"),)),
            IndexConfig("bw"),
            name="VB.from_waterloo",
        )
    )
    s.add(
        build_edge_bound(
            fw,
            TwoPathView(
                "mf", DST_FW,
                (Atom(("e_b", "date"), "<", ("e_adj", "date")),
                 Atom(("e_adj", "amt"), "<", ("e_b", "amt"))),
            ),
            IndexConfig("fw"),
            name="EB.mf",
        )
    )
    yield s
    s.unpersist()


def test_default_lookup(store):
    assert store.default("fw").name == "D.fw"
    assert store.default("bw").name == "D.bw"


def test_by_name(store):
    assert store.by_name("VB.usd").view.name == "usd"
    with pytest.raises(KeyError):
        store.by_name("nope")


def test_add_rejects_unknown_type(store):
    with pytest.raises(TypeError):
        store.add(object())


def test_canon_atom_normalizes_surface_names():
    a = Atom(("e_adj", "label"), "=", "W")
    b = Atom(("e_adj", "elabel"), "=", "W")
    assert canon_atom(a) == canon_atom(b)


def test_edge_roles_rename():
    a = Atom(("v_s", "city"), "=", ("v_d", "city"))
    fw = a.rename(edge_roles("fw"))
    assert (fw.lhs, fw.rhs) == (("v_shared", "city"), ("v_nbr", "city"))
    bw = a.rename(edge_roles("bw"))
    assert (bw.lhs, bw.rhs) == (("v_nbr", "city"), ("v_shared", "city"))
    e = Atom(("e_adj", "amt"), ">", 5).rename(edge_roles("bw"))
    assert e == Atom(("e_adj", "amt"), ">", 5)


def test_atoms_subsumed():
    view = (Atom(("e_adj", "currency"), "=", "USD"),)
    assert atoms_subsumed(view, [Atom(("e_adj", "currency"), "=", "USD"),
                                 Atom(("e_adj", "amt"), ">", 5)])
    assert not atoms_subsumed(view, [Atom(("e_adj", "currency"), "=", "EUR")])
    assert not atoms_subsumed(view, [])


def test_match_vertex_bound(store):
    hit = store.match_vertex_bound(
        "fw", [Atom(("e_adj", "currency"), "=", "USD")]
    )
    assert [vb.name for vb in hit] == ["VB.usd"]
    assert store.match_vertex_bound("bw", [
        Atom(("e_adj", "currency"), "=", "USD")
    ]) == []
    assert store.match_vertex_bound("fw", []) == []


def test_match_backward_vertex_bound_on_neighbour(store):
    """A backward extension binds the edge's source as its neighbour
    (``v_nbr``), which a backward view writes as ``v_s``."""
    nbr = [Atom(("v_nbr", "city"), "=", "Waterloo")]
    assert [vb.name for vb in store.match_vertex_bound("bw", nbr)] == [
        "VB.from_waterloo"
    ]
    assert store.match_vertex_bound("fw", nbr) == []
    assert store.match_vertex_bound(
        "bw", [Atom(("v_shared", "city"), "=", "Waterloo")]
    ) == []


def test_match_edge_bound(store):
    atoms = [
        Atom(("e_b", "date"), "<", ("e_adj", "date")),
        Atom(("e_adj", "amt"), "<", ("e_b", "amt")),
        Atom(("v_nbr", "acc"), "=", "CQ"),
    ]
    assert [eb.name for eb in store.match_edge_bound(DST_FW, atoms)] == [
        "EB.mf"
    ]
    assert store.match_edge_bound(SRC_BW, atoms) == []
    assert store.match_edge_bound(DST_FW, atoms[:1]) == []
