"""Subgraph catalogue: exact averages and selectivity estimates."""
import pytest

from repro.core.config import Atom
from repro.engine.catalogue import NEQ_SEL, RANGE_SEL, Catalogue
from repro.engine.patterns import QueryGraph, QVertex
from repro.graphs.example import example_graph
from repro.graphs.generators import dataset


@pytest.fixture(scope="module")
def cat(spark):
    return Catalogue.build(example_graph(spark))


def test_counts(cat):
    assert cat.n_vertices == 8
    assert cat.n_edges == 21


def test_avg_len_overall(cat):
    assert cat.avg_len("fw") == pytest.approx(21 / 8)
    assert cat.avg_len("bw") == pytest.approx(21 / 8)


def test_avg_len_by_label(cat):
    # 12 Wire edges over 8 vertices
    assert cat.avg_len("fw", "W") == pytest.approx(12 / 8)
    assert cat.avg_len("fw", "Owns") == pytest.approx(2 / 8)


def test_avg_len_with_nbr_label(cat):
    # Owns edges all point at Account vertices
    assert cat.avg_len("fw", "Owns", "Account") == pytest.approx(2 / 8)
    assert cat.avg_len("fw", "Owns", "Customer") == 0.0


def _label(vlabel: str) -> Atom:
    return Atom(("a", "vlabel"), "=", vlabel)


def test_vlabel_sel(cat):
    assert cat.atom_sel(_label("Account")) == pytest.approx(6 / 8)
    assert cat.atom_sel(_label("Nope")) == 0.0
    # an unlabelled query vertex has no label atom, so no factor
    q = QueryGraph("q", (QVertex("a", "Account"), QVertex("b")), ())
    assert [cat.atom_sel(a) for a in q.atoms] == [pytest.approx(6 / 8)]


def test_prop_eq_sel_uses_ndv(cat):
    assert cat.prop_eq_sel("acc") == pytest.approx(1 / 2)
    assert cat.prop_eq_sel("city") == pytest.approx(1 / 3)
    assert cat.prop_eq_sel("vid") == pytest.approx(1 / 8)


def test_atom_sel_defaults(cat):
    assert cat.atom_sel(Atom(("a", "city"), "=", "X")) == pytest.approx(1 / 3)
    assert cat.atom_sel(Atom(("a", "amt"), ">", 10)) == RANGE_SEL
    assert cat.atom_sel(Atom(("a", "amt"), "!=", 10)) == NEQ_SEL


def test_sel_hints_override(spark):
    a = Atom(("e2", "time"), ">", 5)
    cat = Catalogue.build(example_graph(spark), {a: 0.07})
    assert cat.atom_sel(a) == 0.07


def test_catalogue_on_synthetic(spark):
    g = dataset(spark, "brk", scale="tiny", n_vlabels=2, n_elabels=2)
    cat = Catalogue.build(g)
    total = cat.avg_len("fw", "E0") + cat.avg_len("fw", "E1")
    assert total == pytest.approx(cat.avg_len("fw"))
    assert cat.atom_sel(_label("V0")) + cat.atom_sel(_label("V1")) == (
        pytest.approx(1.0)
    )
