"""Section-3 indirection micro-benchmark: the two-array CSR holds the
edge table's neighbourhoods, all three read modes enumerate the same
paths, and the permutations have the claimed structure."""
import numpy as np
import pytest

from repro.graphs.generators import dataset
from repro.storage.indirection import MODES, enumerate_paths, prepare


@pytest.fixture(scope="module")
def edges(spark):
    g = dataset(spark, "brk", scale="tiny")
    return g.num_vertices, g.edges.select("src", "dst").toPandas()


@pytest.fixture(scope="module")
def data(edges):
    nv, e = edges
    return prepare(nv, e["src"].to_numpy(), e["dst"].to_numpy(), seed=1)


def _neighbourhoods(data) -> dict[int, list[int]]:
    return {
        v: data.nbrs[data.indptr[v]:data.indptr[v + 1]].tolist()
        for v in range(len(data.indptr) - 1)
        if data.indptr[v + 1] > data.indptr[v]
    }


def test_indptr_spans_the_edges(edges, data):
    _, e = edges
    assert data.indptr[0] == 0 and data.indptr[-1] == len(e)
    assert np.all(np.diff(data.indptr) >= 0)


def test_nbrs_are_4_byte_ids(data):
    assert data.nbrs.dtype == np.int32


def test_neighbours_match_edge_table(edges, data):
    """Each list holds its vertex's forward neighbours, sorted."""
    _, e = edges
    want = e.groupby("src")["dst"].apply(sorted).to_dict()
    assert _neighbourhoods(data) == want


def test_swapped_endpoints_give_backward_lists(edges):
    nv, e = edges
    bw = prepare(nv, e["dst"].to_numpy(), e["src"].to_numpy())
    want = e.groupby("dst")["src"].apply(sorted).to_dict()
    assert _neighbourhoods(bw) == want


def test_modes_agree_on_counts_and_checksums(data):
    results = {
        m: enumerate_paths(data, np.arange(20), hops=3, mode=m)
        for m in MODES
    }
    assert len({r for r in results.values()}) == 1  # same (count, sum)


def test_hop_growth(data):
    n1, _ = enumerate_paths(data, np.arange(50), hops=1)
    n3, _ = enumerate_paths(data, np.arange(50), hops=3)
    assert n3 > n1 > 0


def test_list_perm_confined_to_lists(data):
    for v in range(len(data.indptr) - 1):
        s, e = data.indptr[v], data.indptr[v + 1]
        seg = data.list_perm[s:e]
        assert sorted(seg.tolist()) == list(range(s, e))


def test_graph_perm_is_global_permutation(data):
    assert sorted(data.graph_perm.tolist()) == list(range(len(data.nbrs)))


def test_shuffled_storage_roundtrips(data):
    got = data.nbrs_shuffled[data.graph_perm]
    assert np.array_equal(got, data.nbrs)


def test_bad_mode_raises(data):
    with pytest.raises(ValueError):
        enumerate_paths(data, np.arange(2), mode="nope")


def test_empty_frontier(data):
    n, c = enumerate_paths(data, np.array([], dtype=np.int64), hops=5)
    assert (n, c) == (0, 0)


def test_max_frontier_cap(data):
    n, _ = enumerate_paths(data, np.arange(50), hops=4, max_frontier=100)
    assert n <= 100 * 40  # one expansion past the cap at most


def test_zero_degree_vertices_in_frontier(data):
    """Regression: sinks in the frontier must not corrupt the
    vectorized slot ranges (their zero-length ranges collide)."""
    deg = np.diff(data.indptr)
    sinks = np.where(deg == 0)[0]
    nonsink = np.where(deg > 0)[0][:5]
    frontier = np.concatenate([sinks[:3], nonsink, sinks[3:6]])
    results = {
        m: enumerate_paths(data, frontier, hops=4, mode=m) for m in MODES
    }
    assert len(set(results.values())) == 1
    n, _ = results["sequential"]
    want, _ = enumerate_paths(data, nonsink, hops=4, mode="sequential")
    assert n == want  # sinks contribute nothing
