"""The Section-3 offset-list indirection micro-benchmark.

5-hop path enumeration from a set of source vertices, reading neighbour
IDs three ways:

* ``sequential`` — slice the contiguous ID lists (best locality);
* ``list`` — read each ID list through a per-list random permutation
  (offset-list indirection: random reads confined to one small list);
* ``graph`` — the paper's worst-locality baseline: the adjacency data
  is shuffled into one global array and every logical slot is resolved
  through a graph-wide indirection, so successive reads span the whole
  edge array.

All three modes enumerate exactly the same multiset of paths (the
indirections permute *where* entries live, not *what* they are); the
benchmark times the reads.  Frontiers are expanded with vectorized
gathers (``np.repeat``/cumsum range trick), mirroring the paper's
"read the IDs in adjacency lists and copy them over to tuples".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODES = ("sequential", "list", "graph")


@dataclass
class IndirectionData:
    """One direction's ID lists as a two-array CSR, plus the read-order
    structures of the ``list`` and ``graph`` modes."""

    indptr: np.ndarray  # int64, len V+1; v's list is indptr[v]:indptr[v+1]
    nbrs: np.ndarray  # int32 (4-byte neighbour ids), each list sorted
    list_perm: np.ndarray  # slot -> slot, confined within each list
    graph_perm: np.ndarray  # logical slot -> physical slot, global
    nbrs_shuffled: np.ndarray  # physical storage for graph mode


def prepare(
    n_vertices: int, src: np.ndarray, dst: np.ndarray, seed: int = 0
) -> IndirectionData:
    """Build the forward ID lists of the edges ``src[i] -> dst[i]``
    (vertex ids in ``[0, n_vertices)``) and the two indirections.

    Each sort is one exact int64 argsort over a composite key whose
    high bits are the list owner: ``(src, dst)`` orders the lists, and
    ``(owner, random)`` permutes each list's slots within its own range.
    """
    rng = np.random.default_rng(seed)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    ne = len(src)
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_vertices), out=indptr[1:])
    nbrs = dst[np.argsort((src << 32) | dst)].astype(np.int32)
    # random keys take every bit the owner id leaves free
    bits = 63 - int(n_vertices).bit_length()
    owner = np.repeat(np.arange(n_vertices, dtype=np.int64), np.diff(indptr))
    list_perm = np.argsort((owner << bits) | rng.integers(0, 1 << bits, ne))
    graph_perm = rng.permutation(ne).astype(np.int64)
    nbrs_shuffled = np.empty_like(nbrs)
    nbrs_shuffled[graph_perm] = nbrs
    return IndirectionData(indptr, nbrs, list_perm, graph_perm, nbrs_shuffled)


def _slot_ranges(indptr: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Edge-slot indices of all frontier vertices' list entries,
    concatenated — the vectorized equivalent of looping over lists.

    Zero-length lists must be dropped before the cumsum range trick:
    they would make several range boundaries collide on one output
    position and corrupt the offsets.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    nz = counts > 0
    starts, counts = starts[nz], counts[nz]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    idx = np.cumsum(counts)[:-1]
    out[0] = starts[0]
    out[idx] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    return np.cumsum(out)


def enumerate_paths(
    data: IndirectionData,
    sources: np.ndarray,
    hops: int = 5,
    mode: str = "sequential",
    max_frontier: int = 20_000_000,
) -> tuple[int, int]:
    """Enumerate ``hops``-hop paths; returns (#final tuples, checksum).

    ``max_frontier`` caps materialized tuples per hop, applied
    identically in every mode so comparisons stay fair (tests that
    assert cross-mode equality use graphs below the cap).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    frontier = np.asarray(sources, dtype=np.int64)
    checksum = 0
    for _ in range(hops):
        slots = _slot_ranges(data.indptr, frontier)
        if mode == "sequential":
            nxt = data.nbrs[slots]
        elif mode == "list":
            nxt = data.nbrs[data.list_perm[slots]]
        else:
            nxt = data.nbrs_shuffled[data.graph_perm[slots]]
        checksum += int(nxt.sum(dtype=np.int64))
        frontier = nxt.astype(np.int64)
        if len(frontier) > max_frontier:
            frontier = frontier[:max_frontier]
    return len(frontier), checksum
