"""Deterministic synthetic analogs of the paper's datasets (Table 2).

The paper evaluates on Orkut, LiveJournal, Wiki-topcats, and BerkStan
(7.6M–117M edges).  Those exceed the laptop/pytest budget, so we
generate power-law digraphs at ~1/600 scale with the **same average
degrees** and heavy-tailed in/out-degree skew (Chung-Lu style: edge
endpoints drawn from Zipf popularity weights), plus a reciprocity knob
(social graphs have many mutual edges, which guarantees directed
cycles for the cyclic workloads).

``G_{i,j}`` label decoration from Section 5.1 — *i* random vertex
labels, *j* random edge labels, uniform — is reproduced by
:func:`with_labels`.

All generation is driver-side NumPy over pandas frames, deterministic
in ``seed``: :func:`powerlaw_digraph` makes the frames and
:func:`with_labels` replaces their label columns.  Neither touches
Spark; the graph hands each frame to Spark once, when an index or plan
first reads it (:class:`~repro.graphs.schema.PropertyGraph`).  Graphs
at this scale are a few MB, while query intermediates (the thing being
benchmarked) reach millions of rows.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs.schema import PropertyGraph


@dataclass(frozen=True)
class DatasetSpec:
    """Shape parameters for one dataset analog."""

    name: str
    n_vertices: int
    n_edges: int
    reciprocity: float  # fraction of edges mirrored with a reverse edge
    alpha: float  # Zipf exponent for endpoint popularity (skew)
    mirrors: str  # the paper dataset this analog stands in for


# Scaled ~1/600 from Table 2, average degree preserved.
DATASETS: dict[str, DatasetSpec] = {
    "ork": DatasetSpec("ork", 5_000, 195_000, 0.30, 0.60, "Orkut 3.0M/117.1M/39.0"),
    "lj": DatasetSpec("lj", 8_000, 114_000, 0.30, 0.65, "LiveJournal 4.8M/68.5M/14.3"),
    "wt": DatasetSpec("wt", 3_000, 47_500, 0.10, 0.70, "Wiki-topcats 1.8M/28.5M/15.8"),
    "brk": DatasetSpec("brk", 1_400, 15_500, 0.15, 0.75, "BerkStan 685K/7.6M/11.1"),
}

#: test-scale variants (~1/20 of bench scale, same average degree)
TINY_DIVISOR = 20


def _zipf_weights(n: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf(alpha) weights over a random permutation of vertex ids.

    The permutation decorrelates in- and out-popularity so hubs differ
    between directions, as in real web/social graphs.
    """
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** alpha
    w /= w.sum()
    return w[rng.permutation(n)]


def powerlaw_digraph(
    spark: SparkSession,
    *,
    name: str,
    n_vertices: int,
    n_edges: int,
    seed: int,
    alpha: float = 0.65,
    reciprocity: float = 0.2,
) -> PropertyGraph:
    """Generate a simple (no self-loops, no duplicate (src, dst))
    power-law digraph with ``n_edges`` edges, deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    out_w = _zipf_weights(n_vertices, alpha, rng)
    in_w = _zipf_weights(n_vertices, alpha, rng)
    pairs: np.ndarray = np.empty((0, 2), dtype=np.int64)
    want = n_edges
    # Rejection-sample in rounds until the deduped simple graph is big
    # enough; each round oversamples by 1.5x of the remaining need.
    for _ in range(40):
        if len(pairs) >= want:
            break
        m = int((want - len(pairs)) * 1.5) + 16
        src = rng.choice(n_vertices, size=m, p=out_w)
        dst = rng.choice(n_vertices, size=m, p=in_w)
        new = np.stack([src, dst], axis=1)
        if reciprocity > 0:
            flip = rng.random(m) < reciprocity
            new = np.concatenate([new, new[flip][:, ::-1]])
        pairs = np.unique(np.concatenate([pairs, new]), axis=0)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if len(pairs) < want:
        raise RuntimeError(
            f"could not reach {want} unique edges for {name} "
            f"(got {len(pairs)}); lower density or alpha"
        )
    # Deterministic subset + shuffle so eid order is not correlated
    # with (src, dst) sort order.
    keep = rng.permutation(len(pairs))[:want]
    pairs = pairs[keep]
    edges = pd.DataFrame(
        {
            "eid": np.arange(want, dtype=np.int64),
            "src": pairs[:, 0],
            "dst": pairs[:, 1],
            "elabel": "E0",
        }
    )
    vertices = pd.DataFrame(
        {"vid": np.arange(n_vertices, dtype=np.int64), "vlabel": "V0"}
    )
    return PropertyGraph(
        name, spark, vertices, edges,
        {"seed": seed, "n_vertices": n_vertices, "n_edges": want},
    )


def with_labels(
    graph: PropertyGraph, *, n_vlabels: int, n_elabels: int, seed: int = 7
) -> PropertyGraph:
    """Random uniform ``G_{i,j}`` label decoration (Section 5.1).

    Labels are drawn per row of the frames, in ``vid`` and ``eid``
    order, so the assignment is deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    vlabel = [f"V{k}" for k in rng.integers(0, n_vlabels, graph.num_vertices)]
    elabel = [f"E{k}" for k in rng.integers(0, n_elabels, graph.num_edges)]
    return replace(
        graph,
        name=f"{graph.name}_{n_vlabels}_{n_elabels}",
        vertex_frame=graph.vertex_frame.assign(vlabel=vlabel),
        edge_frame=graph.edge_frame.assign(elabel=elabel),
        meta={**graph.meta, "n_vlabels": n_vlabels, "n_elabels": n_elabels},
    )


def dataset(
    spark: SparkSession,
    name: str,
    *,
    scale: str = "bench",
    n_vlabels: int = 1,
    n_elabels: int = 1,
    seed: int = 0,
) -> PropertyGraph:
    """Build a dataset analog (``ork``/``lj``/``wt``/``brk``) at
    ``scale`` in {"bench", "tiny"} with optional ``G_{i,j}`` labels.
    """
    spec = DATASETS[name]
    div = 1 if scale == "bench" else TINY_DIVISOR
    g = powerlaw_digraph(
        spark,
        name=f"{spec.name}-{scale}",
        n_vertices=max(30, spec.n_vertices // div),
        n_edges=max(60, spec.n_edges // div),
        seed=seed,
        alpha=spec.alpha,
        reciprocity=spec.reciprocity,
    )
    if n_vlabels > 1 or n_elabels > 1:
        g = with_labels(g, n_vlabels=n_vlabels, n_elabels=n_elabels, seed=seed + 7)
    return g
