"""Property decoration for the financial-fraud and MagicRecs workloads.

Section 5.3.2: "randomly added each vertex an account type property
from [CQ, SV], a city from 4417 cities, and to each edge an amount in
the range [1, 1000] and a date within a 5 year range."  Cities are
scaled with graph size (default one city per ~50 vertices) so the
number of vertices sharing a city — which drives the size of city
intersections — matches the paper's ratio regime; the count used is
recorded in ``graph.meta``.

Section 5.3.1 (MagicRecs) needs an edge ``time`` property and a
threshold with a given selectivity; Section 5.4 needs the money-flow
``alpha`` window calibrated to a target selectivity.  Both calibrations
are empirical (quantiles over the actual generated values), matching
the paper's "we set alpha ... to have a 5% selectivity".

Decoration and calibration read and write the graph's pandas frames
only; each decorator returns a new graph over new frames, in ``vid``
and ``eid`` order, and leaves the Spark tables to be made on first use.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.graphs.schema import PropertyGraph

AMT_LO, AMT_HI = 1.0, 1000.0
DATE_DAYS = 5 * 365  # "a date within a 5 year range"
TIME_RANGE = 1_000_000  # MagicRecs integer timestamp range


def decorate_financial(
    graph: PropertyGraph, *, n_cities: int | None = None, seed: int = 11
) -> PropertyGraph:
    """Add acc/city vertex properties and amt/date edge properties."""
    rng = np.random.default_rng(seed)
    nv, ne = graph.num_vertices, graph.num_edges
    if n_cities is None:
        n_cities = max(4, nv // 50)
    vdf = graph.vertex_frame.assign(
        acc=np.where(rng.random(nv) < 0.5, "CQ", "SV"),
        city=[f"C{k}" for k in rng.integers(0, n_cities, nv)],
    )
    edf = graph.edge_frame.assign(
        amt=np.round(rng.uniform(AMT_LO, AMT_HI, ne), 2),
        date=rng.integers(0, DATE_DAYS, ne).astype(np.int64),
    )
    return replace(
        graph, name=graph.name + "+fin", vertex_frame=vdf, edge_frame=edf,
        meta={**graph.meta, "n_cities": n_cities, "fin_seed": seed},
    )


def decorate_time(graph: PropertyGraph, *, seed: int = 13) -> PropertyGraph:
    """Add the MagicRecs integer ``time`` edge property."""
    rng = np.random.default_rng(seed)
    time = rng.integers(0, TIME_RANGE, graph.num_edges).astype(np.int64)
    return replace(
        graph, name=graph.name + "+time",
        edge_frame=graph.edge_frame.assign(time=time),
        meta={**graph.meta, "time_seed": seed},
    )


def time_threshold(graph: PropertyGraph, selectivity: float) -> int:
    """Threshold T such that ``time > T`` selects ~``selectivity`` of
    edges ("started following recently", 5% in Section 5.3.1)."""
    times = np.sort(graph.edge_frame["time"].to_numpy())
    idx = int(len(times) * (1.0 - selectivity))
    return int(times[min(idx, len(times) - 1)])


def calibrate_alpha(
    graph: PropertyGraph,
    target_selectivity: float,
    *,
    n_samples: int = 200_000,
    seed: int = 17,
) -> float:
    """Find the money-flow window ``alpha`` whose 2-path predicate
    ``e1.date < e2.date AND e2.amt < e1.amt AND e2.amt > e1.amt - alpha``
    has ~``target_selectivity`` over random edge pairs.

    Binary-searches alpha against an empirical sample of independent
    edge pairs drawn from the graph's actual (amt, date) distribution.
    """
    rng = np.random.default_rng(seed)
    amt = graph.edge_frame["amt"].to_numpy()
    date = graph.edge_frame["date"].to_numpy()
    i = rng.integers(0, len(amt), n_samples)
    j = rng.integers(0, len(amt), n_samples)
    base = (date[i] < date[j]) & (amt[j] < amt[i])
    diff = amt[i] - amt[j]

    def sel(alpha: float) -> float:
        return float(np.mean(base & (diff < alpha)))

    lo, hi = 0.0, AMT_HI - AMT_LO
    for _ in range(60):
        mid = (lo + hi) / 2
        if sel(mid) < target_selectivity:
            lo = mid
        else:
            hi = mid
    return round((lo + hi) / 2, 3)
