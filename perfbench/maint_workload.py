"""The write side of every workload: the §5.5 insert stream with reads
beside it, on the NumPy/Python page model of ``repro.storage.maintenance``.

The stream graph's edges are copied out of Spark (``prepare``).
Set-up (``Stream``) builds the five ``build_system`` configurations and
loads the first half of the edges, in eid order, into each; that load
also warms the insert path.

The timed stream is a closed loop with one client: each configuration
streams the next ``STREAMED`` edges (at most the whole second half), in
eid order, as the §5.5 harness does: insert the edge, then read
``fw.neighbourhood`` of the source of a uniformly drawn edge streamed so
far (recent keys are favoured).  The configurations are independent, so
the stream is cut into slices (``Stream.slice``), each streaming the
next part of the edges into every configuration; the query loop runs
one slice after each timed query, while no Spark job runs.  So the
stream spans the whole timed loop, and a few seconds of a slow machine
weigh on it no more than on the queries.  The work is fixed: every run
streams the same edges into every configuration, whatever the machine's
speed, so later (costlier) inserts and longer lists weigh the same in
every run.

Checks: every read returns as many entries as the vertex has out-edges
so far; after the stream and a ``flush()``, ``total_entries()`` of both
directions equals the number of edges, and a seeded sample of vertices
has exactly the inserted eids in both directions.  An exception is a
failed operation, so a stream cut short fails the run.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.graphs.financial import decorate_time
from repro.graphs.generators import dataset
from repro.storage.maintenance import Edge, build_system

CONFIGS = ("Ds", "Dp", "Dps", "Dps+VBt", "Dps+EBt")
#: selectivity of the EB_t 2-path predicate (§5.5 uses 1%)
EB_SELECTIVITY = 0.01
N_SAMPLED_VERTICES = 200
#: edges streamed into each configuration after the 50% preload, of
#: wt_{2,4}'s 23,750 or LJ_{2,4}'s 57,000 at bench scale: about 2 s of
#: stream, spread over the timed loop in slices
STREAMED = 10_000


@dataclass
class StreamInput:
    """The stream graph's edges, copied out of Spark."""

    name: str
    n_vertices: int
    edges: pd.DataFrame  # eid, src, dst, elabel, time
    meta: dict


def prepare(spark, name: str, *, seed: int, scale: str) -> StreamInput:
    """Generate dataset ``name`` as G_{2,4} with time properties, as §5.5
    does for LJ, and copy its edges out of Spark."""
    g = decorate_time(
        dataset(spark, name, scale=scale, n_vlabels=2, n_elabels=4, seed=seed),
        seed=seed + 13,
    )
    pdf = g.edges.select("eid", "src", "dst", "elabel", "time").toPandas()
    return StreamInput(f"{name}_{{2,4}}-{scale}", g.num_vertices, pdf, g.meta)


def _eb_alpha(times: np.ndarray, seed: int) -> float:
    """alpha with P(t_b < t_a + alpha) ~ EB_SELECTIVITY over random edge
    pairs, as the §5.5 job calibrates it."""
    rng = np.random.default_rng(seed)
    i = rng.integers(0, len(times), 100_000)
    j = rng.integers(0, len(times), 100_000)
    diffs = np.sort(times[i] - times[j])
    return float(diffs[int(EB_SELECTIVITY * len(diffs))])


def _counts(systems) -> tuple[int, int, int]:
    """(page merges, VB entries indexed, EB entries indexed) so far."""
    return (sum(s.fw.merges + s.bw.merges for s in systems),
            sum(s.vb.indexed for s in systems if s.vb is not None),
            sum(s.eb.indexed for s in systems if s.eb is not None))


class Stream:
    """The five configurations, preloaded, and the stream's oracle."""

    def __init__(self, inp: StreamInput, *, seed: int, tracer,
                 perturb_oracle: bool = False) -> None:
        self.inp, self.tracer = inp, tracer
        nv = inp.n_vertices
        t1 = time.perf_counter()
        pdf = inp.edges.sort_values("eid").reset_index(drop=True)
        edges = [Edge(*t) for t in pdf.itertuples(index=False, name=None)]
        self.eb_alpha = _eb_alpha(pdf["time"].to_numpy(), seed + 3)
        self.half = half = len(edges) // 2
        self.systems = []
        for c in CONFIGS:
            s = build_system(c, nv, eb_alpha=self.eb_alpha
                             if c == "Dps+EBt" else None)
            for e in edges[:half]:
                s.insert(e)
            self.systems.append(s)
        self.setup_s = time.perf_counter() - t1

        src = pdf["src"].to_numpy()
        dst = pdf["dst"].to_numpy()
        self.stream = stream = edges[half:half + STREAMED]
        rng = np.random.default_rng(seed + 1)
        # the read after the k-th streamed edge targets the source of a
        # uniformly drawn edge among streamed edges 0..k
        self.read_src = src[half + rng.integers(
            0, np.arange(1, len(stream) + 1))].tolist()
        t2 = time.perf_counter()
        outdeg = np.bincount(src[:half], minlength=nv).tolist()
        self.want_len = []  # out-degree of read_src[k] once edge k is in
        for k, e in enumerate(stream):
            outdeg[e.src] += 1
            self.want_len.append(outdeg[self.read_src[k]])
        n_in = half + len(stream)
        self.want_total = n_in + (1 if perturb_oracle else 0)
        sample = np.random.default_rng(seed + 2).choice(
            nv, size=min(N_SAMPLED_VERTICES, nv), replace=False)
        eids = pdf["eid"].to_numpy()[:n_in]
        self.want_fw = {int(v): set(eids[src[:n_in] == v].tolist())
                        for v in sample}
        self.want_bw = {int(v): set(eids[dst[:n_in] == v].tolist())
                        for v in sample}
        self.oracle_s = time.perf_counter() - t2
        self.n_edges = len(pdf)

        for s in self.systems:  # untimed warm-up of the read path
            for v in self.read_src[:2000]:
                s.fw.neighbourhood(v)
        self.counts0 = _counts(self.systems)
        if tracer.enabled:
            for s in self.systems:
                for part in ("fw", "bw", "vb", "eb"):
                    comp = getattr(s, part)
                    if comp is not None:
                        comp.insert = tracer.wrap(
                            f"storage.maintenance.{part}.insert", comp.insert)

        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.ins_lat: list[list[float]] = [[] for _ in CONFIGS]
        self.read_s = 0.0
        self.read_entries = 0
        self.n_reads = 0
        self.stream_wall = 0.0
        self.streamed = 0  # edges of the stream done so far

    def slice(self, i: int, n: int) -> None:
        """Slice ``i`` of ``n``: the next edges, up to ``(i + 1) / n`` of
        the stream, into every configuration in turn."""
        k0, k1 = self.streamed, len(self.stream) * (i + 1) // n
        self.streamed = k1
        part = list(zip(self.stream[k0:k1], self.read_src[k0:k1],
                        self.want_len[k0:k1]))
        clock = time.perf_counter
        t_start = clock()
        for j, s in enumerate(self.systems):
            lat = self.ins_lat[j]
            insert, read = s.insert, s.fw.neighbourhood
            for e, v, want in part:
                self.attempted += 2
                a = clock()
                try:
                    insert(e)
                    b = clock()
                    r = read(v)
                    c = clock()
                except Exception as exc:  # a failed operation; go on
                    self.failed += 1
                    self.failures.append(f"{CONFIGS[j]} eid {e.eid}: {exc!r}")
                    continue
                lat.append(b - a)
                self.read_s += c - b
                self.read_entries += len(r)
                self.n_reads += 1
                if len(r) != want:
                    self.failed += 1
                    self.failures.append(f"{CONFIGS[j]} read of {v}: {len(r)} "
                                         f"entries, expected {want}")
        self.stream_wall += clock() - t_start

    def finish(self) -> dict:
        """Check the final state and return the metrics."""
        merges, vb_indexed, eb_indexed = (
            a - b for a, b in zip(_counts(self.systems), self.counts0))

        # final state: flushed pages hold exactly the inserted edges
        t2 = time.perf_counter()
        with self.tracer.span("oracle.check"):
            for i, s in enumerate(self.systems):
                s.fw.flush()
                s.bw.flush()
                for d, pages, want in (("fw", s.fw, self.want_fw),
                                       ("bw", s.bw, self.want_bw)):
                    self.attempted += 1
                    if pages.total_entries() != self.want_total:
                        self.failed += 1
                        self.failures.append(
                            f"{CONFIGS[i]}.{d}: total_entries "
                            f"{pages.total_entries()} != {self.want_total}")
                    for v, ws in want.items():
                        self.attempted += 1
                        got = {eid for _, eid, _ in pages.neighbourhood(v)}
                        if got != ws:
                            self.failed += 1
                            self.failures.append(
                                f"{CONFIGS[i]}.{d}: vertex {v} eids differ")
        self.oracle_s += time.perf_counter() - t2

        all_lat = np.concatenate([np.asarray(x) for x in self.ins_lat])
        end_to_end = {
            "insert_edges_per_s": (len(all_lat) / float(all_lat.sum()), "1/s"),
            "insert_p99_us": (float(np.percentile(all_lat, 99)) * 1e6, "us"),
            "nbr_reads_per_s": (self.n_reads / self.read_s, "1/s"),
        }
        per_config = {
            c: {"inserts": len(x), "edges_per_s": len(x) / sum(x),
                "p99_us": float(np.percentile(x, 99)) * 1e6}
            for c, x in zip(CONFIGS, self.ins_lat) if x
        }
        notes = {
            "insert_edges_per_s": f"{len(all_lat)} inserts of {self.inp.name} "
                                  f"over {len(CONFIGS)} configurations, "
                                  f"{len(self.stream)} streamed edges each, "
                                  f"in {self.stream_wall:.2f} s",
            "insert_p99_us": f"p99 of {len(all_lat)} insert calls",
        }
        per_layer: dict[str, tuple[float, str]] = {}
        if self.tracer.enabled:
            per = self.tracer.dump()["per_name"]
            for part in ("fw", "bw", "vb", "eb"):
                name = f"storage.maintenance.{part}.insert"
                per_layer[f"storage.maintenance.{part}.self_s"] = (
                    per.get(name, {}).get("self_s", 0.0), "s")
            per_layer["storage.maintenance.merges"] = (merges, "count")
            per_layer["storage.maintenance.vb_indexed"] = (vb_indexed, "count")
            per_layer["storage.maintenance.eb_indexed"] = (eb_indexed, "count")
            per_layer["storage.maintenance.read_s"] = (self.read_s, "s")
            per_layer["storage.maintenance.read_entries"] = (
                self.read_entries, "count")
        return {
            "setup_s": self.setup_s,
            "oracle_s": self.oracle_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "notes": notes,
            "context": {"graph": {"name": self.inp.name,
                                  "n_vertices": self.inp.n_vertices,
                                  "n_edges": self.n_edges,
                                  "meta": self.inp.meta},
                        "eb_alpha": self.eb_alpha, "preloaded": self.half,
                        "streamed": len(self.stream),
                        "per_config": per_config,
                        "stream_wall_s": self.stream_wall},
        }
