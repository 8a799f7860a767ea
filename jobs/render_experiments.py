"""Regenerate EXPERIMENTS.md from results/*.json.

The paper's numbers are embedded here so every table renders
paper-vs-measured side by side.  Run after the table job, once per
table (``table2``–``table7``, ``indirection``, ``maintenance``):

    python jobs/run.py table4 && ... && python jobs/render_experiments.py
"""
from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

SQS = [f"SQ{i}" for i in range(1, 14)]

# ----------------------------------------------------------------- paper data
PAPER_T3 = {  # dataset -> config -> ([13 runtimes], Mm MB)
    "ork": {
        "D": ([1.68, 5.47, 3.66, 1.30, 1.58, 1.45, 1.73, 2.49, 0.95, 17.74,
               7536.9, 54.86, 131.5], 2778),
        "Ds": ([0.91, 3.12, 2.04, 1.19, 1.05, 1.22, 1.33, 1.51, 0.77, 4.89,
                725.9, 41.92, 55.62], 2778),
        "Dp": ([0.68, 2.61, 1.35, 0.97, 0.77, 0.60, 1.30, 1.46, 0.60, 3.89,
                704.9, 28.32, 34.22], 3106),
    },
    "lj": {
        "D": ([1.47, 7.87, 6.46, 1.69, 1.59, 1.60, 1.91, 3.35, 4.07, 41.54,
               807.8, 397.1, 468.8], 1016),
        "Ds": ([1.45, 6.22, 5.42, 1.49, 1.51, 1.52, 1.40, 2.39, 2.82, 28.07,
                241.2, 268.6, 259.2], 1016),
        "Dp": ([1.04, 5.18, 4.64, 1.09, 0.98, 1.08, 1.07, 1.85, 2.26, 25.86,
                235.63, 235.85, 161.82], 1164),
    },
    "wt": {
        "D": ([0.61, 4.59, 5.48, 0.84, 1.17, 0.90, 0.73, 11.25, 2.85, 1116.2,
               340.0, 487.8, 767.5], 713),
        "Ds": ([0.37, 2.43, 3.50, 0.69, 0.71, 0.65, 0.61, 3.93, 1.36, 697.9,
                77.11, 319.0, 386.8], 713),
        "Dp": ([0.32, 2.09, 3.05, 0.55, 0.59, 0.54, 0.61, 2.86, 1.09, 639.7,
                76.32, 259.1, 235.7], 795),
    },
    "brk": {
        "D": ([0.46, 2.41, 1.19, 1.32, 2.10, 1.52, 4.74, 27.15, 142.8, 701.6,
               23.90, 889.0, 754.6], 196),
        "Ds": ([0.46, 1.46, 0.79, 0.96, 1.50, 1.09, 2.93, 13.50, 70.80, 347.9,
                10.58, 386.2, 248.4], 196),
        "Dp": ([0.19, 1.40, 0.66, 0.78, 1.51, 0.96, 2.86, 12.40, 68.74, 335.6,
                10.45, 381.2, 215.9], 206),
    },
}

PAPER_T4 = {  # dataset -> config -> (MR1, MR2, MR3, Mm)
    "brk": {"D": (1.15, 1.73, 7.53, 191), "D+VBt": (0.29, 0.73, 3.53, 205)},
    "wt": {"D": (6.87, 9.67, 136.5, 700), "D+VBt": (2.69, 5.36, 22.74, 755)},
    "lj": {"D": (18.19, 38.17, 842.8, 1689),
           "D+VBt": (8.83, 27.26, 79.72, 1820)},
    "ork": {"D": (29.37, 255.4, 22.65, 2755),
            "D+VBt": (14.36, 166.3, 3.33, 2982)},
}

PAPER_T5 = {  # dataset -> config -> {query: secs}, Mm
    "ork": {
        "D": ({"MF1": 73.35, "MF2": 5.53, "MF3": 32.85, "MF4": 71.46}, 2730),
        "D+VBc": ({"MF1": 8.99, "MF2": 2.75, "MF3": 1.33, "MF4": 19.03}, 3183),
        "D+VBc+EBc": ({"MF3": 0.56, "MF4": 0.99}, 6000),
    },
    "lj": {
        "D": ({"MF1": 47.09, "MF2": 4.24, "MF3": 84.78, "MF4": 7.60,
               "MF5": 52.04}, 1649),
        "D+VBc": ({"MF1": 11.45, "MF2": 2.86, "MF3": 5.12, "MF4": 3.66}, 1910),
        "D+VBc+EBc": ({"MF3": 2.16, "MF4": 0.39, "MF5": 5.79}, 3585),
    },
    "wt": {
        "D": ({"MF1": 20.27, "MF2": 1.47, "MF3": 9.02, "MF4": 0.86,
               "MF5": 9.02}, 685),
        "D+VBc": ({"MF1": 2.29, "MF2": 1.12, "MF3": 1.55, "MF4": 0.53}, 796),
        "D+VBc+EBc": ({"MF3": 0.50, "MF4": 0.14, "MF5": 0.79}, 1521),
    },
}

PAPER_T6 = {  # selectivity -> (D secs, D+EBc secs, Mm D+EBc, E_indexed)
    "sel=0.25": (1028.8, 61.66, 5558, "1.466B"),
    "sel=0.05": (1047.5, 47.77, 3116, "276.2M"),
    "sel=0.0005": (1056.3, 29.71, 1951, "2.9M"),
}

PAPER_T7 = (
    "Paper (Table 7): GF is fastest everywhere except SQ13 on WT_{4,2}; "
    "TG is 3.2–25.3x slower than GF; N4 is 61x–3300x slower (some cells "
    ">30 min). Legible cells — LJ_{12,2} SQ1: GF 0.4 / TG 2.5 / N4 29.3; "
    "LJ_{12,2} SQ3: 0.6 / 15.2 / 36.8; WT_{4,2} SQ1: 0.5 / 1.6 / 1650; "
    "WT_{4,2} SQ2: 2.1 / 7.1 / 876."
)

PAPER_IND = {"sequential": 6.7, "list": 12.4, "graph": 63.3}

PAPER_MAINT = {  # config -> (LJ_{2,4} rate, Brk_{2,2} rate)
    "Ds": ("1.203M", "2.108M"),
    "Dp": ("1.024M", "1.892M"),
    "Dps": ("1.081M", "1.832M"),
    "Dps+VBt": ("706K", "1.691M"),
    "Dps+EBt": ("41K", "110K"),
}


def load(name: str):
    p = RESULTS / f"{name}.json"
    return json.loads(p.read_text()) if p.exists() else []


def grid(cells, rows="config", cols="query", val="seconds"):
    g = {}
    for c in cells:
        g.setdefault(c["dataset"], {}).setdefault(c[rows], {})[c[cols]] = c
    return g


def spd(base: float, x: float) -> str:
    return f"{base / x:.2f}x" if x else "—"


out: list[str] = []
P = out.append

P("# EXPERIMENTS — paper vs measured\n")
P("Generated by `jobs/render_experiments.py` from `results/*.json` "
  "(written by `jobs/run.py <table>`; regenerate after re-running "
  "it).\n")
P("Environment: single `local[*]` Spark 4.1 session (all the machine's "
  "cores; the machine behind `results/` is not recorded), graph "
  "analogs at ~1/600 of the paper's scale with matched average degrees "
  "(DESIGN.md §7), warm-run timing (one untimed execution, then one "
  "timed).  The paper uses a single-core Java in-memory system on the "
  "full graphs, so **absolute seconds are not comparable**; the "
  "reproduced claims are the shapes — which configuration wins, rough "
  "speedup ordering, memory *ratios* (directly comparable: same byte "
  "widths), and selectivity trends.  Every query result behind these "
  "timings is verified against the DuckDB oracle in `tests/`.\n")

# ------------------------------------------------------------------- table 2
P("\n## Table 2 — datasets\n")
P("| analog | #V | #E | avg deg | paper dataset (#V/#E/deg) |")
P("|---|---|---|---|---|")
for c in load("table2"):
    P(f"| {c['dataset']} | {c['extra']['n_vertices']} | {c['rows']} | "
      f"{c['extra']['avg_degree']} | {c['extra']['mirrors']} |")

# ------------------------------------------------------------------- table 3
P("\n## Table 3 — default A+ index reconfiguration (D / D_s / D_p)\n")
P("Paper shape: D_s beats D on all 52 settings (up to 10.38x) at zero "
  "memory cost; D_p is consistently fastest (up to 10.69x) at 1.05–1.15x "
  "memory.  Reproduction shape: same ordering in aggregate; individual "
  "cells at second-scale runtimes carry Spark scheduling noise.\n")
t3 = grid(load("table3"))
for ds in ("ork", "lj", "wt", "brk"):
    if ds not in t3:
        continue
    P(f"\n### {ds} (paper {ds.upper()}_{{{','.join(map(str, []))}}})\n"
      if False else f"\n### {ds}\n")
    P("| config | " + " | ".join(SQS) + " | Mm MB | Mm ratio |")
    P("|---" * 16 + "|")
    pap = PAPER_T3[ds]
    for cfg in ("D", "Ds", "Dp"):
        vals, mm = pap[cfg]
        P(f"| paper {cfg} | " + " | ".join(f"{v:g}" for v in vals)
          + f" | {mm} | {mm / pap['D'][1]:.2f}x |")
    for cfg in ("D", "Ds", "Dp"):
        row = t3[ds].get(cfg, {})
        cells = [row.get(q) for q in SQS]
        mm = next((c["mm_mb"] for c in cells if c), 0.0)
        mm_d = next((c["mm_mb"] for c in (t3[ds]["D"].get(q) for q in SQS)
                     if c), 1.0)
        P(f"| ours {cfg} | " + " | ".join(
            f"{c['seconds']:.2f}" if c else "—" for c in cells)
          + f" | {mm:.2f} | {mm / mm_d:.2f}x |")
    # aggregate speedups
    row_d = t3[ds]["D"]
    for cfg in ("Ds", "Dp"):
        rats = [
            row_d[q]["seconds"] / t3[ds][cfg][q]["seconds"]
            for q in SQS if q in row_d and q in t3[ds][cfg]
        ]
        pap_r = [
            PAPER_T3[ds]["D"][0][i] / PAPER_T3[ds][cfg][0][i]
            for i in range(13)
        ]
        P(f"\n*{cfg} vs D geomean speedup — paper "
          f"{(__import__('math').prod(pap_r)) ** (1 / len(pap_r)):.2f}x, "
          f"ours {(__import__('math').prod(rats)) ** (1 / len(rats)):.2f}x "
          f"(ours wins on {sum(r > 1 for r in rats)}/13 queries)*")

# ------------------------------------------------------------------- table 4
P("\n## Table 4 — MagicRecs (D vs D+VB_t)\n")
P("Paper shape: VB_t wins every cell (1.40–10.6x) for ~1.08x memory.\n")
t4 = grid(load("table4"))
P("| dataset | config | MR1 | MR2 | MR3 | Mm MB | Mm ratio |")
P("|---|---|---|---|---|---|---|")
for ds in ("brk", "wt", "lj", "ork"):
    if ds not in t4:
        continue
    for src, tag in (("paper", PAPER_T4[ds]), ("ours", None)):
        for cfg in ("D", "D+VBt"):
            if src == "paper":
                m1, m2, m3, mm = tag[cfg]
                ratio = mm / tag["D"][3]
                P(f"| {ds} | paper {cfg} | {m1:g} | {m2:g} | {m3:g} | "
                  f"{mm} | {ratio:.2f}x |")
            else:
                row = t4[ds][cfg]
                mm = row["MR1"]["mm_mb"]
                ratio = mm / t4[ds]["D"]["MR1"]["mm_mb"]
                P(f"| {ds} | ours {cfg} | "
                  + " | ".join(f"{row[q]['seconds']:.2f}"
                               for q in ("MR1", "MR2", "MR3"))
                  + f" | {mm:.2f} | {ratio:.2f}x |")

# ------------------------------------------------------------------- table 5
P("\n## Table 5 — money flow (D / D+VB_c / D+VB_c+EB_c)\n")
P("Paper shape: VB_c wins every cell (1.31–24.7x) at ~1.16–1.17x memory "
  "via new WCO MULTI-EXTEND plans; EB_c adds plans only for MF3/MF4/MF5 "
  "and wins 6.1–72.2x at ~2.2x memory.\n")
t5 = grid(load("table5"))
P("| dataset | config | MF1 | MF2 | MF3 | MF4 | MF5 | Mm MB | Mm ratio |")
P("|---|---|---|---|---|---|---|---|---|")
MFQ = ("MF1", "MF2", "MF3", "MF4", "MF5")
for ds in ("ork", "lj", "wt"):
    if ds not in t5:
        continue
    for cfg in ("D", "D+VBc", "D+VBc+EBc"):
        qmap, mm = PAPER_T5[ds][cfg]
        ratio = mm / PAPER_T5[ds]["D"][1]
        P(f"| {ds} | paper {cfg} | "
          + " | ".join(f"{qmap[q]:g}" if q in qmap else "—" for q in MFQ)
          + f" | {mm} | {ratio:.2f}x |")
    for cfg in ("D", "D+VBc", "D+VBc+EBc"):
        row = t5[ds].get(cfg, {})
        mm = next(iter(row.values()))["mm_mb"] if row else 0
        mm_d = next(iter(t5[ds]["D"].values()))["mm_mb"]
        P(f"| {ds} | ours {cfg} | "
          + " | ".join(f"{row[q]['seconds']:.2f}" if q in row else "—"
                       for q in MFQ)
          + f" | {mm:.2f} | {mm / mm_d:.2f}x |")

# ------------------------------------------------------------------- table 6
P("\n## Table 6 — EB_c selectivity sweep (LJ, 2-edge money flow)\n")
P("Paper shape: lower selectivity → bigger speedup (16.7x → 35.6x) and "
  "smaller memory overhead (3.45x → 1.21x); |E_indexed| scales with "
  "selectivity (1.47B → 2.9M).\n")
t6 = load("table6")
P("| selectivity | source | D secs | D+EBc secs | speedup | Mm(D+EBc) "
  "ratio | E_indexed |")
P("|---|---|---|---|---|---|---|")
by_sel: dict = {}
for c in t6:
    by_sel.setdefault(c["query"], {})[c["config"]] = c
for sel, (pd_, pe, pmm, pidx) in PAPER_T6.items():
    P(f"| {sel} | paper | {pd_:g} | {pe:g} | {pd_ / pe:.1f}x | "
      f"{pmm / 1612:.2f}x | {pidx} |")
    if sel in by_sel:
        d, e = by_sel[sel].get("D"), by_sel[sel].get("D+EBc")
        if d and e:
            P(f"| {sel} | ours | {d['seconds']:.2f} | {e['seconds']:.2f} | "
              f"{d['seconds'] / e['seconds']:.1f}x | "
              f"{e['mm_mb'] / d['mm_mb']:.2f}x | "
              f"{e['extra']['E_indexed']} |")

# ------------------------------------------------------------------- table 7
P("\n## Table 7 — GF vs TigerGraph-like vs Neo4j-like\n")
P(PAPER_T7 + "\n")
P("Reproduction note (DESIGN.md §4): the closed-source systems are "
  "simulated as capability restrictions of our engine (TG-like: binary "
  "joins, granular labels, pushdown; N4-like: binary joins, "
  "Expand-then-Filter with deferred label/property filters).  The "
  "reproduced shape is the ordering GF ≤ TG < N4 with N4 worst on "
  "selective labelled queries; the paper's 2–3 order-of-magnitude N4 "
  "gaps come from engine internals we do not simulate.\n")
t7 = grid(load("table7"))
for ds, rows in t7.items():
    P(f"\n### {ds}\n")
    qs = ("SQ1", "SQ2", "SQ3", "SQ13")
    P("| engine | " + " | ".join(qs) + " |")
    P("|---" * 5 + "|")
    for eng in ("GF", "TG", "N4"):
        row = rows.get(eng, {})
        P(f"| {eng} | " + " | ".join(
            f"{row[q]['seconds']:.2f}" if q in row else "—" for q in qs)
          + " |")

# -------------------------------------------------------------- indirection
P("\n## §3 — offset-list indirection micro-benchmark (5-hop, 100 sources)\n")
P("Paper (LiveJournal): sequential 6.7 s/query, list-level 12.4 s "
  "(1.85x), graph-level 63.3 s (9.4x); offset-list index costs 1.13x "
  "memory vs 2.0x for copying IDs.\n")
ind = {c["config"]: c for c in load("indirection")}
if ind:
    seq = ind["sequential"]["seconds"]
    P("| mode | paper s/query | paper vs seq | ours secs | ours vs seq |")
    P("|---|---|---|---|---|")
    for mode in ("sequential", "list", "graph"):
        c = ind[mode]
        P(f"| {mode} | {PAPER_IND[mode]:g} | "
          f"{PAPER_IND[mode] / PAPER_IND['sequential']:.2f}x | "
          f"{c['seconds']:.3f} | {c['seconds'] / seq:.2f}x |")

# -------------------------------------------------------------- maintenance
P("\n## §5.5 — maintenance rates (50% load + 50% single-edge stream)\n")
P("Paper (inserts/s, single thread): rates fall with index complexity; "
  "vertex-bound stays within ~1.5x of the default, edge-bound drops "
  "~20x (delta queries per insert).  Our storage model is Python, so "
  "absolute rates are ~100x lower; the ordering and the EB cliff are "
  "the reproduced shape.\n")
mnt = load("maintenance")
if mnt:
    by_ds: dict = {}
    for c in mnt:
        by_ds.setdefault(c["dataset"], {})[c["config"]] = c
    P("| config | paper LJ_{2,4} | paper Brk_{2,2} | "
      + " | ".join(f"ours {d}" for d in by_ds) + " |")
    P("|---" * (3 + len(by_ds)) + "|")
    for cfg in ("Ds", "Dp", "Dps", "Dps+VBt", "Dps+EBt"):
        pl, pb = PAPER_MAINT[cfg]
        row = [f"{by_ds[d][cfg]['extra']['edges_per_s']}/s"
               if cfg in by_ds[d] else "—" for d in by_ds]
        P(f"| {cfg} | {pl}/s | {pb}/s | " + " | ".join(row) + " |")

(ROOT / "EXPERIMENTS.md").write_text("\n".join(out) + "\n")
print(f"wrote {ROOT / 'EXPERIMENTS.md'} ({len(out)} lines)", file=sys.stderr)
