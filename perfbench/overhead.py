"""Tracing overhead: the traced run's end-to-end numbers minus the
untraced run's, for one workload and seed.

    python3 perfbench/run.py --workload maint-lj --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload maint-lj --seed 1 --seconds 20 --trace 1
    python3 perfbench/overhead.py --workload maint-lj --seed 1

Reads the two run artifacts under ``.perfbench/runs/``.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

RUNS = Path(__file__).resolve().parent.parent / ".perfbench" / "runs"


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    runs = [json.loads((RUNS / f"{args.workload}-seed{args.seed}-trace{t}.json")
                       .read_text()) for t in (0, 1)]
    plain, traced = (r["end_to_end"] for r in runs)
    print(f"tracing overhead, {args.workload} seed {args.seed} "
          "(traced minus untraced)")
    for name, m in plain.items():
        d = traced[name]["value"] - m["value"]
        rel = f"({d / m['value']:+.1%})" if m["value"] else ""
        print(f"  {name:<22} {d:>+14.6g} {m['unit']:<6} {rel}")


if __name__ == "__main__":
    main()
