"""Smoke test of the benchmark itself, at tiny scale.

    python3 perfbench/selftest.py

Runs every workload of ``run.py`` (``secondary-wt``, ``maint-lj``,
``sq-wt``) with every graph at tiny scale and checks that each prints
every end-to-end metric of ``BENCHMARK.json``, with its unit, both in
the human-readable lines and in the final JSON line.  It then runs the
two ``BENCHMARK.json`` workloads with one expected count made wrong on
purpose (``--perturb-oracle``) and checks that each reports the failure
and exits non-zero: the correctness gate is live.  Traced runs check
that the JSON line holds exactly the per-layer metrics.  Last, a copy
of ``BENCHMARK.json`` and ``perfbench/`` alone, without the program,
must exit non-zero without a result line.  Takes several minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from run import WORKLOADS  # noqa: E402


def run(workload: str, *extra: str, root: Path = ROOT) -> tuple[int, str, dict]:
    p = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--scale", "tiny", *extra],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return p.returncode, p.stdout, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for w in spec["workloads"]:
        check(w["name"] in WORKLOADS, f"BENCHMARK.json workload {w['name']} is run here")
    for workload in WORKLOADS:
        rc, out, res = run(workload)
        check(rc == 0 and res.get("correct") is True and res.get("failed") == 0,
              f"{workload}: exit 0 and correct")
        got = res.get("metrics", {})
        check(set(got) == set(units),
              f"{workload}: JSON has exactly the end-to-end metrics")
        for name, unit in units.items():
            check(got.get(name, {}).get("unit") == unit
                  and isinstance(got[name].get("value"), (int, float))
                  and got[name]["value"] > 0,
                  f"{workload}: JSON {name} in {unit}, above 0")
            check(any(line.split()[:1] == [name] and unit in line.split()
                      for line in out.splitlines()),
                  f"{workload}: printed {name} with {unit}")

    for w in spec["workloads"]:
        workload = w["name"]
        rc, _, res = run(workload, "--perturb-oracle")
        check(rc != 0 and res.get("correct") is False and res.get("failed", 0) >= 2,
              f"{workload}: a wrong expected count on each side is reported "
              "as a failure")
        rc, _, res = run(workload, "--trace", "1")
        got = res.get("metrics", {})
        check(rc == 0 and set(got) == set(layer_units),
              f"{workload}: traced run has exactly the per-layer metrics")
        for name, m in got.items():
            check(layer_units.get(name) == m["unit"],
                  f"{workload}: per-layer {name} in {m['unit']}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, out, res = run(spec["workloads"][0]["name"], root=bare)
    check(rc != 0 and not res,
          "without the program: non-zero exit and no result line")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
