"""Benchmark entry point: one workload at one seed, checked and measured.

    python3 perfbench/run.py --workload secondary-wt --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/`` and its Spark session is built by ``jobs/common.py``'s
``get_spark``, with none of its settings changed.  Temporary files
(Python, the JVM and Spark's local directories) and the run artifact go
under ``.perfbench/`` in the checkout.

Every workload runs the same two sides, so every run measures every
metric of ``BENCHMARK.json``: Spark query cells (``spark_workloads.py``)
and the §5.5 insert stream with reads (``maint_workload.py``), one
slice of the stream after each timed query.  A workload names its query
mix, its number of timed passes and its stream graph.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 0 only when every operation succeeded,
every result matched the oracle and every metric was measured.  The
artifact ``.perfbench/runs/<workload>-seed<seed>-trace<t>.json`` holds
the run's context, every cell's index set and plan text, the samples,
all metrics measured (more per-layer metrics than ``BENCHMARK.json``
names) and, when traced, the spans.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    mix: str  # query mix, a key of spark_workloads.SETUPS
    passes: int  # timed passes over the mix's cells
    stream: str  # dataset of the G_{2,4} stream graph


#: query graphs are at tiny scale, stream graphs at bench scale
WORKLOADS = {
    "secondary-wt": Workload("money-flow", 1, "wt"),
    "maint-lj": Workload("magicrecs", 2, "lj"),
    "sq-wt": Workload("sq", 1, "wt"),  # by hand only
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("tiny", "bench"),
                   help="scale of every graph (default: query graphs "
                        "tiny, stream graphs bench)")
    p.add_argument("--perturb-oracle", action="store_true",
                   help="add 1 to one expected count, so the run must "
                        "report a failure (used by selftest.py)")
    return p.parse_args(argv)


def keep_writes_in_checkout() -> None:
    tmp = WORK / "tmp"
    local = WORK / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    java = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    prior = os.environ.get("JAVA_TOOL_OPTIONS")
    os.environ["JAVA_TOOL_OPTIONS"] = f"{prior} {java}" if prior else java


def import_program():
    """Put the checkout's program first on the path; fail when absent."""
    for need in (ROOT / "src" / "repro" / "__init__.py",
                 ROOT / "jobs" / "common.py"):
        if not need.is_file():
            raise SystemExit(f"perfbench: {need.relative_to(ROOT)} not found; "
                             "run from the root of a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         "not from this checkout")
    from jobs.common import get_spark

    return get_spark


def manifest() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit("perfbench: BENCHMARK.json not found")
    return json.loads(path.read_text())


def source_context() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for d in ("src", "jobs"):
        for f in sorted((ROOT / d).rglob("*.py")):
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def spark_context(spark) -> dict:
    sc = spark.sparkContext
    confs = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled",
             "spark.sql.autoBroadcastJoinThreshold",
             "spark.sql.execution.arrow.pyspark.enabled")
    return {
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "version": spark.version,
        "sql_confs": {k: spark.conf.get(k) for k in confs},
    }


def start_spark(get_spark):
    """The program's Spark session and the seconds it took to start."""
    t0 = time.perf_counter()
    spark = get_spark("perfbench")
    return spark, time.perf_counter() - t0


def stop_spark(spark) -> None:
    """Stop Spark, then the JVM behind it, and wait until it has exited:
    the benchmark leaves no process behind."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        gateway.shutdown()
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = manifest()
    get_spark = import_program()
    keep_writes_in_checkout()  # before the JVM starts
    import maint_workload
    import spark_workloads

    w = WORKLOADS[args.workload]
    scale = args.scale or "tiny"
    stream_scale = args.scale or "bench"
    tracer = Tracer() if args.trace else NullTracer()

    spark, start_s = start_spark(get_spark)
    context = spark_context(spark)
    try:
        t0 = time.perf_counter()
        with tracer.span("graphs.generate"):
            inp = maint_workload.prepare(spark, w.stream, seed=args.seed,
                                         scale=stream_scale)
        stream_gen_s = time.perf_counter() - t0
        stream = maint_workload.Stream(inp, seed=args.seed, tracer=tracer,
                                       perturb_oracle=args.perturb_oracle)
        q = spark_workloads.run(
            spark, mix=w.mix, passes=w.passes, seed=args.seed, scale=scale,
            tracer=tracer, between=stream.slice,
            perturb_oracle=args.perturb_oracle)
    finally:
        stop_spark(spark)
    m = stream.finish()

    attempted = q["attempted"] + m["attempted"]
    failed = q["failed"] + m["failed"]
    frac = failed / max(1, attempted)
    end_to_end = {"setup_s": (q["setup_s"] + stream_gen_s + m["setup_s"], "s"),
                  **q["end_to_end"], **m["end_to_end"]}
    per_layer: dict[str, tuple[float, str]] = {}
    if args.trace:
        per = tracer.dump()["per_name"]
        per_layer = {
            "spark.session_start_s": (start_s, "s"),
            "graphs.generate_s": (per["graphs.generate"]["total_s"], "s"),
            **q["per_layer"], **m["per_layer"],
            "oracle.check_s": (q["oracle_s"] + m["oracle_s"], "s"),
            "engine.empty_result_cells": (
                len(q["notes"]["empty_result_cells"]), "count"),
            "ops_failed_frac": (frac, "ratio"),
        }
    notes = {**q["notes"], **m["notes"]}
    measured = per_layer if args.trace else end_to_end
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, missing = {}, []
    for entry in group:
        value = measured.get(entry["name"])
        if value is None or value[1] != entry["unit"]:
            missing.append(f"{entry['name']} ({entry['unit']})")
        else:
            metrics[entry["name"]] = value
    in_manifest = any(x["name"] == args.workload for x in spec["workloads"])

    print(f"perfbench {args.workload} seed={args.seed} scale={scale} "
          f"stream={inp.name} trace={args.trace} master={context['master']}")
    for name, (value, unit) in {**end_to_end,
                                "ops_failed_frac": (frac, "ratio")}.items():
        note = notes.get(name)
        print(f"  {name:<22} {value:>14.6g} {unit:<6}" + (f" ({note})" if note else ""))
    if notes.get("empty_result_cells"):
        print(f"  empty-result cells: {', '.join(notes['empty_result_cells'])}")
    if args.trace:
        for name, (value, unit) in sorted(per_layer.items()):
            mark = "" if name in metrics else "  (not in BENCHMARK.json)"
            print(f"  {name:<44} {value:>14.6g} {unit}{mark}")
    for f in (q["failures"] + m["failures"])[:20]:
        print(f"FAILED {f}", file=sys.stderr)

    artifact = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": scale, "stream_scale": stream_scale,
        "source": source_context(), "spark": context,
        "spark_session_start_s": start_s,
        "attempted": attempted, "failed": failed,
        "failures": q["failures"] + m["failures"], "ops_failed_frac": frac,
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u}
                      for k, (v, u) in per_layer.items()},
        "notes": notes,
        "context": {"query": q["context"], "stream": m["context"],
                    "stream_gen_s": stream_gen_s},
        "cells": q["cells"], "samples": q["samples"],
        "trace_spans": tracer.dump(),
    }
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(artifact, indent=1, default=str))
    print(f"  artifact: {path.relative_to(ROOT)}")

    if missing and in_manifest:
        print(f"perfbench: {args.workload} did not measure {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if missing:
        print(f"  not measured on {args.workload}: {', '.join(missing)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
