"""Harness smoke tests at tiny scale: every run_table* produces cells
with the right grid structure and sane values."""
import importlib.util
import json
import os
import pathlib

import pytest

import repro.workloads.harness as H
from repro.workloads.setups import add_VBc, build_D

JOBS = pathlib.Path(__file__).resolve().parent.parent / "jobs"


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "tiny")


@pytest.fixture
def d_builds(monkeypatch) -> list:
    """Counts the harness's ``build_D`` calls, one entry per build."""
    built = []

    def counting(g):
        built.append(g)
        return build_D(g)

    monkeypatch.setattr(H, "build_D", counting)
    return built


@pytest.fixture
def vbc_builds(monkeypatch) -> list:
    """Counts the harness's ``add_VBc`` calls, one entry per build."""
    built = []

    def counting(store):
        built.append(store)
        return add_VBc(store)

    monkeypatch.setattr(H, "add_VBc", counting)
    return built


def test_run_table2(spark):
    cells = H.run_table2(spark)
    assert {c.dataset for c in cells} == {"ork", "lj", "wt", "brk"}
    for c in cells:
        assert c.rows > 0 and c.extra["n_vertices"] > 0


def test_job_prints_and_saves_table2(spark, monkeypatch, tmp_path, capsys):
    """``jobs/run.py table2`` prints one line per cell and saves the
    cells as ``<table>.json``, the file ``render_experiments.py`` reads."""
    monkeypatch.syspath_prepend(str(JOBS))
    spec = importlib.util.spec_from_file_location("table_job", JOBS / "run.py")
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    monkeypatch.setattr(job.common, "RESULTS_DIR", tmp_path)
    cells = job.run(spark, "table2")
    saved = json.loads((tmp_path / "table2.json").read_text())
    assert saved == [c.to_dict() for c in cells]
    assert {c["dataset"] for c in saved} == {"ork", "lj", "wt", "brk"}
    for c in saved:
        assert {"n_vertices", "avg_degree", "mirrors"} <= c["extra"].keys()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(cells)


def test_run_table3_cell_grid(spark):
    cells = H.run_table3(
        spark, datasets=("brk",), queries=("SQ1", "SQ5")
    )
    assert len(cells) == 2 * 3  # 2 queries x 3 configs
    by_cfg = {c.config: c for c in cells if c.query == "SQ1"}
    # same query, same answer under every configuration
    assert len({c.rows for c in by_cfg.values()}) == 1
    # D_s costs no extra memory; D_p costs a little
    assert by_cfg["Ds"].mm_mb == by_cfg["D"].mm_mb
    assert by_cfg["Dp"].mm_mb > by_cfg["D"].mm_mb


def test_run_table4_structure(spark, d_builds):
    cells = H.run_table4(spark, datasets=("brk",), queries=("MR1",))
    assert len(d_builds) == 1  # both configurations share one D
    assert {c.config for c in cells} == {"D", "D+VBt"}
    d, vbt = (next(c for c in cells if c.config == n)
              for n in ("D", "D+VBt"))
    assert d.rows == vbt.rows  # same answer
    assert vbt.mm_mb > d.mm_mb  # VB_t costs a little extra memory


def test_run_table5_structure(spark, d_builds, vbc_builds):
    cells = H.run_table5(spark, datasets=("wt",), queries=("MF1", "MF3"),
                         alpha_sel=0.2)
    assert len(d_builds) == 1  # the three configurations share one D
    assert len(vbc_builds) == 1  # and the last two share one VB_c
    cfgs = {c.config for c in cells}
    assert cfgs == {"D", "D+VBc", "D+VBc+EBc"}
    # EB_c is reported only for the queries it can serve
    assert {c.query for c in cells if c.config == "D+VBc+EBc"} == {"MF3"}
    rows = {c.config: c.rows for c in cells if c.query == "MF3"}
    assert len(set(rows.values())) == 1
    mm = {c.config: c.mm_mb for c in cells if c.query == "MF3"}
    assert mm["D"] < mm["D+VBc"] < mm["D+VBc+EBc"]


def test_run_table6_structure(spark):
    cells = H.run_table6(spark, selectivities=(0.25, 0.01))
    assert len(cells) == 4
    idx = {
        (c.query, c.config): c.extra["E_indexed"] for c in cells
    }
    assert idx[("sel=0.25", "D+EBc")] > idx[("sel=0.01", "D+EBc")] > 0
    rows = {(c.query, c.config): c.rows for c in cells}
    assert rows[("sel=0.25", "D")] == rows[("sel=0.25", "D+EBc")]


def test_run_table7_structure(spark):
    cells = H.run_table7(spark, datasets=("wt",), queries=("SQ1",))
    got = {(c.config, c.query): c.rows for c in cells}
    assert len(got) == 3
    assert len(set(got.values())) == 1  # all engines agree on the answer


def test_run_indirection(spark):
    cells = H.run_indirection(spark, n_sources=20, hops=3)
    assert {c.config for c in cells} == {"sequential", "list", "graph"}
    assert len({c.rows for c in cells}) == 1


def test_run_maintenance(spark):
    cells = H.run_maintenance(spark, datasets=("brk",),
                              configs=("Ds", "Dps+EBt"))
    rates = {c.config: c.extra["edges_per_s"] for c in cells}
    assert rates["Ds"] > rates["Dps+EBt"] > 0
