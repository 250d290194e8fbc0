"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

Each workload is shrunk to a tiny size so the whole file takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import flow  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
from repro.analysis.awe import get_awe_cache  # noqa: E402
from repro.analysis.cache import get_solve_cache  # noqa: E402

TINY_REFERENCE = flow.Reference(
    train_designs=("PCI_BRIDGE", "DMA"), test_designs=("WB_DMA",),
    scale=1500, nets_per_design=8, epochs=1, sta_scale=1500,
    sta_pool_paths=24, quality_paths=20)


def tiny(workload: flow.Workload) -> flow.Workload:
    """The workload at test size, keeping which checks it triggers."""
    return replace(
        workload, label_designs=workload.label_designs[:2],
        label_scale=1500, label_cap=8,
        fit_nets=None if workload.fit_nets is None else 8, fit_epochs=1,
        infer_nets=None if workload.infer_nets is None else 4,
        sta_paths=12 if workload.name == "model" else 6)


@pytest.fixture(scope="module", params=sorted(flow.WORKLOADS))
def prepared(request):
    return flow.prepare(tiny(flow.WORKLOADS[request.param]), seed=3,
                        reference=TINY_REFERENCE)


def benchmark_json():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_workload_names_match_benchmark_json():
    names = [w["name"] for w in benchmark_json()["workloads"]]
    assert names == list(flow.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_checks_and_prints_declared_metrics(prepared,
                                                             trace):
    warmup = flow.run_rep(prepared)
    result = report.measure(prepared, warmup, setup_s=1.0, seconds=0.0,
                            trace=trace)
    record = result.record
    assert record["correct"], result.lines
    assert record["failed"] == 0 and record["attempted"] > 0
    declared = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in record["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    printed = "\n".join(result.lines)
    for name in ("fail_frac", *[m["name"] for m in
                                benchmark_json()["end_to_end"]]):
        assert f"metric {name} = " in printed


def test_repetitions_start_from_empty_caches_and_pristine_netlist(prepared):
    pristine = flow.netlist_digest(prepared.sta_netlist)
    first = flow.run_rep(prepared)
    assert len(get_solve_cache()) > 0          # the rep filled the caches
    assert flow.netlist_digest(first.eco.netlist) != pristine  # and edited
    second = flow.run_rep(prepared)
    assert first.start_state == second.start_state == (0, 0, pristine)
    assert flow.netlist_digest(prepared.sta_netlist) == pristine
    netlist = flow.begin_rep(prepared)
    assert len(get_solve_cache()) == 0 and len(get_awe_cache()) == 0
    assert flow.netlist_digest(netlist) == pristine


def test_checks_catch_differing_repetitions(prepared):
    reps = [flow.run_rep(prepared), flow.run_rep(prepared)]
    assert flow.check_reps(prepared, reps) == []
    reps[1].label_digest = "different"
    reps[1].start_state = (1, 0, "")
    problems = flow.check_reps(prepared, reps)
    assert any("label_digest differs" in p for p in problems)
    assert any("started with state" in p for p in problems)


@pytest.mark.parametrize("name", run.FORBIDDEN_ENV)
def test_refuses_settings_that_change_what_is_measured(monkeypatch, name):
    monkeypatch.setenv(name, "1")
    assert name in run.start_problem()


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "label",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
