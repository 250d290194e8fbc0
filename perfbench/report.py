"""Measurement schedule, metric tables and output of one benchmark run."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

import flow
from layers import LAYERS, WRAPPED, Instrumentation, LayerTracer
from repro.analysis.cache import get_solve_cache
from repro.obs import get_metrics, get_tracer

#: Program spans read as they are from the library's own tracer.
PROGRAM_SPANS = ("dataset.design", "simulate.batch", "train.epoch",
                 "sta.analyze_design")

#: Spans the benchmark opens around each stage call in ``flow.run_rep``.
STAGE_SPANS = ("data.generate_s", "core.fit_s", "core.infer_s",
               "design.sta_s", "design.eco_full_pass_s",
               "design.eco_apply_s")

#: Per-layer metrics of a traced run: name -> unit, all per repetition.
#: Stage spans and wrapped calls report self time; ``sta_wire_s`` and
#: ``sta_gate_s`` come from the STA report and ``span.*`` are the library
#: spans' full durations.
PER_LAYER: Dict[str, str] = {
    **{name: "s" for name in STAGE_SPANS},
    **{name: "s" for _, _, name, _ in WRAPPED},
    "design.sta_wire_s": "s",
    "design.sta_gate_s": "s",
    "design.stages_timed": "count",
    "design.stages_unique": "count",
    "design.stage_reuse_ratio": "ratio",
    "design.eco_cone_paths": "paths/edit",
    "design.eco_stages_reused": "stages/edit",
    "analysis.eigendecompositions": "count",
    "analysis.batch_groups": "count",
    "analysis.batch_occupancy_mean": "nets/group",
    "analysis.crossing_searches": "count",
    "analysis.solve_cache_hits": "count",
    "analysis.solve_cache_misses": "count",
    "analysis.solve_cache_evictions": "count",
    "features.samples_built": "count",
    "nn.backward_calls": "count",
    "nn.batches": "count",
    **{f"span.{name}_s": "s" for name in PROGRAM_SPANS},
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "trace.rep_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Library counters behind the count metrics above.
_COUNTERS = {
    "design.stages_timed": "sta.stages_timed",
    "analysis.eigendecompositions": "simulator.eigendecompositions",
    "analysis.batch_groups": "batch.groups",
    "analysis.crossing_searches": "simulator.crossing_searches",
    "analysis.solve_cache_hits": "simulator.cache_hits",
    "analysis.solve_cache_misses": "simulator.cache_misses",
    "analysis.solve_cache_evictions": "simulator.cache_evictions",
    "features.samples_built": "features.samples_built",
    "nn.batches": "trainer.batches_run",
}


@dataclass
class Result:
    lines: List[str]
    record: Dict[str, object]


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def blas_threads() -> str:
    """Thread count of the OpenBLAS loaded into this process, if any."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return str(getter())
    return "unknown"


def environment_lines() -> List[str]:
    """What governs the numbers: cores, Python, numpy, BLAS, cache size."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env_threads = {name: os.environ[name] for name in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS") if name in os.environ}
    return [
        f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__}",
        f"env blas={blas.get('name')} {blas.get('version')} "
        f"threads={blas_threads()} "
        f"thread_env={env_threads or 'default'}",
        f"env solve_cache_maxsize={get_solve_cache().maxsize} jobs=1",
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Traced repetitions
# ----------------------------------------------------------------------
def layer_metrics(rep: flow.Rep, tracer: LayerTracer,
                  snapshot: Dict[str, Dict], spans: Sequence
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (all but the overhead)."""
    counters = snapshot["counters"]
    edits = max(1, len(rep.edit_ms))
    out: Dict[str, float] = {name: tracer.self_s.get(name, 0.0)
                             for name, unit in PER_LAYER.items()
                             if unit == "s"}
    out.update({name: float(counters.get(counter, 0))
                for name, counter in _COUNTERS.items()})
    occupancy = snapshot["histograms"].get("batch.occupancy", {})
    out.update({
        "design.sta_wire_s": rep.sta_wire_s,
        "design.sta_gate_s": rep.sta_gate_s,
        "design.stages_unique": float(rep.stages_unique),
        "design.stage_reuse_ratio": rep.stages_unique / max(1, rep.stages),
        "design.eco_cone_paths": rep.cone_paths / edits,
        "design.eco_stages_reused": rep.stages_reused / edits,
        "analysis.batch_occupancy_mean": occupancy.get("mean") or 0.0,
        "nn.backward_calls": float(tracer.calls.get("nn.backward_s", 0)),
        "trace.rep_s": rep.wall_s,
    })
    for name in PROGRAM_SPANS:
        out[f"span.{name}_s"] = sum(s.wall_s for s in spans
                                    if s.name == name)
    for layer in LAYERS:
        out[f"share.{layer}"] = tracer.layer_s.get(layer, 0.0) / rep.wall_s
    return out


def run_traced(prep: flow.Prepared, seconds: float
               ) -> Tuple[List[flow.Rep], List[Dict[str, float]]]:
    """Timed repetitions with layer wrappers and the library tracer on."""
    per_rep: List[Dict[str, float]] = []
    state: Dict[str, LayerTracer] = {}
    instrumentation = Instrumentation(LayerTracer())
    program_tracer = get_tracer()

    def before() -> LayerTracer:
        get_metrics().reset()
        program_tracer.reset()
        program_tracer.enable()
        state["tracer"] = instrumentation.tracer = LayerTracer()
        return state["tracer"]

    def after(rep: flow.Rep) -> None:
        program_tracer.disable()
        per_rep.append(layer_metrics(rep, state["tracer"],
                                     get_metrics().snapshot(),
                                     list(program_tracer.spans)))

    try:
        reps = flow.run_timed(prep, seconds, before=before, after=after)
    finally:
        program_tracer.disable()
        instrumentation.remove()
    return reps, per_rep


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def measure(prep: flow.Prepared, warmup: flow.Rep, setup_s: float,
            seconds: float, trace: bool) -> Result:
    """Timed repetitions, checks, and the printed metrics of one run."""
    if trace:
        untraced = flow.run_timed(prep, seconds / 2)
        traced, per_rep = run_traced(prep, seconds / 2)
        reps = untraced + traced
    else:
        reps = flow.run_timed(prep, seconds)
    problems = flow.check_reps(prep, [warmup] + reps)
    mismatches = reps[-1].eco.verify_parity()
    if mismatches:
        problems.append(f"ECO parity: {len(mismatches)} mismatches, first: "
                        f"{mismatches[0]}")
    attempted, failed = flow.failure_counts(reps, len(mismatches))
    end_to_end = flow.end_to_end(prep, reps, setup_s, peak_rss_mb())

    w = prep.workload
    lines = [f"run workload={w.name} seed={prep.seed} reps={len(reps)} "
             f"(+1 warm-up in set-up) traced={trace}"]
    for name, (value, unit, samples) in end_to_end.items():
        lines.append(f"metric {name} = {value:.6g} {unit} ({samples})")
    lines.append(f"metric fail_frac = {failed / attempted:.6g} ratio "
                 f"({failed} failed of {attempted} attempted)")
    if trace:
        metrics = {name: statistics.median(r[name] for r in per_rep)
                   for name in per_rep[0]}
        metrics["trace.overhead_ratio"] = metrics["trace.rep_s"] / \
            statistics.median(r.wall_s for r in untraced)
        values = {name: (float(metrics[name]), unit)
                  for name, unit in PER_LAYER.items()}
        lines += [f"layer {name} = {value:.6g} {unit} (median of "
                  f"{len(per_rep)} traced reps)"
                  for name, (value, unit) in values.items()]
    else:
        values = {name: (float(value), unit)
                  for name, (value, unit, _) in end_to_end.items()}
    lines += [f"FAILED {problem}" for problem in problems]
    return Result(lines=lines, record={
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    })
