"""The ``repro bench`` end-to-end workload and ``BENCH_*.json`` schema.

This is the repo's performance baseline: one pinned workload that exercises
every stage a future optimization PR could speed up — dataset generation
(golden transient labeling), training, evaluation (pure inference), and STA
over the fallback chain — timed per stage in both wall-clock and CPU
seconds, and written to ``BENCH_<date>.json`` at the repo root.

A PR proving a speedup runs ``repro bench`` before and after its change and
diffs the two files; `docs/OBSERVABILITY.md` documents the workflow and the
schema, and :func:`validate_bench_report` enforces the schema in CI.

The heavy pipeline imports happen inside :func:`run_bench`, keeping
:mod:`repro.obs` importable without the model stack.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .export import dump_json, observability_document
from .metrics import get_metrics
from .tracer import get_tracer

#: Schema identifier stamped into every report; bump on layout changes.
BENCH_SCHEMA = "repro-bench/1"

#: Stage names every schema-valid report must time, in pipeline order.
REQUIRED_STAGES = ("dataset", "train", "evaluate", "sta")

#: Required stages/results per workload mode.  ``workload.mode`` is
#: ``"pipeline"`` (implied when absent, so pre-serve reports stay valid),
#: ``"serve"`` (``repro bench --serve`` load-generation reports), or
#: ``"eco"`` (``repro bench --eco`` incremental-retiming reports).
MODE_REQUIRED_STAGES = {
    "pipeline": REQUIRED_STAGES,
    "serve": ("serve",),
    "eco": ("full_pass", "eco_replay"),
}

#: Required ``results`` sections per workload mode.
MODE_RESULT_SECTIONS = {
    "pipeline": ("dataset", "train", "evaluate", "sta"),
    "serve": ("serve",),
    "eco": ("eco",),
}


@dataclass(frozen=True)
class BenchWorkload:
    """Pinned definition of one benchmark workload.

    Every field that affects runtime is explicit here and serialized into
    the report, so two ``BENCH_*.json`` files are comparable only when
    their workloads match — the validator and the diff workflow both check
    this block first.
    """

    name: str
    train_names: Tuple[str, ...]
    test_names: Tuple[str, ...]
    scale: int
    nets_per_design: int
    epochs: int
    plan: str = "PlanB"
    sta_paths: int = 12
    seed: int = 7
    si_mode: bool = True
    #: Worker processes for the parallel stages (dataset labeling,
    #: evaluation, STA).  Results are jobs-invariant; only the timings
    #: change, which is why comparable reports must pin the same value.
    jobs: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "train_names": list(self.train_names),
            "test_names": list(self.test_names),
            "scale": self.scale,
            "nets_per_design": self.nets_per_design,
            "epochs": self.epochs,
            "plan": self.plan,
            "sta_paths": self.sta_paths,
            "seed": self.seed,
            "si_mode": self.si_mode,
            "jobs": self.jobs,
        }


#: The standard baseline workload (a few minutes on a laptop CPU).
DEFAULT_WORKLOAD = BenchWorkload(
    name="default", train_names=("PCI_BRIDGE", "DMA"),
    test_names=("WB_DMA",), scale=1200, nets_per_design=24, epochs=12,
    sta_paths=12)

#: CI smoke workload (seconds, not minutes); same shape, tiny sizes.
QUICK_WORKLOAD = BenchWorkload(
    name="quick", train_names=("PCI_BRIDGE",), test_names=("WB_DMA",),
    scale=3200, nets_per_design=6, epochs=2, sta_paths=4)


@dataclass(frozen=True)
class ECOBenchWorkload:
    """Pinned ``repro bench --eco`` micro-workload.

    One design, one full timing pass, then ``edits`` single-net R/C
    edits replayed through :class:`~repro.design.eco.ECOTimingEngine`.
    The headline number is ``speedup_vs_full``: how much cheaper one
    edit replay is than re-running the whole pass — the quantity an
    incremental-timing regression would degrade.
    """

    name: str
    benchmark: str
    scale: int
    sta_paths: int
    edits: int
    seed: int = 7
    jobs: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": "eco",
            "name": self.name,
            "benchmark": self.benchmark,
            "scale": self.scale,
            "sta_paths": self.sta_paths,
            "edits": self.edits,
            "seed": self.seed,
            "jobs": self.jobs,
        }


#: Standard ECO baseline: a mid-size design, enough paths for real cones.
DEFAULT_ECO_WORKLOAD = ECOBenchWorkload(
    name="eco", benchmark="WB_DMA", scale=1200, sta_paths=32, edits=10)

#: CI smoke variant (seconds): smaller design, fewer edits.
QUICK_ECO_WORKLOAD = ECOBenchWorkload(
    name="eco-quick", benchmark="WB_DMA", scale=3200, sta_paths=16, edits=5)


@dataclass
class StageTiming:
    """Wall/CPU seconds of one top-level bench stage."""

    name: str
    wall_s: float
    cpu_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "wall_s": self.wall_s, "cpu_s": self.cpu_s}


class _StageClock:
    """Times the four top-level stages with wall + CPU clocks."""

    def __init__(self) -> None:
        self.stages: List[StageTiming] = []

    def run(self, name: str, fn: Callable[[], Any]) -> Any:
        tracer = get_tracer()
        start_wall = time.perf_counter()
        start_cpu = time.process_time()
        with tracer.span(f"bench.{name}"):
            result = fn()
        self.stages.append(StageTiming(
            name=name,
            wall_s=time.perf_counter() - start_wall,
            cpu_s=time.process_time() - start_cpu))
        return result


def bench_filename(date: Optional[str] = None) -> str:
    """``BENCH_<YYYY-MM-DD>.json`` for today (or the given date string)."""
    return f"BENCH_{date or time.strftime('%Y-%m-%d')}.json"


def run_bench(workload: BenchWorkload = DEFAULT_WORKLOAD,
              trace: bool = True) -> Dict[str, Any]:
    """Run the pinned workload and return the ``BENCH`` report document.

    Resets the global metric registry and (when ``trace`` is true) enables
    and resets the global tracer for the duration, so the report's
    observability section describes exactly this run.
    """
    from dataclasses import replace as _replace

    from ..core import WireTimingEstimator
    from ..core.config import PLANS
    from ..data import generate_dataset, train_val_split
    from ..design import STAEngine, generate_benchmark, sample_timing_paths
    from ..liberty import make_default_library
    from ..robustness import default_fallback_chain

    import numpy as np

    tracer = get_tracer()
    registry = get_metrics()
    registry.reset()
    was_enabled = tracer.enabled
    if trace:
        tracer.reset()
        tracer.enable()
    try:
        clock = _StageClock()

        dataset = clock.run("dataset", lambda: generate_dataset(
            train_names=list(workload.train_names),
            test_names=list(workload.test_names),
            scale=workload.scale,
            nets_per_design=workload.nets_per_design,
            si_mode=workload.si_mode,
            seed=workload.seed,
            n_jobs=workload.jobs))

        config = _replace(PLANS[workload.plan], epochs=workload.epochs,
                          seed=workload.seed)
        estimator = WireTimingEstimator(config)
        train, val = train_val_split(dataset.train, 0.1, seed=workload.seed)

        history = clock.run("train", lambda: estimator.fit(
            train, val_samples=val, epochs=workload.epochs, verbose=False))

        eval_metrics = clock.run("evaluate",
                                 lambda: estimator.evaluate(
                                     dataset.test, jobs=workload.jobs))
        throughput = estimator.throughput(dataset.test)

        def _sta() -> Tuple[Any, Any]:
            library = make_default_library()
            netlist = generate_benchmark(workload.test_names[0], library,
                                         workload.scale)
            rng = np.random.default_rng(workload.seed)
            for path in sample_timing_paths(netlist, workload.sta_paths, rng):
                netlist.add_path(path)
            chain = default_fallback_chain()
            report = STAEngine(netlist, chain).analyze_design(
                jobs=workload.jobs)
            return report, chain

        sta_report, chain = clock.run("sta", _sta)
        # Tier counts come from the report's per-stage provenance rather
        # than chain.stats: with jobs > 1 the chain instances that served
        # nets live in worker processes, but every stage records its tier
        # in StageTiming.tier.  These counts are stage visits, while
        # chain.counters() counts only computed stages (the STA stage
        # memo serves repeat visits without calling the chain), so the
        # two differ whenever paths share stages.
        from collections import Counter as _Counter

        tier_counts = _Counter(stage.tier for path in sta_report.paths
                               for stage in path.stages)
        fallback_tiers = {name: tier_counts.get(name, 0)
                          for name in chain.tier_names}
        degraded_nets = sum(count for name, count in fallback_tiers.items()
                            if name != chain.tier_names[0])

        import platform

        from ..parallel import worker_context

        document: Dict[str, Any] = {
            "schema": BENCH_SCHEMA,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "environment": {
                "python": sys.version.split()[0],
                "platform": platform.platform(),
                "numpy": np.__version__,
                # Resolved multiprocessing start method (REPRO_MP_CONTEXT)
                # and job count: timings are only comparable between runs
                # that used the same execution configuration, and the
                # compare tool checks this block.
                "mp_start_method": worker_context().get_start_method(),
                "jobs": workload.jobs,
            },
            "workload": workload.to_dict(),
            "stages": [stage.to_dict() for stage in clock.stages],
            "results": {
                "dataset": {
                    "train_nets": len(dataset.train),
                    "test_nets": len(dataset.test),
                    "train_paths": dataset.num_train_paths,
                    "test_paths": dataset.num_test_paths,
                    "skipped_nets": len(dataset.skipped),
                },
                "train": {
                    "epochs_run": len(history),
                    "final_train_loss": history.final_train_loss,
                    "best_val_loss": history.best_val_loss,
                    "diverged": history.diverged is not None,
                },
                "evaluate": {
                    "r2_slew": eval_metrics.r2_slew,
                    "r2_delay": eval_metrics.r2_delay,
                    "max_err_slew_ps": eval_metrics.max_err_slew_ps,
                    "max_err_delay_ps": eval_metrics.max_err_delay_ps,
                    "num_paths": eval_metrics.num_paths,
                    "throughput_nets_per_s": throughput,
                },
                "sta": {
                    "design": sta_report.design,
                    "wire_model": sta_report.wire_model,
                    "paths": len(sta_report.paths),
                    "gate_seconds": sta_report.gate_seconds,
                    "wire_seconds": sta_report.wire_seconds,
                    "fallback_tiers": fallback_tiers,
                    "degraded_nets": degraded_nets,
                },
            },
            "observability": observability_document(tracer, registry),
        }
        return document
    finally:
        tracer.enabled = was_enabled


def run_eco_bench(workload: ECOBenchWorkload = DEFAULT_ECO_WORKLOAD,
                  trace: bool = True) -> Dict[str, Any]:
    """Run the ECO micro-workload and return its ``BENCH`` document.

    Stage ``full_pass`` times the baseline analysis of every recorded
    path (which also warms the incremental stage memo); stage
    ``eco_replay`` applies ``workload.edits`` single-net R/C edits and
    re-times only each edit's fanout cone.  Afterwards the incremental
    results are verified bitwise against a cold full STA pass —
    ``results.eco.parity_ok`` — so the speedup number can never come
    from silently wrong timing.
    """
    import platform

    import numpy as np

    from ..design import (ECOTimingEngine, GoldenWireModel,
                          generate_benchmark, sample_timing_paths)
    from ..liberty import make_default_library
    from ..parallel import worker_context

    tracer = get_tracer()
    registry = get_metrics()
    registry.reset()
    was_enabled = tracer.enabled
    if trace:
        tracer.reset()
        tracer.enable()
    try:
        clock = _StageClock()
        library = make_default_library()
        netlist = generate_benchmark(workload.benchmark, library,
                                     workload.scale)
        rng = np.random.default_rng(workload.seed)
        for path in sample_timing_paths(netlist, workload.sta_paths, rng):
            netlist.add_path(path)
        engine = ECOTimingEngine(netlist, GoldenWireModel())
        clock.run("full_pass", engine.full_pass)

        # Single-net edits over nets that actually carry timing paths —
        # an edit with an empty cone would flatter the speedup.
        path_nets = sorted({stage.net for path in netlist.paths
                            for stage in path.stages})
        order = [int(i) for i in rng.permutation(len(path_nets))]
        replay_times: List[float] = []
        outcomes: List[Any] = []

        def _replay() -> None:
            for count in range(workload.edits):
                net = path_nets[order[count % len(order)]]
                edit = netlist.scale_net_rc(net, r_factor=1.05,
                                            c_factor=0.95)
                start = time.perf_counter()
                outcomes.append(engine.apply(edit))
                replay_times.append(time.perf_counter() - start)

        clock.run("eco_replay", _replay)
        parity_problems = engine.verify_parity()

        full_pass_s = clock.stages[0].wall_s
        mean_replay = sum(replay_times) / len(replay_times) \
            if replay_times else float("nan")
        document: Dict[str, Any] = {
            "schema": BENCH_SCHEMA,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "environment": {
                "python": sys.version.split()[0],
                "platform": platform.platform(),
                "numpy": np.__version__,
                "mp_start_method": worker_context().get_start_method(),
                "jobs": workload.jobs,
            },
            "workload": workload.to_dict(),
            "stages": [stage.to_dict() for stage in clock.stages],
            "results": {
                "eco": {
                    "design": netlist.name,
                    "paths": len(netlist.paths),
                    "edits_applied": len(outcomes),
                    "paths_retimed": sum(o.cone_size for o in outcomes),
                    "stages_reused": sum(o.stages_reused for o in outcomes),
                    "full_pass_s": full_pass_s,
                    "edit_replay_mean_s": mean_replay,
                    "edit_replay_max_s": max(replay_times)
                    if replay_times else float("nan"),
                    "speedup_vs_full": full_pass_s / mean_replay
                    if replay_times and mean_replay > 0.0 else float("nan"),
                    "parity_ok": not parity_problems,
                    "parity_problems": len(parity_problems),
                },
            },
            "observability": observability_document(tracer, registry),
        }
        return document
    finally:
        tracer.enabled = was_enabled


def format_eco_summary(document: Dict[str, Any]) -> str:
    """Short human-readable digest printed after ``repro bench --eco``."""
    eco = document["results"]["eco"]
    lines = [f"eco bench workload {document['workload']['name']!r} "
             f"({document['created_utc']})"]
    for stage in document["stages"]:
        lines.append(f"  {stage['name']:<11} wall {stage['wall_s']:8.3f}s  "
                     f"cpu {stage['cpu_s']:8.3f}s")
    lines.append(f"  {eco['edits_applied']} edits on {eco['design']!r} "
                 f"({eco['paths']} paths): retimed {eco['paths_retimed']} "
                 f"paths, reused {eco['stages_reused']} stages")
    lines.append(f"  replay mean {eco['edit_replay_mean_s'] * 1e3:.1f} ms "
                 f"(max {eco['edit_replay_max_s'] * 1e3:.1f} ms), "
                 f"{eco['speedup_vs_full']:.1f}x vs full pass, parity "
                 f"{'ok' if eco['parity_ok'] else 'VIOLATED'}")
    return "\n".join(lines)


def write_bench_report(document: Dict[str, Any], out_dir: str = ".",
                       date: Optional[str] = None) -> str:
    """Validate and write a report as ``<out_dir>/BENCH_<date>.json``."""
    import os

    problems = validate_bench_report(document)
    if problems:
        raise ValueError("refusing to write schema-invalid bench report: "
                         + "; ".join(problems))
    path = os.path.join(out_dir, bench_filename(date))
    dump_json(document, path=path)
    return path


def validate_bench_report(document: Any) -> List[str]:
    """Schema check; returns a list of problems (empty = valid).

    Deliberately dependency-free (no jsonschema): checks the schema id,
    the presence and types of the top-level blocks, and that every
    :data:`REQUIRED_STAGES` entry is timed with finite non-negative
    wall/CPU seconds.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"report must be a JSON object, got {type(document).__name__}"]
    if document.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema must be {BENCH_SCHEMA!r}, "
                        f"got {document.get('schema')!r}")
    for block in ("created_utc", "workload", "stages", "results",
                  "observability"):
        if block not in document:
            problems.append(f"missing top-level block {block!r}")
    workload = document.get("workload")
    if workload is not None and not isinstance(workload, dict):
        problems.append("'workload' must be an object")
    mode = "pipeline"
    if isinstance(workload, dict):
        mode = str(workload.get("mode", "pipeline"))
        if mode not in MODE_REQUIRED_STAGES:
            problems.append(f"unknown workload mode {mode!r}")
            mode = "pipeline"
    required_stages = MODE_REQUIRED_STAGES[mode]
    stages = document.get("stages")
    if isinstance(stages, list):
        timed: Dict[str, Dict[str, Any]] = {}
        for entry in stages:
            if not isinstance(entry, dict) or "name" not in entry:
                problems.append(f"malformed stage entry: {entry!r}")
                continue
            timed[entry["name"]] = entry
        for name in required_stages:
            entry = timed.get(name)
            if entry is None:
                problems.append(f"missing required stage {name!r}")
                continue
            for clock in ("wall_s", "cpu_s"):
                value = entry.get(clock)
                ok = (isinstance(value, (int, float))
                      and not isinstance(value, bool)
                      and value >= 0.0 and value == value
                      and value != float("inf"))
                if not ok:
                    problems.append(
                        f"stage {name!r} has invalid {clock}: {value!r}")
    elif "stages" in document:
        problems.append("'stages' must be a list")
    results = document.get("results")
    if isinstance(results, dict):
        for section in MODE_RESULT_SECTIONS[mode]:
            if section not in results:
                problems.append(f"missing results section {section!r}")
        if mode == "serve":
            serve = results.get("serve")
            if isinstance(serve, dict):
                for field_name in ("requests_sent", "lost_requests",
                                   "throughput_nets_per_s", "latency_ms"):
                    if field_name not in serve:
                        problems.append(
                            f"serve results missing {field_name!r}")
            elif serve is not None:
                problems.append("'results.serve' must be an object")
        if mode == "eco":
            eco = results.get("eco")
            if isinstance(eco, dict):
                for field_name in ("paths", "edits_applied", "paths_retimed",
                                   "stages_reused", "full_pass_s",
                                   "edit_replay_mean_s", "speedup_vs_full",
                                   "parity_ok"):
                    if field_name not in eco:
                        problems.append(f"eco results missing {field_name!r}")
                if eco.get("parity_ok") is False:
                    problems.append("eco results report a parity violation")
            elif eco is not None:
                problems.append("'results.eco' must be an object")
    elif "results" in document:
        problems.append("'results' must be an object")
    return problems


def format_bench_summary(document: Dict[str, Any]) -> str:
    """Short human-readable digest printed after ``repro bench``."""
    lines = [f"bench workload {document['workload']['name']!r} "
             f"({document['created_utc']})"]
    total_wall = 0.0
    for stage in document["stages"]:
        lines.append(f"  {stage['name']:<10} wall {stage['wall_s']:8.3f}s  "
                     f"cpu {stage['cpu_s']:8.3f}s")
        total_wall += stage["wall_s"]
    lines.append(f"  {'total':<10} wall {total_wall:8.3f}s")
    ev = document["results"]["evaluate"]
    lines.append(f"  eval R2 slew/delay {ev['r2_slew']:.3f}/"
                 f"{ev['r2_delay']:.3f}, "
                 f"inference {ev['throughput_nets_per_s']:.1f} nets/s")
    sta = document["results"]["sta"]
    lines.append(f"  sta {sta['paths']} paths, gate/wire "
                 f"{sta['gate_seconds']:.3f}/{sta['wire_seconds']:.3f}s, "
                 f"tiers {sta['fallback_tiers']}")
    return "\n".join(lines)
