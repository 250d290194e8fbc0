#!/usr/bin/env python
"""Generate ``docs/METRICS.md`` from the live metric registry.

The counter/gauge/histogram *names* come from the code itself: this tool
imports every instrumented module, walks the process-wide
``repro.obs.metrics.MetricRegistry``, and renders one table row per
registered instrument.  The human descriptions live in the
``DESCRIPTIONS`` map below, and the tool fails loudly on drift in either
direction:

* an instrument registered in code but missing from ``DESCRIPTIONS`` is an
  error (new metrics must be documented before CI passes);
* a ``DESCRIPTIONS`` entry whose instrument no longer exists is an error
  (renamed/removed metrics can't leave stale doc rows behind).

Dynamically named families (``fallback.served.<tier>``,
``batch.bucket_seconds.<n>``, ...) are declared in ``DYNAMIC_FAMILIES``;
members registered at runtime match by prefix and are documented as one
family row.

Usage::

    python tools/gen_metrics_doc.py            # rewrite docs/METRICS.md
    python tools/gen_metrics_doc.py --check    # exit 1 if the file is stale
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import sys
from typing import Dict, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

OUTPUT = os.path.join(REPO_ROOT, "docs", "METRICS.md")

#: Every module that registers instruments at import time.  Modules that
#: only create dynamic instruments at runtime still belong here so their
#: static ones register.
INSTRUMENTED_MODULES = [
    "repro.analysis.awe",
    "repro.analysis.batch",
    "repro.analysis.cache",
    "repro.analysis.mna",
    "repro.analysis.simulator",
    "repro.core.estimator",
    "repro.data.generate",
    "repro.design.eco",
    "repro.design.sta",
    "repro.features.pipeline",
    "repro.nn.trainer",
    "repro.parallel.pool",
    "repro.robustness.fallback",
    "repro.serve.admission",
    "repro.serve.batching",
    "repro.serve.client",
    "repro.serve.engine",
    "repro.serve.lifecycle",
    "repro.serve.server",
]

#: name -> (kind, description).  Kind is cross-checked against the
#: registry, so a counter silently turned histogram also fails the build.
DESCRIPTIONS: Dict[str, Tuple[str, str]] = {
    # -- analysis: golden simulator + caches + batch engine ------------
    "simulator.nets_analyzed": (
        "counter", "Nets put through golden transient analysis "
        "(scalar `GoldenTimer.analyze` or `golden_analyze_many`)."),
    "simulator.eigendecompositions": (
        "counter", "Dense symmetric eigendecompositions performed, "
        "scalar and batched combined (each net counts once)."),
    "simulator.cap_floor_retries": (
        "counter", "Ill-conditioned solves retried with an escalated "
        "minimum-capacitance floor."),
    "simulator.crossing_searches": (
        "counter", "Threshold-crossing searches requested "
        "(one per probed (node, level) pair)."),
    "simulator.matrix_size": (
        "histogram", "Node count of each eigendecomposed system."),
    "simulator.cache_hits": (
        "counter", "Eigensolve memo-cache hits (`SolveCache`)."),
    "simulator.cache_misses": (
        "counter", "Eigensolve memo-cache misses."),
    "simulator.cache_evictions": (
        "counter", "LRU evictions from the eigensolve cache."),
    "simulator.cache_persist_hits": (
        "counter", "Eigensolves warm-started from the on-disk cache tier "
        "(`REPRO_SOLVE_CACHE_DIR`)."),
    "simulator.cache_persist_misses": (
        "counter", "Disk-tier lookups that found no usable `.npz` file "
        "(missing, corrupted, or schema-mismatched)."),
    "awe.cache_hits": (
        "counter", "AWE step-response cache hits (`AWEStepCache`)."),
    "awe.cache_misses": (
        "counter", "AWE step-response cache misses."),
    "batch.groups": (
        "counter", "Same-size groups pushed through a stacked LAPACK "
        "call by the batch engine."),
    "batch.occupancy": (
        "histogram", "Nets per stacked group (batch fill level)."),
    "batch.padding_waste": (
        "counter", "Dead padded slots created by `bucket=\"pow2\"` "
        "grouping (always 0 in the default exact mode)."),
    "batch.scalar_fallbacks": (
        "counter", "Batch members replayed through the scalar path "
        "(ill-conditioned at the base cap floor, or a LAPACK failure "
        "poisoning the stack)."),
    "batch.nets_solved": (
        "counter", "Nets eigendecomposed inside stacked groups "
        "(excludes cache hits and scalar fallbacks)."),
    "batch.awe_primed": (
        "counter", "Nets whose AWE step response was bulk-computed into "
        "the cache by `prime_awe`."),
    "mna.assemblies": (
        "counter", "Conductance-matrix assemblies."),
    "mna.reductions": (
        "counter", "Source-row reductions (`reduce_source`)."),
    "mna.inversions": (
        "counter", "Reduced-system inversions for transfer-resistance "
        "matrices."),
    "mna.solve_size": (
        "histogram", "Reduced-system size per MNA assembly."),
    # -- data / features / training / estimator ------------------------
    "dataset.nets_labeled": (
        "counter", "Nets successfully golden-labeled into samples."),
    "dataset.nets_skipped": (
        "counter", "Nets dropped from a dataset build with a typed "
        "failure (see `WireTimingDataset.skipped`)."),
    "features.samples_built": (
        "counter", "`NetSample` objects constructed."),
    "trainer.epochs_run": ("counter", "Training epochs completed."),
    "trainer.batches_run": ("counter", "Training batches processed."),
    "estimator.predictions": (
        "counter", "Per-net estimator predictions served."),
    "estimator.label_prior_fallbacks": (
        "counter", "Predictions answered by the label-prior fallback "
        "(untrained or deserialized-without-weights estimator)."),
    # -- parallel ------------------------------------------------------
    "parallel.tasks": (
        "counter", "Tasks submitted through `parallel_map`."),
    "parallel.worker_crashes": (
        "counter", "Worker-process crashes absorbed by `parallel_map`."),
    "parallel.serial_retries": (
        "counter", "Crashed tasks replayed serially in the parent."),
    "parallel.jobs": (
        "gauge", "Worker count of the most recent `parallel_map` call."),
    # -- STA / robustness ----------------------------------------------
    "sta.stages_timed": ("counter", "Gate stages timed during STA."),
    "sta.paths_timed": ("counter", "Timing paths analyzed during STA."),
    # -- incremental / ECO timing --------------------------------------
    "incremental.edits_applied": (
        "counter", "Netlist edits replayed through `ECOTimingEngine`."),
    "incremental.paths_retimed": (
        "counter", "Paths re-timed because an edit dirtied their cone "
        "or rewrote their stage list."),
    "incremental.paths_reused": (
        "counter", "Paths left untouched by an edit replay (their "
        "timings carried over verbatim)."),
    "incremental.stages_reused": (
        "counter", "Stage timings served from the warm memo while "
        "re-timing dirty paths."),
    "incremental.stale_entries_dropped": (
        "counter", "Stage-memo entries invalidated by edits."),
    "incremental.solves_invalidated": (
        "counter", "Primed `SolveCache` eigensolves dropped because an "
        "edit rewrote a net's RC network."),
    "incremental.cone_size": (
        "histogram", "Paths re-timed per edit (the dirty fanout cone)."),
    "fallback.degraded_nets": (
        "counter", "Nets served by a lower tier after the preferred "
        "wire-timing tier failed."),
    # -- serving -------------------------------------------------------
    "serve.requests": ("counter", "Timing requests processed."),
    "serve.nets_served": ("counter", "Nets successfully answered."),
    "serve.net_errors": ("counter", "Nets that failed all tiers."),
    "serve.deadline_cancelled_nets": (
        "counter", "Nets skipped because their request's deadline "
        "expired mid-batch."),
    "serve.request_seconds": (
        "histogram", "Wall seconds per served request."),
    "serve.cache_hits": ("counter", "Prediction-cache hits."),
    "serve.cache_misses": ("counter", "Prediction-cache misses."),
    "serve.admitted": ("counter", "Requests admitted past admission "
                                  "control."),
    "serve.rejected_overload": (
        "counter", "Requests rejected by backpressure (queue full)."),
    "serve.deadline_expired": (
        "counter", "Requests expired in queue before service."),
    "serve.shed_requests": (
        "counter", "Requests served in a degraded shed level."),
    "serve.queue_depth": ("gauge", "Current admission-queue depth."),
    "serve.queue_wait_s": (
        "histogram", "Seconds requests spent queued before service."),
    "serve.batches": ("counter", "Batch windows executed."),
    "serve.batch_nets": ("histogram", "Nets per executed batch window."),
    "serve.batch_requests": (
        "histogram", "Requests per executed batch window."),
    "serve.http_requests": ("counter", "HTTP requests received."),
    "serve.worker_crashes": ("counter", "Serving-worker crashes."),
    "serve.worker_restarts": ("counter", "Serving-worker restarts."),
    "serve.last_resort_retries": (
        "counter", "Requests replayed in-process after repeated worker "
        "deaths."),
    "serve.client_retries": ("counter", "Client-side retries."),
    "serve.client_hedges": ("counter", "Client-side hedged requests."),
    # -- lint: the --concurrency tier ----------------------------------
    "lint.concurrency.modules": (
        "counter", "Modules swept by the CONC pack "
        "(`repro lint --concurrency`)."),
    "lint.concurrency.findings": (
        "counter", "Concurrency findings emitted (post-suppression): "
        "LOCK001/LOCK002/GUARD001/ESCAPE001."),
    "lint.concurrency.lock_edges": (
        "counter", "Lock-order graph edges discovered per run."),
}

#: statically named instruments created lazily inside a code path (via
#: ``get_metrics().counter(...)`` at call time) rather than at module
#: import.  They are documented above but won't appear in the registry
#: when this tool imports the modules, so the staleness check skips them.
LAZY_REGISTERED = {
    "fallback.degraded_nets",
    "serve.http_requests",
    "serve.last_resort_retries",
    "lint.concurrency.modules",
    "lint.concurrency.findings",
    "lint.concurrency.lock_edges",
}

#: prefix -> (kind, display name, description) for runtime-named metrics.
DYNAMIC_FAMILIES: Dict[str, Tuple[str, str, str]] = {
    "fallback.served.": (
        "counter", "fallback.served.<tier>",
        "Nets served by each wire-timing tier of a `FallbackChain`."),
    "fallback.failures.": (
        "counter", "fallback.failures.<tier>",
        "Typed failures per wire-timing tier."),
    "fallback.tier_seconds.": (
        "histogram", "fallback.tier_seconds.<tier>",
        "Wall seconds per tier invocation."),
    "batch.bucket_seconds.": (
        "histogram", "batch.bucket_seconds.<n>",
        "Wall seconds per stacked solve of the size-`n` group "
        "(batch engine and `prime_awe`)."),
    "serve.tier.": (
        "counter", "serve.tier.<name>",
        "Queries answered per serving-ladder tier (including `cache`)."),
}

HEADER = """\
# Metric reference

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: python tools/gen_metrics_doc.py
     CI checks freshness with: python tools/gen_metrics_doc.py --check -->

Every counter, gauge and histogram the pipeline can emit, generated from
the instruments the code actually registers (see
`src/repro/obs/metrics.py` for the instrument semantics and
[OBSERVABILITY.md](OBSERVABILITY.md) for the API and the per-module
instrumentation map).  Names are dotted by subsystem; all durations are
seconds.
"""


def _registered() -> Dict[str, Dict[str, object]]:
    for module in INSTRUMENTED_MODULES:
        importlib.import_module(module)
    from repro.obs import get_metrics

    registry = get_metrics()
    return {"counter": dict(registry._counters),
            "gauge": dict(registry._gauges),
            "histogram": dict(registry._histograms)}


def _check_coverage(registered: Dict[str, Dict[str, object]]) -> List[str]:
    problems: List[str] = []
    kind_of: Dict[str, str] = {}
    for kind, instruments in registered.items():
        for name in instruments:
            kind_of[name] = kind
    for name, kind in sorted(kind_of.items()):
        if name in DESCRIPTIONS:
            expected = DESCRIPTIONS[name][0]
            if expected != kind:
                problems.append(f"{name}: registered as {kind}, "
                                f"documented as {expected}")
        elif not any(name.startswith(prefix)
                     for prefix in DYNAMIC_FAMILIES):
            problems.append(f"{name}: registered {kind} has no entry in "
                            f"DESCRIPTIONS (document it in "
                            f"tools/gen_metrics_doc.py)")
    for name, (kind, _) in sorted(DESCRIPTIONS.items()):
        if name in LAZY_REGISTERED:
            continue
        if name not in registered.get(kind, {}):
            problems.append(f"{name}: documented {kind} is not registered "
                            f"by any instrumented module (stale entry?)")
    return problems


def render() -> str:
    registered = _registered()
    problems = _check_coverage(registered)
    if problems:
        for line in problems:
            print(f"error: {line}", file=sys.stderr)
        raise SystemExit(2)
    lines = [HEADER]
    for kind, title in (("counter", "Counters"), ("gauge", "Gauges"),
                        ("histogram", "Histograms")):
        static = [(name, description)
                  for name, (doc_kind, description)
                  in sorted(DESCRIPTIONS.items()) if doc_kind == kind]
        families = [(display, description)
                    for prefix, (fam_kind, display, description)
                    in sorted(DYNAMIC_FAMILIES.items())
                    if fam_kind == kind]
        lines.append(f"\n## {title}\n")
        lines.append("| name | meaning |")
        lines.append("|---|---|")
        for name, description in static:
            lines.append(f"| `{name}` | {description} |")
        for display, description in families:
            lines.append(f"| `{display}` | {description} |")
    lines.append("")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Generate or check docs/METRICS.md")
    parser.add_argument("--check", action="store_true",
                        help="verify the committed file matches the "
                             "registry instead of rewriting it")
    args = parser.parse_args(argv)
    content = render()
    if args.check:
        try:
            with open(OUTPUT) as handle:
                on_disk = handle.read()
        except OSError:
            print(f"error: {OUTPUT} missing — run "
                  f"tools/gen_metrics_doc.py", file=sys.stderr)
            return 1
        if on_disk != content:
            print("docs/METRICS.md is stale — regenerate with "
                  "`python tools/gen_metrics_doc.py`", file=sys.stderr)
            return 1
        counters = content.count("| `")
        print(f"docs/METRICS.md is fresh ({counters} documented "
              f"instruments)")
        return 0
    with open(OUTPUT, "w") as handle:
        handle.write(content)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
