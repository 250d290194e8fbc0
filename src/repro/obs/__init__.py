"""Observability: structured tracing, metrics, exporters, lock watchdog.

Zero-dependency (stdlib-only) instrumentation layer used throughout the
pipeline's hot paths.  Four modules:

* :mod:`~repro.obs.tracer` — span-based stage timers with wall/CPU time,
  nesting and net/design provenance; disabled by default with a near-zero
  no-op cost, enabled via :func:`get_tracer`, the CLI, or the
  ``REPRO_TRACE=path.jsonl`` environment hook (streams spans as JSONL);
* :mod:`~repro.obs.metrics` — always-on typed counters, gauges and
  histograms (nets simulated, fallback-tier hits, MNA solve sizes, ...)
  behind a process-wide :func:`get_metrics` registry;
* :mod:`~repro.obs.profile` / :mod:`~repro.obs.export` — per-stage
  aggregation, the ``repro report --profile`` table, and JSON/JSONL
  serialization;
* :mod:`~repro.obs.lockwatch` — :func:`named_lock` and the runtime
  lock-order watchdog behind ``REPRO_LOCK_WATCHDOG``.

Performance is measured by ``perfbench/`` (docs/PERFORMANCE.md), which
reads these spans and counters; this package holds no benchmark.

Instrumentation convention: hot loops touch only counters (one integer
add); per-net / per-epoch / per-design granularity gets spans, which cost
nothing while the tracer is disabled.
"""

from .tracer import (NULL_SPAN, TRACE_ENV_VAR, Span, Tracer,
                     configure_from_env, get_tracer)
from .lockwatch import (WATCHDOG_ENV, LockOrderInversion, LockOrderWatchdog,
                        WatchedLock, get_lock_watchdog, named_lock,
                        watchdog_enabled)
from .metrics import (Counter, Gauge, Histogram, MetricRegistry, get_metrics)
from .profile import StageProfile, aggregate_spans, format_profile
from .export import (dump_json, load_trace, observability_document,
                     write_trace)

__all__ = [
    "Span", "Tracer", "get_tracer", "configure_from_env", "NULL_SPAN",
    "TRACE_ENV_VAR",
    "WATCHDOG_ENV", "LockOrderInversion", "LockOrderWatchdog",
    "WatchedLock", "get_lock_watchdog", "named_lock", "watchdog_enabled",
    "Counter", "Gauge", "Histogram", "MetricRegistry", "get_metrics",
    "StageProfile", "aggregate_spans", "format_profile",
    "write_trace", "load_trace", "observability_document", "dump_json",
]

# Opt-in environment hook: REPRO_TRACE=path.jsonl enables the global tracer
# and streams every finished span to that file.
configure_from_env()
