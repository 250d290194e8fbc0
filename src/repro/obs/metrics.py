"""Typed counters, gauges and histograms for pipeline health accounting.

Unlike spans (see :mod:`repro.obs.tracer`), metrics are *always on*: a
counter increment is one lock round-trip plus an integer addition, cheap
enough for the hottest loops (threshold-crossing searches, per-net MNA
assembly).  The process-wide :class:`MetricRegistry` is reachable through
:func:`get_metrics`; modules get-or-create their instruments by dotted
name:

* ``Counter`` — monotone event counts (nets simulated, fallback-tier hits,
  cache hits, skipped samples);
* ``Gauge`` — last-written values (current learning rate, dataset size);
* ``Histogram`` — value distributions with power-of-two buckets plus exact
  count/sum/min/max (MNA solve sizes, per-tier latencies).

``registry.snapshot()`` returns a plain JSON-safe dict, the layout embedded
in the ``repro bench`` serve report and emitted by ``repro report --json``.

Thread safety: serve worker threads increment the same instruments
concurrently, and ``self.count += 1`` is a read-modify-write the GIL may
split across threads.  Counters and histograms therefore carry a plain
per-instrument ``threading.Lock`` (deliberately *not* a watched
:func:`~repro.obs.lockwatch.named_lock` — instrument locks are innermost
leaves and would only add noise to the lock-order graph); gauges are a
single atomic store/load and stay lock-free.  The registry's own
get-or-create/reset/snapshot paths run under its watched lock.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Optional

from .lockwatch import named_lock


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0  # repro-guarded-by: _lock
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def snapshot(self) -> int:
        with self._lock:
            return self.value


class Gauge:
    """Last-written scalar value (``None`` until first set).

    Lock-free on purpose: ``set``/``snapshot`` are one store / one load of
    a single reference, which CPython performs atomically — there is no
    read-modify-write to split.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = None

    def snapshot(self) -> Optional[float]:
        return self.value


class Histogram:
    """Distribution summary: exact count/sum/min/max + log2 buckets.

    Buckets are keyed by ``ceil(log2(value))`` so each one covers a factor
    of two of the positive axis; zero and negative observations land in the
    dedicated ``"<=0"`` bucket.  This gives a fixed-size, merge-friendly
    digest without storing samples.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0          # repro-guarded-by: _lock
        self.total = 0.0        # repro-guarded-by: _lock
        self.min = math.inf     # repro-guarded-by: _lock
        self.max = -math.inf    # repro-guarded-by: _lock
        self.buckets: Dict[str, int] = {}  # repro-guarded-by: _lock
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            key = "<=0" if value <= 0.0 else str(math.ceil(math.log2(value)))
            self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0-100) from the log2 buckets.

        Exact ``min``/``max`` anchor the tails; interior quantiles
        interpolate geometrically inside the covering power-of-two bucket,
        which bounds the relative error at sqrt(2).  That is the precision
        contract of this digest: good enough for p50/p99 latency
        reporting without storing samples.  NaN when empty.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        with self._lock:
            if not self.count:
                return float("nan")
            target = q / 100.0 * self.count
            # Buckets in ascending value order: "<=0" first, then exponent.
            ordered = sorted(self.buckets.items(),
                             key=lambda kv: -math.inf if kv[0] == "<=0"
                             else int(kv[0]))
            seen = 0
            for key, count in ordered:
                seen += count
                if seen >= target:
                    if key == "<=0":
                        return min(self.min, 0.0)
                    exponent = int(key)
                    low = max(2.0 ** (exponent - 1), self.min)
                    high = min(2.0 ** exponent, self.max)
                    if high <= low:
                        return high
                    # Position of the target inside this bucket, 0..1.
                    frac = 1.0 - (seen - target) / count
                    return low * (high / low) ** frac
            return self.max

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = math.inf
            self.max = -math.inf
            self.buckets.clear()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            if not self.count:
                return {"count": 0, "sum": 0.0, "min": None, "max": None,
                        "mean": None, "buckets": {}}
            # self.mean would re-take the (non-reentrant) lock: inline it.
            return {"count": self.count, "sum": self.total, "min": self.min,
                    "max": self.max, "mean": self.total / self.count,
                    "buckets": dict(self.buckets)}


class MetricRegistry:
    """Get-or-create store of named instruments.

    Instruments are created on first use and *zeroed in place* by
    :meth:`reset`, so module-level references cached at import time stay
    valid across resets (``repro bench`` resets before its load run).
    Every access to the instrument maps runs under the registry lock —
    including the get path, because a lock-free ``dict.get`` racing a
    concurrent ``setdefault`` is exactly the pattern the concurrency lint
    tier exists to reject.  Hot loops cache their instrument references at
    import time, so the get path is not on any per-net fast path.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}      # repro-guarded-by: _lock
        self._gauges: Dict[str, Gauge] = {}          # repro-guarded-by: _lock
        self._histograms: Dict[str, Histogram] = {}  # repro-guarded-by: _lock
        self._lock = named_lock("MetricRegistry._lock")

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters.setdefault(name, Counter(name))
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges.setdefault(name, Gauge(name))
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms.setdefault(name, Histogram(name))
            return metric

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every instrument in place (references stay valid)."""
        with self._lock:
            for group in (self._counters, self._gauges, self._histograms):
                for metric in group.values():
                    metric.reset()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view: ``{"counters": .., "gauges": .., "histograms": ..}``.

        Untouched instruments (zero counters, unset gauges, empty
        histograms) are omitted so snapshots only show what actually ran.
        Each instrument is snapshotted through its own locked method, so a
        concurrent ``observe`` never yields a torn count/sum pair.
        """
        with self._lock:
            counters = {n: c.snapshot()
                        for n, c in sorted(self._counters.items())}
            gauges = {n: g.snapshot()
                      for n, g in sorted(self._gauges.items())}
            histograms = {n: h.snapshot()
                          for n, h in sorted(self._histograms.items())}
        return {
            "counters": {n: v for n, v in counters.items() if v},
            "gauges": {n: v for n, v in gauges.items() if v is not None},
            "histograms": {n: v for n, v in histograms.items()
                           if v["count"]},
        }


_GLOBAL_REGISTRY = MetricRegistry()


def get_metrics() -> MetricRegistry:
    """The process-wide registry used by all built-in instrumentation."""
    return _GLOBAL_REGISTRY
