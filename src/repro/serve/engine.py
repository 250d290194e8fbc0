"""The serving estimator: shed-aware tier ladders with total termination.

One :class:`EstimationEngine` is shared by all worker threads (the
underlying :class:`~repro.robustness.fallback.FallbackChain` bookkeeping is
lock-guarded and the analytic tiers are stateless).  It owns one chain per
shed level:

* ``SHED_FULL`` — the full ladder: optional learned tier, then
  AWE -> D2M -> Elmore -> lumped-RC;
* ``SHED_ANALYTIC`` — Elmore -> lumped-RC (cheap, bounded error);
* ``SHED_LAST_RESORT`` — lumped-RC only: O(E) per net, cannot fail.

The contract of :meth:`serve_ticket` is *total termination*: every query
of the ticket ends in a prediction or a typed taxonomy error — deadline
checks run at every per-net boundary, chain failures surface as
degradation provenance, and any exception that still escapes is wrapped,
never propagated to the worker loop (the loop treats an escape as a
worker crash and engages the last-resort retry).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

from ..design.sta import WireTimingModel
from ..features.path_features import NetContext
from ..obs import get_metrics, named_lock
from ..robustness.errors import DeadlineError, EstimationError
from ..robustness.fallback import (LAST_RESORT_TIER, FallbackChain,
                                   LumpedRCWireModel)
from .admission import SHED_ANALYTIC, SHED_FULL, SHED_LAST_RESORT, Ticket
from .batching import Batch
from .protocol import (QueryResult, ServeResponse, TimingQuery,
                       error_document, error_response)

_REQUESTS = get_metrics().counter("serve.requests")
_NETS_OK = get_metrics().counter("serve.nets_served")
_NET_ERRORS = get_metrics().counter("serve.net_errors")
_CANCELLED = get_metrics().counter("serve.deadline_cancelled_nets")
_REQUEST_SECONDS = get_metrics().histogram("serve.request_seconds")
_CACHE_HITS = get_metrics().counter("serve.cache_hits")
_CACHE_MISSES = get_metrics().counter("serve.cache_misses")
_SERVE_TIERS = "serve.tier."


class PredictionCache:
    """Content-addressed memo of full-ladder predictions (thread-safe LRU).

    The serving workload that matters — incremental timing inside a
    placement/routing loop — re-queries mostly-unchanged nets on every
    iteration, so identical (parasitics, operating point) queries recur
    constantly.  Estimation is deterministic, which makes memoization
    sound: a hit replays the stored delays/slews with the original tier
    provenance plus ``cached: true``.  Only undegraded ``SHED_FULL``
    results are stored, so a hit is never worse than a recompute.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        self.maxsize = maxsize
        self._lock = named_lock("PredictionCache._lock")
        from collections import OrderedDict

        self._entries: "OrderedDict[bytes, QueryResult]" = OrderedDict()  # repro-guarded-by: _lock

    def get(self, key: bytes) -> Optional[QueryResult]:
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                _CACHE_MISSES.inc()
                return None
            self._entries.move_to_end(key)
            _CACHE_HITS.inc()
        return result

    def put(self, key: bytes, result: QueryResult) -> None:
        if self.maxsize == 0:
            return
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def contains(self, key: bytes) -> bool:
        """Metrics-free membership peek (no counters, no LRU promotion).

        Used by the batch-window prime pass to skip queries that will be
        answered from this cache anyway, without double-counting the
        ``serve.cache_*`` metrics that describe real lookups.
        """
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: Guards the one-shot build of the default-context cell pair below.  The
#: old function-attribute memo (``_default_context._cells``) was written
#: unlocked from every worker thread — the very race ESCAPE001 exists to
#: flag — so the memo is now a module global with a dedicated lock.
_CONTEXT_LOCK = named_lock("repro.serve.engine._CONTEXT_LOCK")
_UNBUILT = object()  # sentinel: "never attempted" (a failed build memoizes None)
_CONTEXT_CELLS: object = _UNBUILT


def _default_context(query: TimingQuery) -> Optional[NetContext]:
    """Serving-time cell context for the learned tier.

    The wire protocol carries parasitics, not the netlist, so the learned
    tier is fed a default inverter context from the synthetic library.
    Built lazily, once, under :data:`_CONTEXT_LOCK`.
    """
    global _CONTEXT_CELLS
    with _CONTEXT_LOCK:
        if _CONTEXT_CELLS is _UNBUILT:
            try:
                from ..liberty import make_default_library

                library = make_default_library()
                inverters = library.cells_with_function("INV")
                _CONTEXT_CELLS = (inverters[0], inverters[0]) \
                    if inverters else None
            except Exception:  # pragma: no cover  # repro-lint: disable=ERR002 static library build; None degrades to contextless estimation
                _CONTEXT_CELLS = None
        cells = _CONTEXT_CELLS
    if cells is None:
        return None
    drive, load = cells  # type: ignore[misc]
    return NetContext(input_slew=query.input_slew_s, drive_cell=drive,
                      load_cells=[load] * query.net.num_sinks)


class EstimationEngine:
    """Shed-aware wire-timing ladders behind the batching layer."""

    def __init__(self, learned: Optional[WireTimingModel] = None,
                 clock: Callable[[], float] = time.monotonic,
                 extra_tiers: Optional[List[WireTimingModel]] = None,
                 cache_size: int = 4096) -> None:
        from ..design.sta import (AWEWireModel, D2MWireModel,
                                  ElmoreWireModel)

        self.clock = clock
        self.learned = learned
        self.cache = PredictionCache(cache_size)
        full: List[WireTimingModel] = []
        if learned is not None:
            full.append(learned)
        if extra_tiers:
            full.extend(extra_tiers)
        full.extend([AWEWireModel(), D2MWireModel(), ElmoreWireModel()])
        self._chains: Dict[int, FallbackChain] = {
            SHED_FULL: FallbackChain(full),
            SHED_ANALYTIC: FallbackChain([ElmoreWireModel()]),
            SHED_LAST_RESORT: FallbackChain([], last_resort=True),
        }

    def chain_for(self, shed_level: int) -> FallbackChain:
        return self._chains.get(shed_level, self._chains[SHED_LAST_RESORT])

    # ------------------------------------------------------------------
    def serve_query(self, query: TimingQuery, ticket: Ticket,
                    shed_level: int) -> QueryResult:
        """One net's terminal outcome; never raises (except exits)."""
        now = self.clock()
        if ticket.expired(now):
            _CANCELLED.inc()
            budget = ticket.request.deadline_ms
            return QueryResult(ok=False, net=query.net.name, error=(
                error_document(DeadlineError(
                    "per-request budget exhausted before this net was "
                    "reached", budget_s=None if budget is None
                    else budget / 1e3,
                    elapsed_s=now - ticket.enqueued_at,
                    net=query.net.name, stage="serve"))))
        # Cache lookup runs at every shed level (a hit is free work); only
        # undegraded full-ladder results are ever stored.
        try:
            key: Optional[bytes] = query.cache_key()
        except Exception:  # repro-lint: disable=ERR002
            key = None
        if key is not None:
            hit = self.cache.get(key)
            if hit is not None:
                _NETS_OK.inc()
                get_metrics().counter(_SERVE_TIERS + str(hit.tier)).inc()
                return QueryResult(
                    ok=True, net=query.net.name, tier=hit.tier,
                    delays_s=hit.delays_s, slews_s=hit.slews_s,
                    degraded=hit.degraded, failures=list(hit.failures),
                    cached=True)
        chain = self.chain_for(shed_level)
        try:
            if query.sink_loads_f is not None:
                loads = np.asarray(query.sink_loads_f, dtype=np.float64)
            else:
                loads = np.zeros(query.net.num_sinks)
            context = _default_context(query) if self.learned is not None \
                else None
            delays, slews, record = chain.wire_timing_with_provenance(
                query.net, query.input_slew_s, loads,
                query.drive_resistance_ohm, context=context)
        except (KeyboardInterrupt, SystemExit):
            raise
        except EstimationError as exc:
            _NET_ERRORS.inc()
            return QueryResult(ok=False, net=query.net.name,
                               error=error_document(exc))
        # Terminal belt-and-braces: the chain's last resort cannot fail,
        # so anything landing here is a server-side bug — still answered
        # as a typed error, never a dropped query.
        except Exception as exc:  # repro-lint: disable=ERR002
            _NET_ERRORS.inc()
            return QueryResult(ok=False, net=query.net.name,
                               error=error_document(exc))
        _NETS_OK.inc()
        get_metrics().counter(_SERVE_TIERS + record.tier).inc()
        result = QueryResult(
            ok=True, net=query.net.name, tier=record.tier,
            delays_s=[float(v) for v in delays],
            slews_s=[float(v) for v in slews],
            degraded=record.degraded or shed_level != SHED_FULL,
            failures=[{"tier": f.tier, "reason": f.reason}
                      for f in record.failures])
        if key is not None and shed_level == SHED_FULL and not result.degraded:
            self.cache.put(key, result)
        return result

    def serve_ticket(self, ticket: Ticket, shed_level: int) -> bool:
        """Answer one ticket completely; True when nothing degraded.

        The return value feeds the admission breaker: a ticket whose
        queries all resolved on a non-terminal tier counts as healthy.
        """
        start = self.clock()
        results = [self.serve_query(query, ticket, shed_level)
                   for query in ticket.request.queries]
        elapsed = self.clock() - start
        response = ServeResponse(ok=True, results=results,
                                 served_ms=elapsed * 1e3,
                                 shed_level=shed_level)
        ticket.finish(response)
        _REQUESTS.inc()
        _REQUEST_SECONDS.observe(max(self.clock() - ticket.enqueued_at,
                                     1e-9))
        return all(r.ok and r.tier != LAST_RESORT_TIER for r in results)

    def serve_batch(self, batch: Batch, shed_level: int) -> int:
        """Serve every ticket of a batch; returns count of healthy ones.

        A collected batch window is the serving-side batching opportunity:
        before the per-query ladder walk, every live query's net goes
        through the primary tier's ``prime_nets`` hook in one stacked
        solve (see :mod:`repro.analysis.batch`), so the subsequent
        :meth:`serve_query` calls hit warm caches.  Priming is best-effort
        and never affects the ticket outcome.
        """
        self._prime_batch(batch, shed_level)
        return sum(1 if self.serve_ticket(ticket, shed_level) else 0
                   for ticket in batch.tickets)

    def _prime_batch(self, batch: Batch, shed_level: int) -> None:
        """Bulk-warm the chain's primary-tier cache for one batch window."""
        chain = self.chain_for(shed_level)
        primer = getattr(chain, "prime_nets", None)
        if primer is None:
            return
        from ..analysis.batch import WirePrimeRequest

        now = self.clock()
        requests = []
        seen = set()
        for ticket in batch.tickets:
            if ticket.done.is_set() or ticket.expired(now):
                continue
            for query in ticket.request.queries:
                try:
                    key: Optional[bytes] = query.cache_key()
                except Exception:  # repro-lint: disable=ERR002 mirrors serve_query's key guard
                    key = None
                if key is not None and (key in seen
                                        or self.cache.contains(key)):
                    continue
                if key is not None:
                    seen.add(key)
                if query.sink_loads_f is not None:
                    loads = np.asarray(query.sink_loads_f,
                                       dtype=np.float64)
                else:
                    loads = np.zeros(query.net.num_sinks)
                requests.append(WirePrimeRequest(
                    query.net, loads, query.drive_resistance_ohm))
        if not requests:
            return
        try:
            primer(requests)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:  # repro-lint: disable=ERR002 prime is a best-effort warm-up; queries recompute on miss
            pass

    # ------------------------------------------------------------------
    def serve_batch_last_resort(self, batch: Batch,
                                reason: str) -> None:
        """Crash-recovery tier: finish a batch on the lumped-RC ladder.

        After a worker thread dies mid-batch, its tickets are re-served
        here on the tier that cannot fail, so the crash costs accuracy,
        never answers.  Already-finished tickets are skipped
        (``Ticket.finish`` is first-writer-wins).
        """
        get_metrics().counter("serve.last_resort_retries").inc()
        for ticket in batch.tickets:
            if ticket.done.is_set():
                continue
            try:
                self.serve_ticket(ticket, SHED_LAST_RESORT)
            except (KeyboardInterrupt, SystemExit):
                raise
            # The recovery tier must not crash the supervisor; a failure
            # here still terminates the ticket, with the crash reason.
            except Exception as exc:  # repro-lint: disable=ERR002
                ticket.finish(error_response(exc))
        for ticket in batch.tickets:
            if not ticket.done.is_set():  # pragma: no cover - belt/braces
                ticket.finish(error_response(EstimationError(
                    f"worker crashed while serving this request: {reason}",
                    stage="serve")))

    # ------------------------------------------------------------------
    def tier_counters(self) -> Dict[str, int]:
        """Merged nets-served-per-tier view across all shed chains."""
        merged: Dict[str, int] = {}
        for chain in self._chains.values():
            for tier, count in chain.counters().items():
                merged[tier] = merged.get(tier, 0) + count
        return merged


__all__ = ["EstimationEngine", "LumpedRCWireModel"]
