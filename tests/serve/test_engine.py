"""EstimationEngine: total termination, shed ladders, the prediction cache."""

import threading

import numpy as np
import pytest

from repro.analysis.awe import get_awe_cache
from repro.obs import get_metrics
from repro.robustness.fallback import LAST_RESORT_TIER
from repro.serve.admission import (SHED_ANALYTIC, SHED_FULL,
                                   SHED_LAST_RESORT, Ticket)
from repro.serve.batching import Batch
from repro.serve.engine import EstimationEngine, PredictionCache
from repro.serve.protocol import QueryResult

from .conftest import FakeClock, make_request


def ticket_for(request, clock, deadline_s=None):
    deadline = None if deadline_s is None else clock() + deadline_s
    return Ticket(request, enqueued_at=clock(), deadline_at=deadline)


class _NaNTier:
    """A 'model' whose weights went bad: every answer is non-finite."""

    name = "nan-tier"

    def wire_timing(self, net, input_slew, sink_loads, drive_resistance,
                    context=None):
        n = net.num_sinks
        return np.full(n, float("nan")), np.full(n, float("nan"))


class TestServeQuery:
    def test_full_ladder_answers_every_query(self, fake_clock):
        engine = EstimationEngine(clock=fake_clock)
        request = make_request(3)
        ticket = ticket_for(request, fake_clock)
        for query in request.queries:
            result = engine.serve_query(query, ticket, SHED_FULL)
            assert result.ok and not result.degraded
            assert len(result.delays_s) == query.net.num_sinks
            assert all(np.isfinite(result.delays_s))

    def test_analytic_shed_marks_degraded(self, fake_clock):
        engine = EstimationEngine(clock=fake_clock)
        request = make_request(1)
        ticket = ticket_for(request, fake_clock)
        result = engine.serve_query(request.queries[0], ticket,
                                    SHED_ANALYTIC)
        assert result.ok and result.degraded

    def test_last_resort_shed_serves_on_terminal_tier(self, fake_clock):
        engine = EstimationEngine(clock=fake_clock)
        request = make_request(1)
        ticket = ticket_for(request, fake_clock)
        result = engine.serve_query(request.queries[0], ticket,
                                    SHED_LAST_RESORT)
        assert result.ok and result.tier == LAST_RESORT_TIER

    def test_expired_ticket_gets_typed_deadline_error(self, fake_clock):
        engine = EstimationEngine(clock=fake_clock)
        request = make_request(1, deadline_ms=10.0)
        ticket = ticket_for(request, fake_clock, deadline_s=0.01)
        fake_clock.advance(0.05)
        result = engine.serve_query(request.queries[0], ticket, SHED_FULL)
        assert not result.ok
        assert result.error["type"] == "DeadlineError"
        assert result.error["provenance"]["stage"] == "serve"

    def test_nan_tier_degrades_with_provenance(self, fake_clock):
        engine = EstimationEngine(clock=fake_clock,
                                  extra_tiers=[_NaNTier()])
        request = make_request(1)
        ticket = ticket_for(request, fake_clock)
        result = engine.serve_query(request.queries[0], ticket, SHED_FULL)
        assert result.ok and result.degraded
        assert any(f["tier"] == "nan-tier" for f in result.failures)


class TestMidTicketDeadline:
    def test_budget_exhaustion_cancels_remaining_nets(self):
        clock = FakeClock()

        class _SlowClockTier:
            """Each net 'costs' 30 ms of fake time."""

            name = "slow"

            def wire_timing(self, net, input_slew, sink_loads,
                            drive_resistance, context=None):
                clock.advance(0.03)
                n = net.num_sinks
                return np.full(n, 1e-12), np.full(n, 1e-12)

        engine = EstimationEngine(clock=clock,
                                  extra_tiers=[_SlowClockTier()])
        request = make_request(4, deadline_ms=50.0)
        ticket = ticket_for(request, clock, deadline_s=0.05)
        engine.serve_ticket(ticket, SHED_FULL)
        results = ticket.response.results
        assert len(results) == 4            # every query terminated...
        served = [r for r in results if r.ok]
        cancelled = [r for r in results if not r.ok]
        assert served and cancelled         # ...but not all were computed
        assert all(r.error["type"] == "DeadlineError" for r in cancelled)


class TestPredictionCache:
    def test_identical_query_hits_with_original_tier(self, fake_clock):
        engine = EstimationEngine(clock=fake_clock)
        request = make_request(1)
        ticket = ticket_for(request, fake_clock)
        cold = engine.serve_query(request.queries[0], ticket, SHED_FULL)
        warm = engine.serve_query(request.queries[0], ticket, SHED_FULL)
        assert not cold.cached and warm.cached
        assert warm.tier == cold.tier
        assert warm.delays_s == cold.delays_s

    def test_hit_replays_even_under_shedding(self, fake_clock):
        engine = EstimationEngine(clock=fake_clock)
        request = make_request(1)
        ticket = ticket_for(request, fake_clock)
        cold = engine.serve_query(request.queries[0], ticket, SHED_FULL)
        shed = engine.serve_query(request.queries[0], ticket,
                                  SHED_LAST_RESORT)
        assert shed.cached and shed.tier == cold.tier
        assert not shed.degraded

    def test_degraded_results_never_stored(self, fake_clock):
        engine = EstimationEngine(clock=fake_clock)
        request = make_request(1)
        ticket = ticket_for(request, fake_clock)
        engine.serve_query(request.queries[0], ticket, SHED_ANALYTIC)
        assert len(engine.cache) == 0

    def test_lru_eviction_respects_maxsize(self):
        cache = PredictionCache(maxsize=2)
        results = [QueryResult(ok=True, net=f"n{i}") for i in range(3)]
        for i, result in enumerate(results):
            cache.put(bytes([i]), result)
        assert len(cache) == 2
        assert cache.get(bytes([0])) is None      # evicted
        assert cache.get(bytes([2])) is results[2]

    def test_get_refreshes_recency(self):
        cache = PredictionCache(maxsize=2)
        cache.put(b"a", QueryResult(ok=True, net="a"))
        cache.put(b"b", QueryResult(ok=True, net="b"))
        cache.get(b"a")
        cache.put(b"c", QueryResult(ok=True, net="c"))
        assert cache.get(b"a") is not None
        assert cache.get(b"b") is None

    def test_zero_size_disables_storage(self):
        cache = PredictionCache(maxsize=0)
        cache.put(b"k", QueryResult(ok=True, net="n"))
        assert len(cache) == 0 and cache.get(b"k") is None
        with pytest.raises(ValueError):
            PredictionCache(maxsize=-1)

    def test_concurrent_access_is_consistent(self):
        cache = PredictionCache(maxsize=64)
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    key = bytes([base, i % 32])
                    cache.put(key, QueryResult(ok=True, net=f"{base}.{i}"))
                    cache.get(key)
                    cache.get(bytes([(base + 1) % 4, i % 32]))
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(j,))
                   for j in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64


class TestCrashRecovery:
    def test_last_resort_retry_finishes_unanswered_tickets(self, fake_clock):
        engine = EstimationEngine(clock=fake_clock)
        answered = ticket_for(make_request(1), fake_clock)
        engine.serve_ticket(answered, SHED_FULL)
        # Distinct seed: otherwise the prediction cache (correctly)
        # replays the full-ladder answer instead of the recovery tier.
        abandoned = ticket_for(make_request(2, seed=99), fake_clock)
        batch = Batch([answered, abandoned], formed_at=fake_clock.now)
        engine.serve_batch_last_resort(batch, reason="worker died")
        assert abandoned.done.is_set()
        assert all(r.tier == LAST_RESORT_TIER
                   for r in abandoned.response.results)
        # The already-answered ticket kept its original (full-ladder)
        # response: finish() is first-writer-wins.
        assert all(r.tier != LAST_RESORT_TIER
                   for r in answered.response.results)

    def test_serve_batch_reports_healthy_count(self, fake_clock):
        engine = EstimationEngine(clock=fake_clock)
        tickets = [ticket_for(make_request(1), fake_clock)
                   for _ in range(3)]
        batch = Batch(tickets, formed_at=fake_clock.now)
        assert engine.serve_batch(batch, SHED_FULL) == 3
        assert all(t.done.is_set() for t in tickets)


class TestBatchPriming:
    def test_batch_window_primes_the_lead_tier_without_changing_answers(
            self, fake_clock):
        """With no learned tier AWE leads the full ladder: a batch window
        primes each query's step response, each query hits it, and every
        answer equals the query served alone from a cold cache, bitwise."""
        requests = [make_request(2, seed=60 + i) for i in range(3)]
        primed = get_metrics().counter("batch.awe_primed")
        hits = get_metrics().counter("awe.cache_hits")
        get_awe_cache().clear()
        before = primed.value, hits.value
        batch = Batch([ticket_for(r, fake_clock) for r in requests])
        assert EstimationEngine(clock=fake_clock).serve_batch(
            batch, SHED_FULL) == 3
        assert primed.value - before[0] == 6
        assert hits.value - before[1] >= 6
        for ticket in batch.tickets:
            for query, result in zip(ticket.request.queries,
                                     ticket.response.results):
                get_awe_cache().clear()
                alone = EstimationEngine(clock=fake_clock).serve_query(
                    query, ticket, SHED_FULL)
                assert result.tier == alone.tier == "AWEWireModel"
                assert (result.delays_s, result.slews_s) == \
                    (alone.delays_s, alone.slews_s)
