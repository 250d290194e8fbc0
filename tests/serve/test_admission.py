"""Admission control: backpressure, deadlines, shedding, the breaker."""

import threading

import pytest

from repro.robustness.errors import DeadlineError, OverloadError
from repro.serve.admission import (SHED_ANALYTIC, SHED_FULL,
                                   SHED_LAST_RESORT, AdmissionConfig,
                                   AdmissionController, Ticket,
                                   _CircuitBreaker)
from repro.serve.protocol import ServeResponse

from .conftest import make_request


def controller(clock, **overrides):
    defaults = dict(max_queue=8, shed_depth=3, shed_hard_depth=6,
                    default_deadline_s=2.0, breaker_threshold=2,
                    breaker_cooldown=4)
    defaults.update(overrides)
    return AdmissionController(AdmissionConfig(**defaults), clock=clock)


class TestIntake:
    def test_submit_then_pop_fifo(self, fake_clock):
        admission = controller(fake_clock)
        first = admission.submit(make_request(1, request_id="a"))
        admission.submit(make_request(1, request_id="b"))
        assert admission.depth == 2
        popped = admission.pop(timeout=0.0)
        assert popped is first
        assert popped.dequeued_at == fake_clock.now

    def test_full_queue_rejects_with_retry_hint(self, fake_clock):
        admission = controller(fake_clock, max_queue=2, shed_depth=1,
                               shed_hard_depth=2)
        admission.submit(make_request(1))
        admission.submit(make_request(1))
        with pytest.raises(OverloadError) as excinfo:
            admission.submit(make_request(1))
        assert excinfo.value.retry_after_s > 0.0

    def test_drain_rejects_new_submits(self, fake_clock):
        admission = controller(fake_clock)
        admission.stop_accepting()
        with pytest.raises(OverloadError, match="draining"):
            admission.submit(make_request(1))
        admission.resume_accepting()
        admission.submit(make_request(1))  # accepted again

    def test_pop_returns_none_when_drained_dry(self, fake_clock):
        admission = controller(fake_clock)
        admission.stop_accepting()
        assert admission.pop(timeout=0.0) is None


class TestDeadlines:
    def test_request_budget_becomes_absolute_deadline(self, fake_clock):
        admission = controller(fake_clock)
        ticket = admission.submit(make_request(1, deadline_ms=500.0))
        assert ticket.deadline_at == pytest.approx(fake_clock.now + 0.5)

    def test_default_deadline_applies_when_request_names_none(
            self, fake_clock):
        admission = controller(fake_clock, default_deadline_s=1.5)
        ticket = admission.submit(make_request(1))
        assert ticket.deadline_at == pytest.approx(fake_clock.now + 1.5)

    def test_budget_clamped_to_max_deadline(self, fake_clock):
        admission = controller(fake_clock, max_deadline_s=3.0)
        ticket = admission.submit(make_request(1, deadline_ms=60_000.0))
        assert ticket.deadline_at == pytest.approx(fake_clock.now + 3.0)

    def test_expired_ticket_skipped_at_pop_with_typed_error(
            self, fake_clock):
        admission = controller(fake_clock)
        stale = admission.submit(make_request(1, deadline_ms=10.0))
        fake_clock.advance(0.05)
        live = admission.submit(make_request(1, deadline_ms=1000.0))
        assert admission.pop(timeout=0.0) is live
        assert stale.done.is_set()
        assert stale.response.error["type"] == "DeadlineError"
        assert stale.response.error["provenance"]["stage"] == "admission"

    def test_expire_queued_sweep_terminates_without_a_worker(
            self, fake_clock):
        admission = controller(fake_clock)
        tickets = [admission.submit(make_request(1, deadline_ms=10.0))
                   for _ in range(3)]
        keeper = admission.submit(make_request(1, deadline_ms=5000.0))
        fake_clock.advance(0.05)
        assert admission.expire_queued() == 3
        assert all(t.done.is_set() for t in tickets)
        assert not keeper.done.is_set()
        assert admission.depth == 1


class TestTicket:
    def test_finish_is_first_writer_wins(self, fake_clock):
        admission = controller(fake_clock)
        ticket = admission.submit(make_request(1, request_id="fww"))
        winner = ServeResponse(ok=True)
        assert ticket.finish(winner) is True
        assert ticket.finish(ServeResponse(ok=False)) is False
        assert ticket.response is winner
        assert ticket.response.request_id == "fww"

    def test_remaining_budget_tracks_clock(self, fake_clock):
        ticket = Ticket(make_request(1), enqueued_at=fake_clock.now,
                        deadline_at=fake_clock.now + 1.0)
        assert ticket.remaining(fake_clock.now) == pytest.approx(1.0)
        assert not ticket.expired(fake_clock.now)
        assert ticket.expired(fake_clock.now + 1.0)
        no_deadline = Ticket(make_request(1), enqueued_at=0.0,
                             deadline_at=None)
        assert no_deadline.remaining(1e9) is None


class TestShedding:
    def test_levels_follow_queue_depth(self, fake_clock):
        admission = controller(fake_clock, max_queue=8, shed_depth=2,
                               shed_hard_depth=4)
        assert admission.shed_level() == SHED_FULL
        for _ in range(2):
            admission.submit(make_request(1))
        assert admission.shed_level() == SHED_ANALYTIC
        for _ in range(2):
            admission.submit(make_request(1))
        assert admission.shed_level() == SHED_LAST_RESORT

    def test_open_breaker_forces_analytic_on_empty_queue(self, fake_clock):
        admission = controller(fake_clock, breaker_threshold=2,
                               breaker_cooldown=3)
        assert admission.shed_level() == SHED_FULL
        admission.record_serve(False, 0.01)
        admission.record_serve(False, 0.01)
        assert admission.shed_level() == SHED_ANALYTIC
        # The cooldown is measured in shed_level consultations (each one
        # burns an allow() call); after it elapses the ladder recovers.
        levels = [admission.shed_level() for _ in range(3)]
        assert levels[-1] == SHED_FULL

    def test_successes_keep_breaker_closed(self, fake_clock):
        admission = controller(fake_clock, breaker_threshold=2)
        for _ in range(10):
            admission.record_serve(True, 0.01)
            admission.record_serve(False, 0.01)
        assert admission.shed_level() == SHED_FULL

    def test_service_estimate_feeds_retry_after(self, fake_clock):
        admission = controller(fake_clock, max_queue=2, shed_depth=1,
                               shed_hard_depth=2)
        for _ in range(20):
            admission.record_serve(True, 0.5)
        admission.submit(make_request(1))
        admission.submit(make_request(1))
        with pytest.raises(OverloadError) as excinfo:
            admission.submit(make_request(1))
        assert excinfo.value.retry_after_s > 0.1


class TestBreakerCooldownSemantics:
    """Unit coverage of the breaker arithmetic that shedding leans on."""

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = _CircuitBreaker(threshold=3, cooldown=2)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True     # this one trips it
        assert breaker.open

    def test_cooldown_counts_down_to_a_half_open_trial(self):
        breaker = _CircuitBreaker(threshold=1, cooldown=3)
        breaker.record_failure()
        assert [breaker.allow() for _ in range(3)] == [False, False, True]
        breaker.record_success()                    # trial succeeded
        assert not breaker.open
        assert breaker.allow()

    def test_failed_half_open_trial_reopens(self):
        breaker = _CircuitBreaker(threshold=3, cooldown=2)
        for _ in range(3):
            breaker.record_failure()
        assert [breaker.allow() for _ in range(2)] == [False, True]
        assert breaker.record_failure() is True     # the trial failed
        assert breaker.open and not breaker.allow()

    def test_interleaved_success_resets_the_streak(self):
        breaker = _CircuitBreaker(threshold=2, cooldown=5)
        for _ in range(10):
            breaker.record_failure()
            breaker.record_success()
        assert not breaker.open and breaker.allow()


class TestSnapshotAndConfig:
    def test_snapshot_is_json_safe_health_view(self, fake_clock):
        admission = controller(fake_clock)
        admission.submit(make_request(1))
        snap = admission.snapshot()
        assert snap["depth"] == 1
        assert snap["accepting"] is True
        assert snap["breaker_open"] is False
        assert snap["max_queue"] == 8

    @pytest.mark.parametrize("bad", [
        dict(max_queue=0),
        dict(shed_depth=0),
        dict(shed_depth=9, shed_hard_depth=9),
        dict(shed_hard_depth=2, shed_depth=5),
    ])
    def test_invalid_config_rejected(self, bad):
        kwargs = dict(max_queue=8, shed_depth=3, shed_hard_depth=6)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            AdmissionConfig(**kwargs)


class TestConcurrency:
    def test_parallel_submit_pop_conserves_tickets(self):
        admission = AdmissionController(AdmissionConfig(
            max_queue=512, shed_depth=256, shed_hard_depth=512,
            default_deadline_s=None))
        total = 200
        popped = []
        lock = threading.Lock()

        def producer(base):
            for i in range(total // 4):
                admission.submit(make_request(1, request_id=f"{base}-{i}"))

        def consumer():
            while True:
                ticket = admission.pop(timeout=0.2)
                if ticket is None:
                    return
                with lock:
                    popped.append(ticket)

        producers = [threading.Thread(target=producer, args=(j,))
                     for j in range(4)]
        consumers = [threading.Thread(target=consumer) for _ in range(3)]
        for thread in producers + consumers:
            thread.start()
        for thread in producers:
            thread.join()
        admission.stop_accepting()
        for thread in consumers:
            thread.join()
        assert len(popped) == total
        assert len({t.request.request_id for t in popped}) == total
