"""Admission control: bounded queue, deadlines, load shedding.

Three robustness mechanisms live here, all explicit rather than emergent:

* **Backpressure** — the request queue is bounded; a full queue rejects
  with a typed :class:`~repro.robustness.errors.OverloadError` carrying a
  ``retry_after`` hint sized from the current queue drain rate.  Clients
  see an honest "come back later", never an unbounded latency tail.
* **Deadline propagation** — every admitted :class:`Ticket` carries an
  absolute monotonic deadline.  Work past the budget is cancelled at the
  next cooperative checkpoint (dequeue, per-net boundary) and answered
  with a typed :class:`~repro.robustness.errors.DeadlineError`; the
  request still *terminates*, it never silently disappears.
* **Load shedding** — queue depth maps to a shed level that routes work
  to cheaper :class:`~repro.robustness.fallback.FallbackChain` tiers
  (full ladder -> analytic-only -> last-resort), and a circuit breaker
  (:class:`_CircuitBreaker`) forces shedding after consecutive
  full-ladder failures independent of queue depth.

The clock is injectable so deadline and shedding behavior is testable
without real waiting.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from ..obs import get_metrics, named_lock
from ..robustness.errors import DeadlineError, OverloadError
from .protocol import (QueryResult, ServeRequest, ServeResponse,
                       error_document, error_response)

_ADMITTED = get_metrics().counter("serve.admitted")
_REJECTED = get_metrics().counter("serve.rejected_overload")
_EXPIRED = get_metrics().counter("serve.deadline_expired")
_SHED = get_metrics().counter("serve.shed_requests")
_DEPTH = get_metrics().gauge("serve.queue_depth")
_QUEUE_WAIT = get_metrics().histogram("serve.queue_wait_s")

#: Shed levels, from healthy to drowning.  The engine maps each level to a
#: tier ladder; see :class:`~repro.serve.engine.EstimationEngine`.
SHED_FULL = 0        # full ladder (learned/AWE first)
SHED_ANALYTIC = 1    # cheap analytic tiers only (Elmore -> lumped-RC)
SHED_LAST_RESORT = 2  # lumped-RC only: bounded answer at any load


class _CircuitBreaker:
    """Consecutive-failure breaker with a cooldown measured in dequeues.

    ``threshold`` consecutive failures open the breaker; :meth:`allow`
    then refuses ``cooldown - 1`` calls and allows the next as a
    half-open trial.  Opening keeps the failure streak, so a failed trial
    re-opens the breaker at once; a success closes it.
    """

    def __init__(self, threshold: int, cooldown: int) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        # Mutated by allow()/record_*; the breaker has no lock of its own —
        # the owning controller serializes every call (external guard, see
        # the dotted repro-guarded-by form in docs/LINTING.md).
        self.consecutive_failures = 0  # repro-guarded-by: AdmissionController._lock
        self.remaining_cooldown = 0    # repro-guarded-by: AdmissionController._lock

    @property
    def open(self) -> bool:
        return self.remaining_cooldown > 0

    def allow(self) -> bool:
        """Whether the current dequeue may use the full ladder."""
        if self.remaining_cooldown > 0:
            self.remaining_cooldown -= 1
            return self.remaining_cooldown == 0  # half-open trial on expiry
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self) -> bool:
        """Count a failure; True when this one opens the breaker."""
        self.consecutive_failures += 1
        if self.threshold > 0 and self.consecutive_failures >= self.threshold:
            self.remaining_cooldown = self.cooldown
            return True
        return False


@dataclass
class Ticket:
    """One admitted request travelling through the service.

    Created by :meth:`AdmissionController.submit`, completed exactly once
    by a worker (or by the expiry sweep) via :meth:`finish`.
    """

    request: ServeRequest
    enqueued_at: float
    deadline_at: Optional[float]  # absolute monotonic seconds, or None
    done: threading.Event = field(default_factory=threading.Event)
    response: Optional[ServeResponse] = None
    dequeued_at: Optional[float] = None

    def remaining(self, now: float) -> Optional[float]:
        """Seconds of budget left (None = no deadline)."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - now

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now >= self.deadline_at

    def finish(self, response: ServeResponse) -> bool:
        """Attach the terminal response; False if already finished.

        First writer wins — a late worker result after a deadline response
        is dropped, so the caller observes exactly one terminal outcome
        per request.
        """
        if self.done.is_set():
            return False
        response.request_id = self.request.request_id
        self.response = response
        self.done.set()
        return True


@dataclass(frozen=True)
class AdmissionConfig:
    """Tunables of the admission layer."""

    max_queue: int = 256          # tickets; beyond this, reject-with-retry
    shed_depth: int = 64          # queue depth entering SHED_ANALYTIC
    shed_hard_depth: int = 192    # queue depth entering SHED_LAST_RESORT
    default_deadline_s: Optional[float] = 2.0   # when the request names none
    max_deadline_s: float = 30.0  # client budgets are clamped to this
    breaker_threshold: int = 5    # full-ladder failures that force shedding
    breaker_cooldown: int = 50    # dequeues an open breaker sheds for

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if not 0 < self.shed_depth <= self.shed_hard_depth <= self.max_queue:
            raise ValueError("need 0 < shed_depth <= shed_hard_depth "
                             "<= max_queue")


class AdmissionController:
    """Bounded FIFO of :class:`Ticket` with shedding and expiry sweeps."""

    def __init__(self, config: AdmissionConfig = AdmissionConfig(),
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config
        self.clock = clock
        self._queue: Deque[Ticket] = deque()  # repro-guarded-by: _lock
        self._lock = named_lock("AdmissionController._lock")
        self._not_empty = threading.Condition(self._lock)
        self._accepting = True  # repro-guarded-by: _lock
        # Consecutive full-ladder serve failures open this breaker, which
        # forces SHED_ANALYTIC for `breaker_cooldown` dequeues even when
        # the queue itself looks healthy (e.g. a poisoned learned model
        # making every request slow rather than the queue deep).
        self._breaker = _CircuitBreaker(
            config.breaker_threshold,
            config.breaker_cooldown)  # repro-guarded-by: _lock
        #: Trailing per-request service-time estimate feeding retry_after.
        self._service_estimate_s = 0.005  # repro-guarded-by: _lock

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest) -> Ticket:
        """Admit a request or raise a typed rejection.

        Raises :class:`OverloadError` when the queue is full or the
        service stopped accepting (drain), so the front can answer with
        an honest backpressure signal.
        """
        now = self.clock()
        deadline: Optional[float] = None
        budget = request.deadline_ms
        if budget is not None:
            deadline = now + min(budget / 1e3, self.config.max_deadline_s)
        elif self.config.default_deadline_s is not None:
            deadline = now + self.config.default_deadline_s
        ticket = Ticket(request, enqueued_at=now, deadline_at=deadline)
        with self._lock:
            if not self._accepting:
                _REJECTED.inc()
                raise OverloadError(
                    "service is draining and admits no new requests",
                    retry_after_s=1.0)
            if len(self._queue) >= self.config.max_queue:
                _REJECTED.inc()
                retry = max(0.005, len(self._queue)
                            * self._service_estimate_s / 2.0)
                raise OverloadError(
                    f"request queue is full ({len(self._queue)} deep)",
                    retry_after_s=min(retry, 5.0))
            self._queue.append(ticket)
            _ADMITTED.inc()
            _DEPTH.set(len(self._queue))
            self._not_empty.notify()
        return ticket

    # ------------------------------------------------------------------
    # Dequeue (batcher side)
    # ------------------------------------------------------------------
    def pop(self, timeout: Optional[float] = None) -> Optional[Ticket]:
        """Next live ticket, or None on timeout / drain-empty.

        Tickets whose deadline already passed while queued are answered
        with a typed :class:`DeadlineError` here (``stage="admission"``)
        and skipped — they terminate without wasting model time.
        """
        end = None if timeout is None else self.clock() + timeout
        with self._lock:
            while True:
                while self._queue:
                    ticket = self._queue.popleft()
                    _DEPTH.set(len(self._queue))
                    # The injected clock is non-blocking by contract
                    # (time.monotonic or a test fake), so calling it
                    # while holding the lock is deliberate.
                    now = self.clock()  # repro-lint: disable=LOCK002
                    if ticket.expired(now):
                        self._expire(ticket, now)
                        continue
                    ticket.dequeued_at = now
                    _QUEUE_WAIT.observe(max(now - ticket.enqueued_at, 0.0))
                    return ticket
                if not self._accepting:
                    return None
                remaining = (None if end is None else
                             end - self.clock())  # repro-lint: disable=LOCK002
                if remaining is not None and remaining <= 0.0:
                    return None
                self._not_empty.wait(remaining)

    def _expire(self, ticket: Ticket, now: float) -> None:
        _EXPIRED.inc()
        budget = ticket.request.deadline_ms
        exc = DeadlineError(
            f"deadline expired after "
            f"{(now - ticket.enqueued_at) * 1e3:.1f} ms in queue",
            budget_s=None if budget is None else budget / 1e3,
            elapsed_s=now - ticket.enqueued_at, stage="admission")
        ticket.finish(error_response(exc))

    def expire_queued(self) -> int:
        """Sweep the queue, answering every expired ticket; returns count.

        Called periodically by the lifecycle thread so queued requests
        terminate on time even when no worker is popping (e.g. all
        workers wedged on a slow tier).
        """
        now = self.clock()
        expired: List[Ticket] = []
        with self._lock:
            live: Deque[Ticket] = deque()
            for ticket in self._queue:
                (expired if ticket.expired(now) else live).append(ticket)
            self._queue = live
            _DEPTH.set(len(self._queue))
        for ticket in expired:
            self._expire(ticket, now)
        return len(expired)

    # ------------------------------------------------------------------
    # Shedding
    # ------------------------------------------------------------------
    def shed_level(self) -> int:
        """Current shed level from queue depth and the circuit breaker."""
        with self._lock:
            depth = len(self._queue)
            breaker_open = not self._breaker.allow()
        if depth >= self.config.shed_hard_depth:
            level = SHED_LAST_RESORT
        elif depth >= self.config.shed_depth or breaker_open:
            level = SHED_ANALYTIC
        else:
            level = SHED_FULL
        if level != SHED_FULL:
            _SHED.inc()
        return level

    def record_serve(self, ok: bool, seconds: float) -> None:
        """Feedback from the engine: full-ladder health + drain rate."""
        with self._lock:
            if ok:
                self._breaker.record_success()
            else:
                self._breaker.record_failure()
            # Exponential moving average; only used to size retry_after.
            self._service_estimate_s += 0.2 * (seconds
                                               - self._service_estimate_s)

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    @property
    def accepting(self) -> bool:
        with self._lock:
            return self._accepting

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def stop_accepting(self) -> None:
        """Drain mode: reject new submits, let pops run the queue dry."""
        with self._lock:
            self._accepting = False
            self._not_empty.notify_all()

    def resume_accepting(self) -> None:
        with self._lock:
            self._accepting = True

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe health view (served by the ``/healthz`` endpoint)."""
        with self._lock:
            return {"depth": len(self._queue),
                    "max_queue": self.config.max_queue,
                    "accepting": self._accepting,
                    "breaker_open": self._breaker.open,
                    "service_estimate_ms": self._service_estimate_s * 1e3}


__all__ = ["AdmissionConfig", "AdmissionController", "Ticket",
           "SHED_FULL", "SHED_ANALYTIC", "SHED_LAST_RESORT",
           "QueryResult", "error_document"]
