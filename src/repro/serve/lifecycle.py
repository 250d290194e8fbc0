"""Service lifecycle: probes, graceful drain, worker-crash recovery.

State machine: ``starting -> ready -> draining -> stopped``.

* **Probes** — ``healthy`` answers "is the process worth keeping" (true
  from start until stop, provided at least one worker is alive);
  ``ready`` answers "route traffic here" (true only in ``ready``, which a
  drain revokes immediately while in-flight work finishes).
* **Drain** — ``begin_drain`` flips admission to reject-new (clients get
  typed :class:`~repro.robustness.errors.OverloadError` backpressure),
  lets workers run the queue dry, then stops them.  Installed as the
  SIGTERM handler by the CLI, so an orchestrator's stop is lossless.
* **Crash recovery** — worker threads are supervised.  A worker that
  dies mid-batch first finishes its batch on the last-resort tier (the
  crash costs accuracy, never answers), then the supervisor spawns a
  replacement, up to a restart budget; exhausting the budget marks the
  service unhealthy.
"""

from __future__ import annotations

import signal
import threading
import time
from typing import Callable, Dict, List

from ..obs import get_metrics, named_lock

STARTING = "starting"
READY = "ready"
DRAINING = "draining"
STOPPED = "stopped"

_CRASHES = get_metrics().counter("serve.worker_crashes")
_RESTARTS = get_metrics().counter("serve.worker_restarts")


class Lifecycle:
    """Thread-safe service state with health/readiness probes."""

    def __init__(self) -> None:
        self._state = STARTING  # repro-guarded-by: _lock
        self._lock = named_lock("Lifecycle._lock")
        self._since = time.monotonic()  # repro-guarded-by: _lock

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, to: str) -> None:
        with self._lock:
            self._state = to
            self._since = time.monotonic()

    def mark_ready(self) -> None:
        self._transition(READY)

    def begin_drain(self) -> None:
        with self._lock:
            if self._state == STOPPED:
                return
            self._state = DRAINING
            self._since = time.monotonic()

    def mark_stopped(self) -> None:
        self._transition(STOPPED)

    # ------------------------------------------------------------------
    def ready(self) -> bool:
        """Readiness: accept new traffic?  False the instant a drain
        starts, so load balancers stop routing before the queue empties."""
        return self.state == READY

    def healthy(self, workers_alive: bool = True) -> bool:
        """Liveness: keep the process?  A draining server is healthy."""
        return self.state in (STARTING, READY, DRAINING) and workers_alive

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"state": self._state,
                    "since_s": time.monotonic() - self._since}


def install_sigterm_drain(callback: Callable[[], None]) -> bool:
    """Route SIGTERM to a drain callback; False when not installable.

    Signal handlers only work in the main thread (and not at all on some
    embedders); failure to install is reported, not raised — the caller
    still has the HTTP/programmatic drain path.
    """
    try:
        signal.signal(signal.SIGTERM, lambda signum, frame: callback())
    except (ValueError, OSError):  # not the main thread / no signals
        return False
    return True


class WorkerSupervisor:
    """Supervised pool of worker threads with bounded respawn.

    ``target`` is the worker loop; it must return normally on shutdown
    and call :meth:`report_crash` (then return) after containing a crash.
    The supervisor replaces crashed workers until ``max_restarts`` is
    exhausted, after which :meth:`all_dead`-style health degradation is
    the lifecycle's problem — answers keep flowing from the remaining
    workers, if any.
    """

    def __init__(self, target: Callable[[int], None], workers: int,
                 max_restarts: int = 8) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.target = target
        self.max_restarts = max_restarts
        self._lock = named_lock("WorkerSupervisor._lock")
        self._threads: List[threading.Thread] = []  # repro-guarded-by: _lock
        self._restarts = 0  # repro-guarded-by: _lock
        self._next_id = 0  # repro-guarded-by: _lock
        self._stopping = False  # repro-guarded-by: _lock
        self._workers = workers

    def start(self) -> None:
        with self._lock:
            for _ in range(self._workers):
                self._spawn_locked()

    def _spawn_locked(self) -> None:
        worker_id = self._next_id
        self._next_id += 1
        thread = threading.Thread(target=self.target, args=(worker_id,),
                                  name=f"serve-worker-{worker_id}",
                                  daemon=True)
        self._threads.append(thread)
        thread.start()

    def report_crash(self, worker_id: int, reason: str) -> bool:
        """A worker contained a crash and is exiting; spawn a successor.

        Returns True when a replacement was started, False when the
        restart budget is exhausted or the pool is stopping.
        """
        _CRASHES.inc()
        with self._lock:
            if self._stopping or self._restarts >= self.max_restarts:
                return False
            self._restarts += 1
            _RESTARTS.inc()
            self._spawn_locked()
            return True

    def alive_count(self) -> int:
        with self._lock:
            return sum(1 for t in self._threads if t.is_alive())

    @property
    def restarts(self) -> int:
        with self._lock:
            return self._restarts

    def stop(self, join_timeout: float = 5.0) -> None:
        with self._lock:
            self._stopping = True
            threads = list(self._threads)
        deadline = time.monotonic() + join_timeout
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"workers": self._workers,
                    "alive": sum(1 for t in self._threads if t.is_alive()),
                    "restarts": self._restarts,
                    "max_restarts": self.max_restarts}


__all__ = ["Lifecycle", "WorkerSupervisor", "install_sigterm_drain",
           "STARTING", "READY", "DRAINING", "STOPPED"]
