"""Runtime lock-order watchdog: the dynamic half of ``lint --concurrency``.

The static tier (:mod:`repro.lint.concurrency`) proves the *source* never
spells two locks in contradictory orders; this module checks the same
invariant against *observed* acquisitions, catching whatever the static
model cannot see (locks passed through data structures, orders that only
materialize under chaos-gate fault injection).

The contract is deliberately tiny:

* :func:`named_lock` is the factory every shared structure in this repo
  uses instead of a bare ``threading.Lock()``.  In normal runs it returns
  exactly ``threading.Lock()`` — zero overhead, nothing recorded.  When
  the :data:`WATCHDOG_ENV` environment variable is truthy *at creation
  time*, it returns a :class:`WatchedLock` that reports every acquisition
  to the process-wide :class:`LockOrderWatchdog`.
* The watchdog keeps a per-thread stack of held watched locks and a
  global edge set ``outer-name -> inner-name``.  Before an acquisition
  would *add* an edge whose reverse is already on record, it raises
  :class:`LockOrderInversion` — before blocking, so the offending ``with``
  fails cleanly instead of deadlocking the test run — and counts it in
  :meth:`LockOrderWatchdog.inversions`, so a caller that catches the
  error (a serve worker degrading the net) cannot hide it from a test.
* Lock *names* match the static analyzer's node ids
  (``"PredictionCache._lock"`` for instance locks, the dotted module path
  for module-level locks), so a test can assert that the union of observed
  edges and the static :class:`~repro.lint.concurrency.LockGraph` stays
  acyclic.

Known (accepted) race: the inversion check and the edge recording are two
steps, so two threads racing to create the *first* contradictory pair may
both get past the check.  The watchdog is a test/debug instrument, not a
deadlock preventer — the cross-check test's acyclicity assertion still
fails the run afterwards.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["WATCHDOG_ENV", "LockOrderInversion", "LockOrderWatchdog",
           "WatchedLock", "get_lock_watchdog", "named_lock",
           "watchdog_enabled"]

#: Environment variable gating :func:`named_lock` instrumentation.
WATCHDOG_ENV = "REPRO_LOCK_WATCHDOG"


class LockOrderInversion(RuntimeError):
    """Observed acquisition contradicts a previously recorded order."""

    def __init__(self, outer: str, inner: str,
                 prior_site: Optional[str]) -> None:
        where = f" (first recorded at {prior_site})" if prior_site else ""
        super().__init__(
            f"lock-order inversion: acquiring {inner!r} while holding "
            f"{outer!r}, but the order {inner!r} -> {outer!r} was "
            f"observed earlier{where}")
        self.outer = outer
        self.inner = inner


class LockOrderWatchdog:
    """Records observed acquisition edges; raises on inversions."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()  # plain: guards the edge table only
        #: (outer, inner) -> "thread-name" of the first observation.
        self._edges: Dict[Tuple[str, str], str] = {}
        self._inversions = 0
        self._held = threading.local()

    # -- per-thread held stack ------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    # -- hooks called by WatchedLock ------------------------------------
    def check_acquire(self, name: str) -> None:
        """Raise before a would-be acquisition that inverts a known edge.

        Called *before* the underlying blocking acquire: raising here
        leaves nothing half-acquired (the ``with`` body never runs) and
        fires even when the contradictory schedule would have deadlocked.
        """
        stack = self._stack()
        if not stack:
            return
        with self._mutex:
            for outer in stack:
                if outer == name:
                    continue  # re-entrant RLock use: not an ordering edge
                site = self._edges.get((name, outer))
                if site is not None:
                    self._inversions += 1
                    raise LockOrderInversion(outer, name, site)

    def note_acquired(self, name: str) -> None:
        """Record edges held-stack -> ``name``; push it.  Never raises."""
        stack = self._stack()
        with self._mutex:
            for outer in stack:
                if outer != name:
                    self._edges.setdefault(
                        (outer, name), threading.current_thread().name)
        stack.append(name)

    def note_released(self, name: str) -> None:
        """Pop the most recent acquisition of ``name``.  Never raises."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    # -- inspection ------------------------------------------------------
    def edges(self) -> Dict[Tuple[str, str], str]:
        """Copy of the observed ``(outer, inner) -> first-thread`` table."""
        with self._mutex:
            return dict(self._edges)

    def inversions(self) -> int:
        """How many :class:`LockOrderInversion` errors were raised."""
        with self._mutex:
            return self._inversions

    def reset(self) -> None:
        """Drop recorded edges and the inversion count (test isolation)."""
        with self._mutex:
            self._edges.clear()
            self._inversions = 0


class WatchedLock:
    """Delegating lock wrapper reporting acquisitions to the watchdog.

    Wraps whatever ``factory`` builds (``threading.Lock`` by default) and
    forwards the full lock protocol.  The three underscore hooks at the
    bottom are what ``threading.Condition`` uses when handed a foreign
    lock object, so a watched lock can back a condition variable.
    """

    def __init__(self, name: str, watchdog: LockOrderWatchdog,
                 factory: Callable[[], object] = threading.Lock) -> None:
        self.name = name
        self._watchdog = watchdog
        self._inner = factory()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if blocking:
            self._watchdog.check_acquire(self.name)
        acquired = self._inner.acquire(blocking, timeout)  # type: ignore[attr-defined]
        if acquired:
            self._watchdog.note_acquired(self.name)
        return bool(acquired)

    def release(self) -> None:
        self._inner.release()  # type: ignore[attr-defined]
        self._watchdog.note_released(self.name)

    def locked(self) -> bool:
        return bool(self._inner.locked())  # type: ignore[attr-defined]

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<WatchedLock {self.name!r} wrapping {self._inner!r}>"

    # -- threading.Condition compatibility ------------------------------
    def _release_save(self) -> object:
        inner = self._inner
        if hasattr(inner, "_release_save"):
            state = inner._release_save()  # type: ignore[attr-defined]
        else:
            inner.release()  # type: ignore[attr-defined]
            state = None
        self._watchdog.note_released(self.name)
        return state

    def _acquire_restore(self, state: object) -> None:
        inner = self._inner
        self._watchdog.check_acquire(self.name)
        if hasattr(inner, "_acquire_restore"):
            inner._acquire_restore(state)  # type: ignore[attr-defined]
        else:
            inner.acquire()  # type: ignore[attr-defined]
        self._watchdog.note_acquired(self.name)

    def _is_owned(self) -> bool:
        inner = self._inner
        if hasattr(inner, "_is_owned"):
            return bool(inner._is_owned())  # type: ignore[attr-defined]
        # A plain Lock is "owned" iff it cannot be re-acquired right now.
        if inner.acquire(False):  # type: ignore[attr-defined]
            inner.release()  # type: ignore[attr-defined]
            return False
        return True


_GLOBAL_WATCHDOG = LockOrderWatchdog()


def get_lock_watchdog() -> LockOrderWatchdog:
    """The process-wide watchdog behind every :class:`WatchedLock`."""
    return _GLOBAL_WATCHDOG


def watchdog_enabled() -> bool:
    """Whether :data:`WATCHDOG_ENV` currently asks for instrumented locks."""
    return os.environ.get(WATCHDOG_ENV, "").strip().lower() \
        not in ("", "0", "false", "no", "off")


def named_lock(name: str,
               factory: Callable[[], object] = threading.Lock) -> object:
    """A lock for a shared structure, instrumented when the env asks.

    ``name`` must be the static analyzer's node id for the lock (class
    attribute ``"ClassName._lock"``, or the dotted module path of a
    module-level lock) — that is what makes observed orders comparable to
    the static lock-order graph.  The gate is evaluated at *creation*
    time: structures built before the environment variable is set keep
    plain locks, which the chaos-gate tests handle by constructing the
    service after setting the variable.
    """
    if watchdog_enabled():
        return WatchedLock(name, _GLOBAL_WATCHDOG, factory)
    return factory()
