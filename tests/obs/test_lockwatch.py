"""Runtime lock-order watchdog: env gate, inversion detection, Condition.

These are the dynamic twin of ``tests/lint/test_concurrency.py`` — the
static tier proves the source orders locks consistently, the watchdog
proves the *schedule* does.  The cross-check test at the bottom asserts
the two views compose: static edges plus observed edges stay acyclic.
"""

import threading

import pytest

from repro.obs import (WATCHDOG_ENV, LockOrderInversion, LockOrderWatchdog,
                       WatchedLock, named_lock, watchdog_enabled)


@pytest.fixture
def watchdog():
    return LockOrderWatchdog()


def _watched(name, watchdog, factory=threading.Lock):
    return WatchedLock(name, watchdog, factory)


# ----------------------------------------------------------------------
# The env gate
# ----------------------------------------------------------------------
def test_named_lock_is_plain_lock_by_default(monkeypatch):
    monkeypatch.delenv(WATCHDOG_ENV, raising=False)
    assert not watchdog_enabled()
    lock = named_lock("Thing._lock")
    assert not isinstance(lock, WatchedLock)
    with lock:  # full lock protocol, zero instrumentation
        assert lock.locked()


@pytest.mark.parametrize("value", ["1", "true", "yes", "on", "anything"])
def test_named_lock_is_watched_when_env_truthy(monkeypatch, value):
    monkeypatch.setenv(WATCHDOG_ENV, value)
    assert watchdog_enabled()
    lock = named_lock("Thing._lock")
    assert isinstance(lock, WatchedLock)
    assert lock.name == "Thing._lock"


@pytest.mark.parametrize("value", ["", "0", "false", "no", "off", " OFF "])
def test_falsey_env_values_keep_plain_locks(monkeypatch, value):
    monkeypatch.setenv(WATCHDOG_ENV, value)
    assert not watchdog_enabled()


# ----------------------------------------------------------------------
# Ordering
# ----------------------------------------------------------------------
def test_consistent_order_records_edge_and_never_raises(watchdog):
    a = _watched("A", watchdog)
    b = _watched("B", watchdog)
    for _ in range(3):
        with a:
            with b:
                pass
    assert set(watchdog.edges()) == {("A", "B")}


def test_inversion_raises_before_blocking(watchdog):
    a = _watched("A", watchdog)
    b = _watched("B", watchdog)
    with a:
        with b:
            pass
    with b:
        with pytest.raises(LockOrderInversion) as exc:
            with a:
                pass
        # Raised *before* acquiring: nothing left half-held.
    assert not a.locked()
    assert exc.value.outer == "B"
    assert exc.value.inner == "A"
    assert "A' -> 'B'" in str(exc.value)


def test_inversion_is_counted_until_reset(watchdog):
    a = _watched("A", watchdog)
    b = _watched("B", watchdog)
    with a:
        with b:
            pass
    assert watchdog.inversions() == 0
    with b:
        with pytest.raises(LockOrderInversion):
            with a:
                pass
    assert watchdog.inversions() == 1
    watchdog.reset()
    assert watchdog.inversions() == 0


def test_inversion_detected_across_threads(watchdog):
    """Thread 1 records A->B; thread 2's B->A attempt must raise even
    though the schedule never actually deadlocks (sequential phases)."""
    a = _watched("A", watchdog)
    b = _watched("B", watchdog)

    def record_forward():
        with a:
            with b:
                pass

    thread = threading.Thread(target=record_forward)
    thread.start()
    thread.join()

    caught = []

    def attempt_backward():
        try:
            with b:
                with a:
                    pass
        except LockOrderInversion as exc:
            caught.append(exc)

    thread = threading.Thread(target=attempt_backward)
    thread.start()
    thread.join()
    assert len(caught) == 1


def test_reentrant_rlock_is_not_an_edge(watchdog):
    lock = _watched("R", watchdog, factory=threading.RLock)
    with lock:
        with lock:
            pass
    assert watchdog.edges() == {}


def test_nonblocking_acquire_skips_the_check(watchdog):
    """try-lock idioms must not raise: a failed try-acquire cannot
    deadlock, and a successful one is still recorded as an edge."""
    a = _watched("A", watchdog)
    b = _watched("B", watchdog)
    with a:
        with b:
            pass
    with b:
        assert a.acquire(blocking=False)
        a.release()
    assert ("B", "A") in watchdog.edges()


def test_release_pops_matching_entry_and_reset_clears(watchdog):
    a = _watched("A", watchdog)
    b = _watched("B", watchdog)
    a.acquire()
    b.acquire()
    a.release()  # out-of-order release: pops A, keeps B held
    with _watched("C", watchdog):
        pass
    b.release()
    assert ("B", "C") in watchdog.edges()
    assert ("A", "C") not in watchdog.edges()
    watchdog.reset()
    assert watchdog.edges() == {}


# ----------------------------------------------------------------------
# Condition compatibility
# ----------------------------------------------------------------------
def test_condition_over_watched_lock_round_trips(watchdog):
    lock = _watched("Queue._lock", watchdog)
    cond = threading.Condition(lock)  # type: ignore[arg-type]
    items = []

    def producer():
        with cond:
            items.append(1)
            cond.notify()

    with cond:
        thread = threading.Thread(target=producer)
        thread.start()
        # wait() exercises _release_save/_acquire_restore/_is_owned.
        assert cond.wait_for(lambda: items, timeout=5.0)
    thread.join()
    assert items == [1]
    assert not lock.locked()


def test_condition_wait_keeps_held_stack_consistent(watchdog):
    outer = _watched("Outer", watchdog)
    lock = _watched("Queue._lock", watchdog)
    cond = threading.Condition(lock)  # type: ignore[arg-type]

    def producer():
        with cond:
            cond.notify_all()

    with cond:
        thread = threading.Thread(target=producer)
        thread.start()
        cond.wait(timeout=5.0)
    thread.join()
    # After the wait dance, this thread holds nothing: taking Outer must
    # not record a Queue._lock -> Outer edge.
    with outer:
        pass
    assert ("Queue._lock", "Outer") not in watchdog.edges()
