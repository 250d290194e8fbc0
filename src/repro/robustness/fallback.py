"""Degrading wire-timing model: learned -> AWE -> D2M -> Elmore -> lumped RC.

Production timers never abort a full-chip run because one net is
pathological; they serve a cruder estimate and say so.  :class:`FallbackChain`
brings that discipline here: it walks an ordered ladder of
:class:`~repro.design.sta.WireTimingModel` tiers per net, validates each
tier's output (shape, finiteness, non-negative delays), enforces a
cooperative per-net time budget, trips a consecutive-failure circuit breaker
on flaky tiers, and records which tier served every net so degradation is
observable rather than silent.

The chain itself is a :class:`WireTimingModel`, so it plugs into
:class:`~repro.design.sta.STAEngine` unchanged.  Its terminal tier — a
single-time-constant lumped-RC estimate over sanitized inputs — cannot fail,
so ``wire_timing`` never raises on any net the caller can construct.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..design.sta import (AWEWireModel, BindRequest, D2MWireModel,
                          ElmoreWireModel, WireBinding, WireTimingModel)
from ..features.path_features import NetContext
from ..obs import get_metrics, named_lock
from ..rcnet.graph import RCNet
from .errors import EstimationError, ModelError, NumericalError

_LN2 = math.log(2.0)
_LN9 = math.log(9.0)

LAST_RESORT_TIER = "lumped-rc"


class LumpedRCWireModel(WireTimingModel):
    """Terminal fallback: single time constant over sanitized inputs.

    Every sink gets ``delay = ln(2) * tau`` and the single-pole slew
    degradation with ``tau = R_drv_total * C_total``; non-finite or negative
    parasitics are clamped first, so the result is always finite.  Crude, but
    a bounded, physically-scaled answer beats an aborted timing run.
    """

    def wire_timing(self, net: RCNet, input_slew: float,
                    sink_loads: np.ndarray, drive_resistance: float,
                    context: Optional[NetContext] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        def clean(value: float, fallback: float) -> float:
            value = float(np.nan_to_num(value, nan=fallback,
                                        posinf=fallback, neginf=fallback))
            return value if value > 0.0 else fallback

        num_sinks = net.num_sinks
        caps = np.nan_to_num(net.cap_vector(), nan=0.0, posinf=0.0, neginf=0.0)
        loads = np.nan_to_num(np.asarray(sink_loads, dtype=np.float64).ravel(),
                              nan=0.0, posinf=0.0, neginf=0.0)
        resistances = np.nan_to_num(
            np.array([e.resistance for e in net.edges], dtype=np.float64),
            nan=0.0, posinf=0.0, neginf=0.0)
        total_cap = float(np.abs(caps).sum() + np.abs(loads).sum())
        total_res = clean(drive_resistance, 1.0) + float(np.abs(resistances).sum())
        tau = max(total_res * total_cap, 0.0)
        slew_in = clean(input_slew, 1e-12)
        delays = np.full(num_sinks, _LN2 * tau)
        slews = np.full(num_sinks, math.sqrt(slew_in ** 2 + (_LN9 * tau) ** 2))
        return delays, slews

    @property
    def name(self) -> str:
        return LAST_RESORT_TIER


@dataclass
class TierFailure:
    """One tier's failure while serving one net."""

    tier: str
    reason: str


@dataclass
class NetServeRecord:
    """Provenance of one served net: which tier answered and who failed."""

    net: str
    tier: str
    seconds: float
    failures: List[TierFailure] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.failures)


@dataclass
class TierStats:
    """Degradation counters of one tier."""

    name: str
    served: int = 0
    failed: int = 0
    timeouts: int = 0
    breaker_trips: int = 0
    skipped_open: int = 0


class _CircuitBreaker:
    """Consecutive-failure breaker with a cooldown measured in nets.

    ``threshold`` consecutive failures open the breaker; the tier is then
    skipped for ``cooldown`` nets, after which one half-open trial is
    allowed — success closes the breaker, failure re-opens it.
    """

    def __init__(self, threshold: int, cooldown: int) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        # Mutated by allow()/record_*; the breaker has no lock of its own —
        # the owning chain serializes every call (external guard, see the
        # dotted repro-guarded-by form in docs/LINTING.md).
        self.consecutive_failures = 0  # repro-guarded-by: FallbackChain._lock
        self.remaining_cooldown = 0    # repro-guarded-by: FallbackChain._lock

    @property
    def open(self) -> bool:
        return self.remaining_cooldown > 0

    def allow(self) -> bool:
        """Whether the tier may be tried for the current net."""
        if self.remaining_cooldown > 0:
            self.remaining_cooldown -= 1
            return self.remaining_cooldown == 0  # half-open trial on expiry
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self) -> bool:
        """Count a failure; True when this one trips the breaker open."""
        self.consecutive_failures += 1
        if self.threshold > 0 and self.consecutive_failures >= self.threshold:
            self.consecutive_failures = 0
            self.remaining_cooldown = self.cooldown
            return True
        return False


class FallbackChain(WireTimingModel):
    """Ordered ladder of wire-timing tiers with per-net degradation.

    Parameters
    ----------
    tiers:
        Models to try in order, as instances (named by their ``.name``) or
        ``(name, model)`` pairs.  Duplicate names get a positional suffix.
    net_timeout:
        Cooperative per-net time budget in seconds for each tier.  Models
        run in-process and cannot be preempted, so the budget is checked
        after the call returns: an over-budget result is discarded, counted
        as a timeout failure and the next tier is tried.  ``None`` disables
        the check.
    breaker_threshold:
        Consecutive failures that open a tier's circuit breaker (0 disables).
    breaker_cooldown:
        Nets for which an open tier is skipped before a half-open retrial.
    last_resort:
        When ``True`` (default) a :class:`LumpedRCWireModel` terminal tier
        guarantees ``wire_timing`` always returns.

    Provenance is kept per net, not per chain: each served net's
    :class:`NetServeRecord` is returned by
    :meth:`wire_timing_with_provenance`, the most recent one is
    :attr:`last_record`, and :meth:`counters` totals the tiers, so a
    long-lived chain holds a bounded amount of state.

    Counter and breaker bookkeeping is lock-guarded, so one chain may be
    shared by several threads: :meth:`counters` totals stay consistent
    under concurrent serving.  The tier models themselves must then be
    thread-safe too (the analytic tiers are stateless and qualify).
    """

    def __init__(self, tiers: Sequence[Union[WireTimingModel,
                                             Tuple[str, WireTimingModel]]],
                 net_timeout: Optional[float] = None,
                 breaker_threshold: int = 5, breaker_cooldown: int = 25,
                 last_resort: bool = True) -> None:
        if not tiers and not last_resort:
            raise ValueError("FallbackChain needs at least one tier")
        if net_timeout is not None and net_timeout <= 0.0:
            raise ValueError("net_timeout must be positive")
        if breaker_threshold < 0 or breaker_cooldown < 0:
            raise ValueError("breaker settings must be non-negative")
        self._tiers: List[Tuple[str, WireTimingModel]] = []
        for position, tier in enumerate(tiers):
            if isinstance(tier, tuple):
                name, model = tier
            else:
                name, model = tier.name, tier
            if any(existing == name for existing, _ in self._tiers):
                name = f"{name}#{position}"
            self._tiers.append((name, model))
        if last_resort:
            self._tiers.append((LAST_RESORT_TIER, LumpedRCWireModel()))
        self.net_timeout = net_timeout
        self.stats: Dict[str, TierStats] = {
            name: TierStats(name) for name, _ in self._tiers}  # repro-guarded-by: _lock
        self._breakers: Dict[str, _CircuitBreaker] = {
            name: _CircuitBreaker(breaker_threshold, breaker_cooldown)
            for name, _ in self._tiers}  # repro-guarded-by: _lock
        self.last_record: Optional[NetServeRecord] = None  # repro-guarded-by: _lock
        self._lock = named_lock("FallbackChain._lock")

    # ------------------------------------------------------------------
    @property
    def tier_names(self) -> List[str]:
        return [name for name, _ in self._tiers]

    @property
    def last_tier(self) -> Optional[str]:
        """Tier that served the most recent net (STA provenance hook)."""
        with self._lock:
            record = self.last_record
        return record.tier if record is not None else None

    def prime_nets(self, requests: Sequence[object]) -> int:
        """Bulk-prime the primary tier's cache, when it supports it.

        Only the first tier serves nets on the healthy path; degraded
        tiers only ever see the failures, so priming them would be wasted
        work.  Priming runs outside the breaker/stats bookkeeping — it is
        cache warm-up, not serving.
        """
        if not self._tiers:
            return 0
        primer = getattr(self._tiers[0][1], "prime_nets", None)
        return 0 if primer is None else int(primer(requests))

    def bind_many(self, requests: Sequence[BindRequest]
                  ) -> List[WireBinding]:
        """Per-call ladder walks, after one :meth:`prime_nets` pass over
        every request warms the primary tier's cache."""
        self.prime_nets(requests)
        return super().bind_many(requests)

    def wire_timing(self, net: RCNet, input_slew: float,
                    sink_loads: np.ndarray, drive_resistance: float,
                    context: Optional[NetContext] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        delays, slews, _ = self.wire_timing_with_provenance(
            net, input_slew, sink_loads, drive_resistance, context=context)
        return delays, slews

    def wire_timing_with_provenance(
            self, net: RCNet, input_slew: float, sink_loads: np.ndarray,
            drive_resistance: float, context: Optional[NetContext] = None
            ) -> Tuple[np.ndarray, np.ndarray, NetServeRecord]:
        """Like :meth:`wire_timing` but also returns the provenance record."""
        start = time.perf_counter()
        failures: List[TierFailure] = []
        for name, model in self._tiers:
            # The stats/breaker map reads must also run under the lock:
            # reset_counters() rebinds self.stats[name] concurrently, and
            # an unlocked read could hand back the object it is replacing.
            with self._lock:
                stats = self.stats[name]
                breaker = self._breakers[name]
                allowed = breaker.allow()
                if not allowed:
                    stats.skipped_open += 1
            if not allowed:
                failures.append(TierFailure(name, "circuit breaker open"))
                continue
            tier_start = time.perf_counter()
            try:
                delays, slews = model.wire_timing(
                    net, input_slew, sink_loads, drive_resistance,
                    context=context)
                self._validate(net, delays, slews)
            except (KeyboardInterrupt, SystemExit):
                raise
            # Designed swallow-and-degrade: every tier failure is recorded
            # as a TierFailure on the serve record (and in the per-tier
            # counters) and the next tier serves the net — the chain's
            # whole contract is that no tier exception ever aborts a run.
            except Exception as exc:  # repro-lint: disable=ERR002
                self._record_failure(stats, breaker, failures, name,
                                     f"{type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - tier_start
            get_metrics().histogram(f"fallback.tier_seconds.{name}").observe(
                elapsed)
            if self.net_timeout is not None and elapsed > self.net_timeout:
                with self._lock:
                    stats.timeouts += 1
                self._record_failure(
                    stats, breaker, failures, name,
                    f"exceeded net budget ({elapsed:.3g}s > {self.net_timeout:.3g}s)")
                continue
            record = NetServeRecord(net.name, name,
                                    time.perf_counter() - start, failures)
            with self._lock:
                breaker.record_success()
                stats.served += 1
                self.last_record = record
            get_metrics().counter(f"fallback.served.{name}").inc()
            if failures:
                get_metrics().counter("fallback.degraded_nets").inc()
            return np.asarray(delays, dtype=np.float64), \
                np.asarray(slews, dtype=np.float64), record
        raise EstimationError(
            f"every tier failed for net {net.name!r} and no last resort is "
            f"configured: {[f.reason for f in failures]}",
            net=net.name, stage="fallback")

    # ------------------------------------------------------------------
    @staticmethod
    def _validate(net: RCNet, delays: np.ndarray, slews: np.ndarray) -> None:
        delays = np.asarray(delays, dtype=np.float64)
        slews = np.asarray(slews, dtype=np.float64)
        expected = (net.num_sinks,)
        if delays.shape != expected or slews.shape != expected:
            raise ModelError(
                f"tier returned shapes {delays.shape}/{slews.shape}, "
                f"expected {expected}", net=net.name, stage="tier-validate")
        if not (np.all(np.isfinite(delays)) and np.all(np.isfinite(slews))):
            raise NumericalError("tier returned non-finite timing",
                                 net=net.name, stage="tier-validate")
        if np.any(delays < 0.0) or np.any(slews <= 0.0):
            raise NumericalError(
                "tier returned negative delay or non-positive slew",
                net=net.name, stage="tier-validate")

    def _record_failure(self, stats: TierStats, breaker: _CircuitBreaker,
                        failures: List[TierFailure], name: str,
                        reason: str) -> None:
        with self._lock:
            stats.failed += 1
            if breaker.record_failure():
                stats.breaker_trips += 1
        get_metrics().counter(f"fallback.failures.{name}").inc()
        failures.append(TierFailure(name, reason))

    # ------------------------------------------------------------------
    # Degradation observability
    # ------------------------------------------------------------------
    @property
    def total_served(self) -> int:
        with self._lock:
            return sum(s.served for s in self.stats.values())

    @property
    def degraded_count(self) -> int:
        """Nets not served by the first tier."""
        first = self.tier_names[0]
        with self._lock:  # inline total: total_served would re-take the lock
            total = sum(s.served for s in self.stats.values())
            return total - self.stats[first].served

    def counters(self) -> Dict[str, int]:
        """Nets served per tier; values sum to :attr:`total_served`.

        Taken under the chain's lock, so the snapshot is internally
        consistent even while other threads are serving nets.
        """
        with self._lock:
            return {name: self.stats[name].served for name in self.tier_names}

    def reset_counters(self) -> None:
        with self._lock:
            for name in self.tier_names:
                self.stats[name] = TierStats(name)
            self.last_record = None

    def degradation_report(self) -> str:
        """Human-readable counter table (printed by the CLI)."""
        with self._lock:
            total = sum(s.served for s in self.stats.values())
            rows = [(name, self.stats[name].served, self.stats[name].failed,
                     self.stats[name].timeouts,
                     self.stats[name].breaker_trips)
                    for name in self.tier_names]
        lines = [f"degradation counters ({total} nets served)"]
        for name, served, failed, timeouts, trips in rows:
            lines.append(
                f"  {name:<20} served={served:<6} failed={failed:<4} "
                f"timeouts={timeouts:<4} breaker_trips={trips}")
        return "\n".join(lines)

    @property
    def name(self) -> str:
        return "FallbackChain(" + "->".join(self.tier_names) + ")"


def default_fallback_chain(learned: Optional[WireTimingModel] = None,
                           **kwargs) -> FallbackChain:
    """The repo's standard degradation ladder.

    ``learned -> AWE -> D2M -> Elmore -> lumped-RC`` when a learned model is
    supplied, the analytic ladder otherwise.  Keyword arguments pass through
    to :class:`FallbackChain`.
    """
    tiers: List[WireTimingModel] = []
    if learned is not None:
        tiers.append(learned)
    tiers.extend([AWEWireModel(), D2MWireModel(), ElmoreWireModel()])
    return FallbackChain(tiers, **kwargs)
