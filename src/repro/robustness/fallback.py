"""Degrading wire-timing model: learned -> AWE -> D2M -> Elmore -> lumped RC.

Production timers never abort a full-chip run because one net is
pathological; they serve a cruder estimate and say so.  :class:`FallbackChain`
brings that discipline here: it walks an ordered ladder of
:class:`~repro.design.sta.WireTimingModel` tiers per net, validates each
tier's output (shape, finiteness, non-negative delays), and records which
tier served every net so degradation is observable rather than silent.  The
walk reads nothing but the net's own inputs, so a net's tier never depends
on the nets served before it.

The chain itself is a :class:`WireTimingModel`, so it plugs into
:class:`~repro.design.sta.STAEngine` unchanged: it binds its first tier
through that tier's own ``bind_many`` and times that tier's calls through
its ``time_many``, so a learned first tier encodes each net once and runs
its heads once per path count.  Its terminal tier — a
single-time-constant lumped-RC estimate over sanitized inputs — cannot fail,
so ``wire_timing`` never raises on any net the caller can construct.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..design.sta import (AWEWireModel, BindRequest, D2MWireModel,
                          ElmoreWireModel, WireBinding, WireCall, WireResult,
                          WireTiming, WireTimingModel)
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
    failures: List[TierFailure] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.failures)


class _ChainBinding:
    """One net bound by :meth:`FallbackChain.bind_many`: its request and
    the first tier's binding of it, or the exception binding it raised.
    A call is a :meth:`FallbackChain.time_many` of one."""

    __slots__ = ("chain", "request", "first")

    def __init__(self, chain: "FallbackChain", request: BindRequest,
                 first: Union[WireBinding, Exception]) -> None:
        self.chain = chain
        self.request = request
        self.first = first

    def __call__(self, input_slew: float) -> WireTiming:
        result = self.chain.time_many([(self, input_slew)])[0]
        if isinstance(result, Exception):
            raise result
        return result


@dataclass
class TierStats:
    """Degradation counters of one tier."""

    name: str
    served: int = 0
    failed: int = 0


class FallbackChain(WireTimingModel):
    """Ordered ladder of wire-timing tiers with per-net degradation.

    Parameters
    ----------
    tiers:
        Models to try in order, as instances (named by their ``.name``) or
        ``(name, model)`` pairs.  Duplicate names get a positional suffix.
    last_resort:
        When ``True`` (default) a :class:`LumpedRCWireModel` terminal tier
        guarantees ``wire_timing`` always returns.

    A net is served by the first tier whose output passes validation.
    Provenance is a return value, a :class:`NetServeRecord` from
    :meth:`wire_timing_with_provenance` or the tier from a :meth:`bind`
    call, and :meth:`counters` totals the tiers.

    Counter bookkeeping is lock-guarded, so one chain may be shared by
    several threads: :meth:`counters` totals stay consistent under
    concurrent serving.  The tier models themselves must then be
    thread-safe too (the analytic tiers are stateless and qualify).
    """

    def __init__(self, tiers: Sequence[Union[WireTimingModel,
                                             Tuple[str, WireTimingModel]]],
                 last_resort: bool = True) -> None:
        if not tiers and not last_resort:
            raise ValueError("FallbackChain needs at least one tier")
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
        self.stats: Dict[str, TierStats] = {
            name: TierStats(name) for name, _ in self._tiers}  # repro-guarded-by: _lock
        self._lock = named_lock("FallbackChain._lock")

    # ------------------------------------------------------------------
    @property
    def tier_names(self) -> List[str]:
        return [name for name, _ in self._tiers]

    def prime_nets(self, requests: Sequence[object]) -> int:
        """Bulk-prime the primary tier's cache, when it supports it.

        Only the first tier serves nets on the healthy path; degraded
        tiers only ever see the failures, so priming them would be wasted
        work.  Priming runs outside the stats bookkeeping: it is cache
        warm-up, not serving.
        """
        if not self._tiers:
            return 0
        primer = getattr(self._tiers[0][1], "prime_nets", None)
        return 0 if primer is None else int(primer(requests))

    def bind(self, net: RCNet, sink_loads: np.ndarray,
             drive_resistance: float,
             context: Optional[NetContext] = None) -> WireBinding:
        """A :meth:`bind_many` of one request."""
        return self.bind_many([BindRequest(net, sink_loads, drive_resistance,
                                           context)])[0]

    def bind_many(self, requests: Sequence[BindRequest]
                  ) -> List[WireBinding]:
        """The first tier's bindings, from that tier's own ``bind_many``;
        each call walks the ladder (see :meth:`time_many`).

        When that call raises, each request is bound alone, and a request
        that still raises starts every call at the second tier, with the
        first tier's failure recorded.
        """
        return [_ChainBinding(self, request, first) for request, first
                in zip(requests, self._bind_first(requests))]

    def _bind_first(self, requests: Sequence[BindRequest]
                    ) -> List[Union[WireBinding, Exception]]:
        try:
            return list(self._tiers[0][1].bind_many(requests))
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # repro-lint: disable=ERR002 each net is re-bound alone, and a lone failure is recorded on each of its calls
            if len(requests) == 1:
                return [exc]
            return [first for request in requests
                    for first in self._bind_first([request])]

    def time_many(self, calls: Sequence[WireCall]) -> List[WireResult]:
        """Each call served by the first tier whose output passes
        validation, with that tier's name as the call's tier.

        The first tier's calls run in one ``time_many`` call of that tier,
        and each result is validated.  Only the calls that failed walk the
        lower tiers, one call at a time through ``wire_timing``.  The
        ``served``/``failed`` counters count calls, and
        ``fallback.tier_seconds.<tier>`` gets one observation per tier
        invocation.  Without a last resort, a call that every tier fails
        returns its :class:`EstimationError` in its place.
        """
        name, model = self._tiers[0]
        firsts: Dict[int, WireResult] = {}
        bound: List[int] = []
        for index, (binding, _) in enumerate(calls):
            if isinstance(binding.first, Exception):
                firsts[index] = binding.first
            else:
                bound.append(index)
        if bound:
            start = time.perf_counter()
            firsts.update(zip(bound, model.time_many(
                [(calls[i][0].first, calls[i][1]) for i in bound])))
            _observe(name, start)
        results: List[WireResult] = []
        for index, (binding, input_slew) in enumerate(calls):
            request = binding.request
            result = firsts[index]
            failures: List[TierFailure] = []
            reason = self._rejection(request.net, result)
            if reason is None:
                delays, slews, _ = self._served(request.net, name, result[0],
                                                result[1], failures)
                results.append((delays, slews, name))
                continue
            self._record_failure(name, failures, reason)
            context = None if request.context is None \
                else replace(request.context, input_slew=input_slew)
            try:
                delays, slews, record = self._walk(
                    self._tiers[1:], request.net, input_slew,
                    request.sink_loads, request.drive_resistance, context,
                    failures)
            except EstimationError as exc:
                results.append(exc)
                continue
            results.append((delays, slews, record.tier))
        return results

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
        return self._walk(self._tiers, net, input_slew, sink_loads,
                          drive_resistance, context, [])

    def _walk(self, tiers: Sequence[Tuple[str, WireTimingModel]],
              net: RCNet, input_slew: float, sink_loads: np.ndarray,
              drive_resistance: float, context: Optional[NetContext],
              failures: List[TierFailure]
              ) -> Tuple[np.ndarray, np.ndarray, NetServeRecord]:
        """Serve one net from the first of ``tiers`` that passes
        validation, one ``wire_timing`` call per tier tried."""
        for name, model in tiers:
            start = time.perf_counter()
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
                _observe(name, start)
                self._record_failure(name, failures,
                                     f"{type(exc).__name__}: {exc}")
                continue
            _observe(name, start)
            return self._served(net, name, delays, slews, failures)
        raise EstimationError(
            f"every tier failed for net {net.name!r} and no last resort is "
            f"configured: {[f.reason for f in failures]}",
            net=net.name, stage="fallback")

    def _rejection(self, net: RCNet, result: WireResult) -> Optional[str]:
        """Why a tier's ``result`` cannot serve ``net``; ``None`` if it
        can."""
        if isinstance(result, Exception):
            return f"{type(result).__name__}: {result}"
        try:
            self._validate(net, result[0], result[1])
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # repro-lint: disable=ERR002 a malformed result is a recorded tier failure, as in _walk
            return f"{type(exc).__name__}: {exc}"
        return None

    def _served(self, net: RCNet, name: str, delays: np.ndarray,
                slews: np.ndarray, failures: List[TierFailure]
                ) -> Tuple[np.ndarray, np.ndarray, NetServeRecord]:
        # The stats map read runs under the lock: reset_counters()
        # rebinds self.stats[name] concurrently.
        with self._lock:
            self.stats[name].served += 1
        get_metrics().counter(f"fallback.served.{name}").inc()
        if failures:
            get_metrics().counter("fallback.degraded_nets").inc()
        return np.asarray(delays, dtype=np.float64), \
            np.asarray(slews, dtype=np.float64), \
            NetServeRecord(net.name, name, failures)

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

    def _record_failure(self, name: str, failures: List[TierFailure],
                        reason: str) -> None:
        with self._lock:
            self.stats[name].failed += 1
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

    def degradation_report(self) -> str:
        """Human-readable counter table (printed by the CLI)."""
        with self._lock:
            total = sum(s.served for s in self.stats.values())
            rows = [(name, self.stats[name].served, self.stats[name].failed)
                    for name in self.tier_names]
        lines = [f"degradation counters ({total} nets served)"]
        for name, served, failed in rows:
            lines.append(f"  {name:<20} served={served:<6} failed={failed}")
        return "\n".join(lines)

    @property
    def name(self) -> str:
        return "FallbackChain(" + "->".join(self.tier_names) + ")"


def _observe(tier: str, start: float) -> None:
    """One ``fallback.tier_seconds.<tier>`` observation, from ``start``."""
    get_metrics().histogram(f"fallback.tier_seconds.{tier}").observe(
        time.perf_counter() - start)


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
