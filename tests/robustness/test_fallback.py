"""FallbackChain: tier ordering, counters, breaker, timeout, last resort."""

import time

import numpy as np
import pytest

from repro.design import ElmoreWireModel
from repro.design.sta import WireTimingModel
from repro.rcnet import chain_net
from repro.robustness import (LAST_RESORT_TIER, EstimationError,
                              FallbackChain, LumpedRCWireModel,
                              default_fallback_chain)
from repro.robustness.faultinject import FaultInjector, RC_FAULT_MODES

LOADS = np.array([2e-15])


class _Stub(WireTimingModel):
    """Scriptable tier: raises, sleeps, or returns a fixed answer."""

    def __init__(self, behaviour="ok", delay=1e-12, slew=2e-12,
                 sleep_s=0.0):
        self.behaviour = behaviour
        self.delay = delay
        self.slew = slew
        self.sleep_s = sleep_s
        self.calls = 0

    def wire_timing(self, net, input_slew, sink_loads, drive_resistance,
                    context=None):
        self.calls += 1
        if self.sleep_s:
            time.sleep(self.sleep_s)
        if self.behaviour == "raise":
            raise RuntimeError("tier exploded")
        if self.behaviour == "nan":
            return (np.full(net.num_sinks, np.nan),
                    np.full(net.num_sinks, np.nan))
        if self.behaviour == "negative":
            return (np.full(net.num_sinks, -1e-12),
                    np.full(net.num_sinks, self.slew))
        if self.behaviour == "bad_shape":
            return np.zeros(net.num_sinks + 3), np.zeros(net.num_sinks + 3)
        return (np.full(net.num_sinks, self.delay),
                np.full(net.num_sinks, self.slew))


def serve(chain, n=1, net=None):
    net = net or chain_net(6)
    records = []
    for _ in range(n):
        _, _, record = chain.wire_timing_with_provenance(
            net, 20e-12, LOADS, 100.0)
        records.append(record)
    return records


class TestHealthyChain:
    def test_first_tier_serves(self):
        chain = default_fallback_chain()
        delays, slews, record = chain.wire_timing_with_provenance(
            chain_net(6), 20e-12, LOADS, 100.0)
        assert record.tier == "AWEWireModel"
        assert not record.degraded
        assert np.all(np.isfinite(delays)) and np.all(np.isfinite(slews))
        assert chain.last_tier == "AWEWireModel"

    def test_counters_sum_to_nets_served(self):
        chain = default_fallback_chain()
        injector = FaultInjector(3)
        nets = [chain_net(5)] * 4 + [
            injector.corrupt_rc_values(chain_net(5), "nan_resistance")] * 3
        for net in nets:
            chain.wire_timing(net, 20e-12, LOADS, 100.0)
        counters = chain.counters()
        assert sum(counters.values()) == chain.total_served == len(nets)
        assert chain.degraded_count == 3

    def test_reset_counters(self):
        chain = default_fallback_chain()
        serve(chain, n=3)
        chain.reset_counters()
        assert chain.total_served == 0
        assert chain.counters() == {name: 0 for name in chain.tier_names}
        assert chain.last_tier is None

    def test_plain_wire_timing_interface(self):
        chain = default_fallback_chain()
        delays, slews = chain.wire_timing(chain_net(6), 20e-12, LOADS, 100.0)
        assert delays.shape == slews.shape == (1,)


class TestDegradation:
    @pytest.mark.parametrize("behaviour", ["raise", "nan", "negative",
                                           "bad_shape"])
    def test_bad_first_tier_degrades(self, behaviour):
        bad = _Stub(behaviour)
        chain = FallbackChain([("bad", bad), ("good", _Stub())])
        (record,) = serve(chain)
        assert record.tier == "good"
        assert record.degraded
        assert record.failures[0].tier == "bad"
        assert chain.stats["bad"].failed == 1
        assert chain.stats["good"].served == 1

    def test_failure_reason_is_recorded(self):
        chain = FallbackChain([("bad", _Stub("raise")), ("good", _Stub())])
        (record,) = serve(chain)
        assert "RuntimeError" in record.failures[0].reason

    def test_timeout_counts_and_degrades(self):
        slow = _Stub(sleep_s=0.05)
        chain = FallbackChain([("slow", slow), ("fast", _Stub())],
                              net_timeout=0.005)
        (record,) = serve(chain)
        assert record.tier == "fast"
        assert chain.stats["slow"].timeouts == 1
        assert any("budget" in f.reason for f in record.failures)

    def test_last_resort_cannot_fail(self):
        injector = FaultInjector(0)
        chain = FallbackChain([], last_resort=True)
        for mode in RC_FAULT_MODES:
            bad_net = injector.corrupt_rc_values(chain_net(8), mode, count=2)
            delays, slews, record = chain.wire_timing_with_provenance(
                bad_net, 20e-12, LOADS, 100.0)
            assert record.tier == LAST_RESORT_TIER
            assert np.all(np.isfinite(delays))
            assert np.all(slews > 0.0)

    def test_no_last_resort_raises_when_all_fail(self):
        chain = FallbackChain([("bad", _Stub("raise"))], last_resort=False)
        with pytest.raises(EstimationError, match="every tier failed") as exc:
            chain.wire_timing(chain_net(5), 20e-12, LOADS, 100.0)
        assert exc.value.stage == "fallback"


class TestCircuitBreaker:
    def test_trips_and_cools_down(self):
        bad = _Stub("raise")
        chain = FallbackChain([("flaky", bad), ("good", _Stub())],
                              breaker_threshold=2, breaker_cooldown=3)
        serve(chain, n=2)  # two failures trip the breaker
        assert chain.stats["flaky"].breaker_trips == 1
        calls_after_trip = bad.calls
        serve(chain, n=2)  # breaker open: tier skipped without being called
        assert bad.calls == calls_after_trip
        assert chain.stats["flaky"].skipped_open == 2
        serve(chain, n=1)  # cooldown expired: half-open retrial
        assert bad.calls == calls_after_trip + 1

    def test_success_closes_half_open_breaker(self):
        flaky = _Stub("raise")
        chain = FallbackChain([("flaky", flaky), ("good", _Stub())],
                              breaker_threshold=1, breaker_cooldown=1)
        serve(chain, n=2)  # trip + one skipped (cooldown) net
        flaky.behaviour = "ok"
        records = serve(chain, n=2)
        assert records[-1].tier == "flaky"
        assert chain.stats["flaky"].served >= 1

    def test_every_net_still_served_under_breaker(self):
        chain = FallbackChain([("flaky", _Stub("raise")), ("good", _Stub())],
                              breaker_threshold=2, breaker_cooldown=4)
        records = serve(chain, n=12)
        assert len(records) == 12
        assert sum(chain.counters().values()) == 12


class TestConstruction:
    def test_duplicate_names_get_suffix(self):
        chain = FallbackChain([ElmoreWireModel(), ElmoreWireModel()])
        assert chain.tier_names[:2] == ["ElmoreWireModel", "ElmoreWireModel#1"]

    def test_name_lists_ladder(self):
        chain = default_fallback_chain()
        assert chain.name == ("FallbackChain(AWEWireModel->D2MWireModel->"
                              "ElmoreWireModel->lumped-rc)")

    def test_invalid_settings_raise(self):
        with pytest.raises(ValueError):
            FallbackChain([], last_resort=False)
        with pytest.raises(ValueError):
            FallbackChain([_Stub()], net_timeout=0.0)
        with pytest.raises(ValueError):
            FallbackChain([_Stub()], breaker_threshold=-1)

    def test_degradation_report_lists_tiers(self):
        chain = default_fallback_chain()
        serve(chain, n=2)
        report = chain.degradation_report()
        assert "2 nets served" in report
        for name in chain.tier_names:
            assert name in report


class TestLumpedRC:
    def test_finite_on_sane_net(self):
        delays, slews = LumpedRCWireModel().wire_timing(
            chain_net(6), 20e-12, LOADS, 100.0)
        assert np.all(np.isfinite(delays)) and np.all(delays >= 0.0)
        assert np.all(slews > 0.0)

    def test_finite_on_fully_corrupt_inputs(self):
        injector = FaultInjector(1)
        net = injector.corrupt_rc_values(chain_net(6), "nan_resistance",
                                         count=5)
        net = injector.corrupt_rc_values(net, "inf_cap", count=5)
        delays, slews = LumpedRCWireModel().wire_timing(
            net, float("nan"), np.array([float("inf")]), float("nan"))
        assert np.all(np.isfinite(delays))
        assert np.all(np.isfinite(slews)) and np.all(slews > 0.0)


class TestBreakerCooldownSemantics:
    """Direct unit coverage of the breaker arithmetic the serve layer
    leans on (admission shedding reuses this exact class)."""

    def test_opens_after_threshold_consecutive_failures(self):
        from repro.robustness.fallback import _CircuitBreaker

        breaker = _CircuitBreaker(threshold=3, cooldown=2)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True     # this one trips it
        assert breaker.open

    def test_cooldown_counts_down_to_a_half_open_trial(self):
        from repro.robustness.fallback import _CircuitBreaker

        breaker = _CircuitBreaker(threshold=1, cooldown=3)
        breaker.record_failure()
        assert [breaker.allow() for _ in range(3)] == [False, False, True]
        breaker.record_success()                    # trial succeeded
        assert not breaker.open
        assert breaker.allow()

    def test_interleaved_success_resets_the_streak(self):
        from repro.robustness.fallback import _CircuitBreaker

        breaker = _CircuitBreaker(threshold=2, cooldown=5)
        for _ in range(10):
            breaker.record_failure()
            breaker.record_success()
        assert not breaker.open and breaker.allow()


class TestCounterThreadConsistency:
    def test_concurrent_serving_conserves_counters(self):
        import threading

        flaky = _Stub("raise")
        chain = FallbackChain([flaky, _Stub("ok")], last_resort=True)
        nets = [chain_net(n) for n in (4, 5, 6, 7)]
        per_thread, threads_n = 50, 8
        errors = []

        def worker(index):
            try:
                serve(chain, n=per_thread, net=nets[index % len(nets)])
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total = per_thread * threads_n
        counters = chain.counters()
        assert sum(counters.values()) == chain.total_served == total
        # The flaky first tier served nothing; every net degraded past it.
        assert counters[chain.tier_names[0]] == 0
        assert chain.degraded_count == total
