"""FallbackChain: tier ordering, counters, provenance, last resort."""

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
    """Scriptable tier: raises or returns a bad or a fixed answer."""

    def __init__(self, behaviour="ok", delay=1e-12, slew=2e-12):
        self.behaviour = behaviour
        self.delay = delay
        self.slew = slew
        self.calls = 0

    def wire_timing(self, net, input_slew, sink_loads, drive_resistance,
                    context=None):
        self.calls += 1
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
        assert chain.bind(chain_net(6), LOADS, 100.0)(20e-12)[2] == "good"

    def test_failure_reason_is_recorded(self):
        chain = FallbackChain([("bad", _Stub("raise")), ("good", _Stub())])
        (record,) = serve(chain)
        assert "RuntimeError" in record.failures[0].reason

    def test_tier_does_not_depend_on_earlier_nets(self):
        """However often a tier failed before, it serves the next net
        whose output it gets right."""
        flaky = _Stub("raise")
        chain = FallbackChain([("flaky", flaky), ("good", _Stub())])
        assert {r.tier for r in serve(chain, n=30)} == {"good"}
        assert flaky.calls == 30
        flaky.behaviour = "ok"
        (record,) = serve(chain)
        assert record.tier == "flaky" and not record.degraded

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
