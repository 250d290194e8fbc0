"""FallbackChain: tier ordering, counters, provenance, last resort."""

import numpy as np
import pytest

from repro.design import BindRequest, ElmoreWireModel
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


class _Batched(ElmoreWireModel):
    """Elmore, recording each ``time_many`` batch; a negative delay on
    the net named ``bad``."""

    def __init__(self):
        self.batches = []

    def wire_timing(self, net, *args, **kwargs):
        delays, slews = super().wire_timing(net, *args, **kwargs)
        return (-delays if net.name == "bad" else delays), slews

    def time_many(self, calls):
        self.batches.append(len(calls))
        return super().time_many(calls)


class _BindRefuses(ElmoreWireModel):
    """Elmore that cannot bind the net named ``bad``."""

    def bind_many(self, requests):
        if any(request.net.name == "bad" for request in requests):
            raise RuntimeError("cannot bind bad")
        return super().bind_many(requests)


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

    def test_first_tier_times_a_batch_in_one_call(self):
        """The first tier's calls run in one ``time_many`` call; only the
        calls it fails walk the lower tiers, one at a time."""
        first = _Batched()
        good = _Stub()
        chain = FallbackChain([("first", first), ("good", good)])
        nets = [chain_net(5), chain_net(6, name="bad"), chain_net(7)]
        bindings = chain.bind_many([BindRequest(net, LOADS, 100.0)
                                    for net in nets])
        results = chain.time_many([(b, 20e-12) for b in bindings])
        assert first.batches == [3]
        assert [result[2] for result in results] == ["first", "good",
                                                     "first"]
        assert good.calls == 1
        assert chain.stats["first"].served == 2
        assert chain.stats["first"].failed == 1
        np.testing.assert_array_equal(
            results[2][0], first.wire_timing(nets[2], 20e-12, LOADS,
                                             100.0)[0])

    def test_failed_bind_starts_its_calls_at_the_next_tier(self):
        """A net the first tier cannot bind is bound by no one: each of
        its calls records the bind's failure and walks the lower tiers;
        the other nets are bound alone and served as usual."""
        chain = FallbackChain([("first", _BindRefuses()), ("good", _Stub())])
        nets = [chain_net(5), chain_net(6, name="bad")]
        bindings = chain.bind_many([BindRequest(net, LOADS, 100.0)
                                    for net in nets])
        results = chain.time_many([(b, 20e-12) for b in bindings * 2])
        assert [result[2] for result in results] == ["first", "good"] * 2
        assert chain.stats["first"].failed == 2

    def test_no_last_resort_returns_the_error_in_place(self):
        chain = FallbackChain([("bad", _Stub("raise"))], last_resort=False)
        (binding,) = chain.bind_many([BindRequest(chain_net(5), LOADS,
                                                  100.0)])
        (result,) = chain.time_many([(binding, 20e-12)])
        assert isinstance(result, EstimationError)
        with pytest.raises(EstimationError, match="every tier failed"):
            binding(20e-12)

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
