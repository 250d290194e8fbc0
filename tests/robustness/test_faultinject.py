"""Fault-injection campaigns through every pipeline entry point.

Each fault class (corrupt RC values, truncated SPEF, NaN model weights,
singular MNA) is driven through the estimator's predict path, the STA flow
and the CLI, asserting degraded-but-valid results whose provenance names
the serving fallback tier — never an unhandled exception.
"""

import copy

import numpy as np
import pytest

from repro import cli
from repro.core import LearnedWireModel
from repro.design import (ECOTimingEngine, GoldenWireModel, STAEngine,
                          generate_benchmark)
from repro.liberty import make_default_library
from repro.rcnet import SPEFError, chain_net, parse_spef, write_spef
from repro.robustness import LAST_RESORT_TIER, FallbackChain, \
    default_fallback_chain
from repro.robustness.faultinject import (FaultInjector, RC_FAULT_MODES,
                                          singular_mna_net)

LOADS = np.array([2e-15])


@pytest.fixture
def poisoned(fitted):
    """Function-scoped copy of the fitted estimator with NaN weights."""
    estimator = copy.deepcopy(fitted)
    count = FaultInjector(7).inject_nan_weights(estimator.model, fraction=0.5)
    assert count > 0
    return estimator


class TestCorruptRCValues:
    @pytest.mark.parametrize("mode", RC_FAULT_MODES)
    def test_chain_serves_every_mode(self, mode):
        injector = FaultInjector(0)
        chain = default_fallback_chain()
        net = injector.corrupt_rc_values(chain_net(8), mode, count=2)
        delays, slews, record = chain.wire_timing_with_provenance(
            net, 20e-12, LOADS, 100.0)
        assert np.all(np.isfinite(delays)) and np.all(slews > 0.0)
        assert record.degraded
        assert record.tier in chain.tier_names
        assert all(f.tier in chain.tier_names for f in record.failures)

    def test_injection_is_deterministic(self):
        a = FaultInjector(42).corrupt_rc_values(chain_net(9),
                                                "nan_resistance", count=3)
        b = FaultInjector(42).corrupt_rc_values(chain_net(9),
                                                "nan_resistance", count=3)
        assert [e.resistance for e in a.edges] == pytest.approx(
            [e.resistance for e in b.edges], nan_ok=True)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="fault mode"):
            FaultInjector().corrupt_rc_values(chain_net(4), "melt")


class TestNaNWeights:
    def test_estimator_predict_degrades_with_provenance(self, poisoned,
                                                        dataset):
        before = poisoned.degradation_counts["label-prior"]
        for sample in dataset.test[:4]:
            slews, delays = poisoned.predict_sample(sample)
            assert np.all(np.isfinite(slews))
            assert np.all(np.isfinite(delays))
        assert poisoned.degradation_counts["label-prior"] > before
        assert poisoned.last_tier == "label-prior"
        record = poisoned.provenance_log[-1]
        assert record.tier == "label-prior"
        assert record.reason  # explains why the prior was substituted

    def test_sta_flow_stays_finite_with_tier_provenance(self, poisoned,
                                                        dataset):
        netlist = generate_benchmark("WB_DMA", make_default_library(),
                                     scale=2000)
        engine = STAEngine(netlist, LearnedWireModel(poisoned, dataset.scaler))
        report = engine.analyze_design()
        assert np.all(np.isfinite(report.arrivals()))
        tiers = {s.tier for p in report.paths for s in p.stages}
        assert tiers == {"label-prior"}

    def test_healthy_estimator_reports_model_tier(self, fitted, dataset):
        fitted.predict_sample(dataset.test[0])
        assert fitted.last_tier == "model"


class TestRaisingEncoder:
    """An encoder that raises (here a GNN weight of the wrong shape) fails
    in the learned model's per-net binding, not in a per-slew call; every
    stage must still be served from the label prior."""

    @pytest.fixture
    def broken(self, fitted):
        estimator = copy.deepcopy(fitted)
        estimator.model.gnn.layers[0].w_self.weight.data = np.zeros((3, 3))
        return estimator

    @staticmethod
    def _assert_label_prior(paths):
        assert np.all(np.isfinite([p.arrival for p in paths]))
        assert {s.tier for p in paths for s in p.stages} == {"label-prior"}

    def test_cold_sta_serves_label_prior(self, broken, dataset):
        netlist = generate_benchmark("WB_DMA", make_default_library(),
                                     scale=2000)
        report = STAEngine(netlist, LearnedWireModel(
            broken, dataset.scaler)).analyze_design()
        self._assert_label_prior(report.paths)

    def test_eco_edits_serve_label_prior(self, broken, dataset):
        netlist = generate_benchmark("WB_DMA", make_default_library(),
                                     scale=2000)
        eco = ECOTimingEngine(netlist,
                              LearnedWireModel(broken, dataset.scaler))
        eco.full_pass()
        nets = sorted({s.net for p in netlist.paths for s in p.stages})
        for name in nets[:4]:
            eco.apply(netlist.scale_net_rc(name, r_factor=1.3,
                                           c_factor=0.8))
        self._assert_label_prior(eco.results)
        assert eco.verify_parity() == []


class TestSingularMNA:
    def test_golden_tier_degrades_to_analytic_ladder(self):
        chain = FallbackChain([GoldenWireModel()], last_resort=True)
        delays, slews, record = chain.wire_timing_with_provenance(
            singular_mna_net(), 20e-12, LOADS, 100.0)
        assert np.all(np.isfinite(delays)) and np.all(slews > 0.0)
        assert record.tier == LAST_RESORT_TIER
        assert record.failures[0].tier == "GoldenWireModel"
        assert "NumericalError" in record.failures[0].reason


class TestTruncatedSPEF:
    def test_strict_raises_lenient_skips(self):
        text = write_spef([chain_net(5, name=f"net{i}") for i in range(3)],
                          design="trunc")
        truncated = FaultInjector(0).truncate_spef(text, fraction=0.8)
        with pytest.raises(SPEFError):
            parse_spef(truncated)
        design = parse_spef(truncated, strict=False)
        assert len(design.nets) == 2
        assert [s.name for s in design.skipped] == ["net2"]
        assert design.skipped[0].line > 0
        assert "END" in design.skipped[0].reason

    def test_value_corruption_skips_only_bad_net(self):
        text = write_spef([chain_net(5, name=f"net{i}") for i in range(3)],
                          design="corrupt")
        corrupted = FaultInjector(0).corrupt_spef_values(text, count=1)
        design = parse_spef(corrupted, strict=False)
        assert len(design.nets) + len(design.skipped) == 3
        assert len(design.skipped) == 1
        assert "NOT_A_NUMBER" in design.skipped[0].reason


class TestCLIEntryPoints:
    def test_spef_timing_lenient_flag(self, tmp_path, capsys):
        text = write_spef([chain_net(5, name=f"net{i}") for i in range(3)],
                          design="cli")
        truncated = FaultInjector(0).truncate_spef(text, fraction=0.8)
        path = tmp_path / "trunc.spef"
        path.write_text(truncated)

        assert cli.main(["spef-timing", str(path)]) == 1
        assert "error" in capsys.readouterr().err

        assert cli.main(["spef-timing", str(path), "--lenient"]) == 0
        captured = capsys.readouterr()
        assert "skipped net 'net2'" in captured.err
        assert "net0" in captured.out  # surviving nets still analyzed

    def test_report_fallback_engine_prints_counters(self, tmp_path, capsys):
        assert cli.main(["export-design", "PCI_BRIDGE", "-o", str(tmp_path),
                         "--scale", "3000"]) == 0
        capsys.readouterr()
        code = cli.main([
            "report", "--verilog", str(tmp_path / "netlist.v"),
            "--spef", str(tmp_path / "parasitics.spef"),
            "--lib", str(tmp_path / "cells.lib"),
            "--engine", "fallback", "--paths", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "degradation counters" in captured.out
        assert "AWEWireModel" in captured.out


class TestSlowTier:
    def _model(self):
        from repro.design import ElmoreWireModel

        return ElmoreWireModel()

    def test_answers_are_untouched(self):
        import numpy as np

        from repro.rcnet import chain_net

        net = chain_net(6)
        loads = np.array([2e-15])
        injector = FaultInjector(seed=4)
        slow = injector.slow_tier(self._model(), delay_s=0.0,
                                  sleep=lambda s: None)
        direct = self._model().wire_timing(net, 20e-12, loads, 100.0)
        wrapped = slow.wire_timing(net, 20e-12, loads, 100.0)
        np.testing.assert_array_equal(direct[0], wrapped[0])
        np.testing.assert_array_equal(direct[1], wrapped[1])

    def test_only_every_nth_call_stalls(self):
        import numpy as np

        from repro.rcnet import chain_net

        net = chain_net(5)
        loads = np.array([2e-15])
        slept = []
        injector = FaultInjector(seed=4)
        slow = injector.slow_tier(self._model(), delay_s=0.01, every=3,
                                  sleep=slept.append)
        for _ in range(9):
            slow.wire_timing(net, 20e-12, loads, 100.0)
        assert slow.calls == 9
        assert len(slept) == 3 == len(slow.delays_injected)

    def test_jittered_delays_are_seed_deterministic(self):
        import numpy as np

        from repro.rcnet import chain_net

        net = chain_net(5)
        loads = np.array([2e-15])

        def campaign():
            slept = []
            slow = FaultInjector(seed=21).slow_tier(
                self._model(), delay_s=0.005, jitter_s=0.01,
                sleep=slept.append)
            for _ in range(6):
                slow.wire_timing(net, 20e-12, loads, 100.0)
            return slept

        first, second = campaign(), campaign()
        assert first == second
        assert all(0.005 <= delay < 0.015 for delay in first)

    def test_invalid_parameters_rejected(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.slow_tier(self._model(), delay_s=-1.0)
        with pytest.raises(ValueError):
            injector.slow_tier(self._model(), delay_s=0.1, every=0)
