"""STA engine: wire models, arrival propagation, runtime split."""

import numpy as np
import pytest

from repro.design import (D2MWireModel, DesignSpec, ElmoreWireModel,
                          GoldenWireModel, STAEngine, compare_timing,
                          generate_design)
from repro.design.sta import resolve_arc_pin


@pytest.fixture
def design(library):
    return generate_design(
        DesignSpec("sta_d", n_combinational=50, n_ffs=6, n_paths=12, seed=11),
        library)


class TestWireModels:
    def test_elmore_upper_bounds_golden(self, design):
        """Elmore wire delay >= golden (quiet) wire delay on tree nets."""
        golden = GoldenWireModel()
        elmore = ElmoreWireModel()
        from repro.analysis import GoldenTimer
        quiet = GoldenWireModel(GoldenTimer(si_mode=False))
        checked = 0
        for net in list(design.nets.values())[:10]:
            if not net.rcnet.is_tree():
                continue
            loads = design.sink_loads(net)
            d_golden, _ = quiet.wire_timing(net.rcnet, 20e-12, loads, 100.0)
            d_elmore, _ = elmore.wire_timing(net.rcnet, 20e-12, loads, 100.0)
            assert np.all(d_elmore >= d_golden * 0.999)
            checked += 1
        assert checked > 0

    def test_d2m_below_elmore(self, design):
        d2m = D2MWireModel()
        elmore = ElmoreWireModel()
        net = next(iter(design.nets.values()))
        loads = design.sink_loads(net)
        d_d2m, _ = d2m.wire_timing(net.rcnet, 20e-12, loads, 100.0)
        d_elm, _ = elmore.wire_timing(net.rcnet, 20e-12, loads, 100.0)
        assert np.all(d_d2m <= d_elm * 1.0000001)

    def test_model_names(self):
        assert GoldenWireModel().name == "GoldenWireModel"
        assert ElmoreWireModel().name == "ElmoreWireModel"


class TestSTAEngine:
    def test_arrival_is_sum_of_stages(self, design):
        engine = STAEngine(design, ElmoreWireModel())
        timing = engine.path_arrival(design.paths[0])
        total = sum(s.gate_delay + s.wire_delay for s in timing.stages)
        assert timing.arrival == pytest.approx(total)
        assert timing.gate_delay_total + timing.wire_delay_total == \
            pytest.approx(timing.arrival)

    def test_arrivals_positive_and_plausible(self, design):
        engine = STAEngine(design, GoldenWireModel())
        report = engine.analyze_design()
        arrivals = report.arrivals()
        assert len(arrivals) == len(design.paths)
        assert np.all(arrivals > 0.0)
        assert np.all(arrivals < 10e-9)  # well under a clock period

    def test_runtime_split_reported(self, design):
        report = STAEngine(design, GoldenWireModel()).analyze_design()
        assert report.wire_seconds > 0.0
        assert report.gate_seconds > 0.0
        assert report.total_seconds == pytest.approx(
            report.gate_seconds + report.wire_seconds)

    def test_elmore_wire_model_is_faster_than_golden(self, design):
        golden = STAEngine(design, GoldenWireModel()).analyze_design()
        elmore = STAEngine(design, ElmoreWireModel()).analyze_design()
        assert elmore.wire_seconds < golden.wire_seconds

    def test_golden_vs_elmore_arrival_correlated(self, design):
        golden = STAEngine(design, GoldenWireModel()).analyze_design()
        elmore = STAEngine(design, ElmoreWireModel()).analyze_design()
        a, b = golden.arrivals(), elmore.arrivals()
        assert np.corrcoef(a, b)[0, 1] > 0.95

    def test_invalid_launch_slew(self, design):
        with pytest.raises(ValueError):
            STAEngine(design, ElmoreWireModel(), launch_slew=0.0)


class TestSlewModelProtocol:
    """The Table V protocol: wire delays from one engine, slews/operating
    points from another (the sign-off reference)."""

    def test_golden_slew_model_matches_golden_when_delays_also_golden(
            self, design):
        golden = GoldenWireModel()
        plain = STAEngine(design, golden).analyze_design().arrivals()
        split = STAEngine(design, golden,
                          slew_model=golden).analyze_design().arrivals()
        np.testing.assert_allclose(plain, split, rtol=1e-12)

    def test_slew_model_decouples_slew_errors(self, design):
        """With golden slews, Elmore-based arrival error shrinks to the
        pure wire-delay error (no slew compounding through gate tables)."""
        golden = GoldenWireModel()
        reference = STAEngine(design, golden).analyze_design().arrivals()
        self_consistent = STAEngine(
            design, ElmoreWireModel()).analyze_design().arrivals()
        protocol = STAEngine(
            design, ElmoreWireModel(),
            slew_model=golden).analyze_design().arrivals()
        err_self = np.max(np.abs(self_consistent - reference))
        err_protocol = np.max(np.abs(protocol - reference))
        assert err_protocol <= err_self + 1e-15


class _CountingElmore(ElmoreWireModel):
    """Elmore wire model that counts its ``wire_timing`` calls."""

    def __init__(self):
        self.calls = 0

    def wire_timing(self, *args, **kwargs):
        self.calls += 1
        return super().wire_timing(*args, **kwargs)


class TestStageMemo:
    """One analysis times each distinct (net, cell, pin, input slew) stage
    once, and replaying a memoized stage changes no result bit."""

    def _distinct_stage_keys(self, design, report, launch_slew=20e-12):
        keys = set()
        for path, timing in zip(design.paths, report.paths):
            slew = launch_slew
            for stage, result in zip(path.stages, timing.stages):
                cell = design.gates[stage.gate].cell
                keys.add((stage.net, cell.name,
                          resolve_arc_pin(cell, stage.input_pin), slew))
                slew = result.slew_out
        return keys

    def test_wire_model_called_once_per_distinct_stage(self, design):
        model = _CountingElmore()
        report = STAEngine(design, model).analyze_design()
        visits = sum(len(p.stages) for p in report.paths)
        distinct = self._distinct_stage_keys(design, report)
        assert len(distinct) < visits  # the paths share prefixes
        assert model.calls == len(distinct)

    @pytest.mark.parametrize("slew_model", [None, GoldenWireModel()],
                             ids=["self-consistent", "golden-slews"])
    def test_full_pass_bitwise_equals_paths_timed_alone(self, design,
                                                        slew_model):
        engine = STAEngine(design, ElmoreWireModel(), slew_model=slew_model)
        report = engine.analyze_design()
        alone = [engine.path_arrival(path) for path in design.paths]
        assert compare_timing(report.paths, alone) == []
        np.testing.assert_array_equal(report.arrivals(),
                                      [p.arrival for p in alone])

    def test_resize_between_calls_matches_fresh_engine(self, design,
                                                       library):
        engine = STAEngine(design, ElmoreWireModel())
        before = engine.analyze_design()
        victim = next(
            design.gates[s.gate] for path in design.paths
            for s in path.stages
            if not design.gates[s.gate].is_sequential
            and design.gates[s.gate].cell.drive_strength < 8)
        design.resize_gate(victim.name, library.cell(
            f"{victim.cell.function}_X{victim.cell.drive_strength * 2}"))
        after = engine.analyze_design()
        fresh = STAEngine(design, ElmoreWireModel()).analyze_design()
        assert compare_timing(after.paths, fresh.paths) == []
        assert not np.array_equal(after.arrivals(), before.arrivals())
