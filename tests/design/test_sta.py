"""STA engine: wire models, arrival propagation, runtime split."""

import numpy as np
import pytest

from repro.core import LearnedWireModel
from repro.design import (D2MWireModel, DesignSpec, ElmoreWireModel,
                          GoldenWireModel, IncrementalSTAEngine, STAEngine,
                          compare_timing, generate_benchmark,
                          generate_design)
from repro.design.sta import WireTimingModel, resolve_arc_pin
from repro.robustness import FallbackChain


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

    def test_learned_full_pass_bitwise_equals_paths_timed_alone(
            self, design, learned, encoder_packs, heads_stacks):
        """The pass binds its nets in packs of one node count and runs
        its heads in stacks of one path count; each path timed alone,
        from a fresh memo, binds and times one net at a time."""
        engine = STAEngine(design, learned)
        encoder_packs.clear()  # the fit's packs
        report = engine.analyze_design()
        assert max(encoder_packs) >= 2, encoder_packs
        assert max(heads_stacks) >= 2, heads_stacks
        encoder_packs.clear()
        alone = [engine.path_arrival(path) for path in design.paths]
        assert set(encoder_packs) == {1}
        assert compare_timing(report.paths, alone) == []
        np.testing.assert_array_equal(report.arrivals(),
                                      [p.arrival for p in alone])
        assert {s.tier for p in report.paths for s in p.stages} == {"model"}

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


class _PerCall(WireTimingModel):
    """A model's ``wire_timing`` alone: its default binding calls it, so
    each call builds (and a learned model encodes) its net again."""

    def __init__(self, model):
        self.model = model

    def wire_timing(self, *args, **kwargs):
        return self.model.wire_timing(*args, **kwargs)


class TestLevelBatching:
    """A cold learned pass times its paths level by level: the misses of
    one level run the heads once per path count."""

    @pytest.fixture(scope="class")
    def wb_dma(self):
        from repro.liberty import make_default_library

        return generate_benchmark("WB_DMA", make_default_library(),
                                  scale=2000)

    def _level_path_counts(self, netlist):
        """The (level, path count) pairs of the netlist's stages; a
        learned sample has one wire path per sink."""
        return {(level, netlist.nets[stage.net].rcnet.num_sinks)
                for path in netlist.paths
                for level, stage in enumerate(path.stages)}

    def test_one_heads_stack_per_level_and_path_count(
            self, wb_dma, learned, heads_stacks, monkeypatch):
        bound = len(self._level_path_counts(wb_dma))
        engine = IncrementalSTAEngine(wb_dma, learned)
        heads_stacks.clear()
        engine.analyze_paths()
        assert sum(heads_stacks) == engine.misses
        assert len(heads_stacks) <= bound < engine.misses
        # The guard: heads run once per stage miss under a per-call map.
        time_many = LearnedWireModel.time_many
        monkeypatch.setattr(
            LearnedWireModel, "time_many",
            lambda model, calls: [result for call in calls
                                  for result in time_many(model, [call])])
        heads_stacks.clear()
        IncrementalSTAEngine(wb_dma, learned).analyze_paths()
        assert len(heads_stacks) == engine.misses > bound

    def test_learned_chain_binds_once_and_equals_per_call_walks(
            self, wb_dma, learned, encoder_packs, heads_stacks):
        """The chain binds its learned tier through that tier's own
        ``bind_many`` and times it through its ``time_many``: it encodes
        the packs the bare model encodes, and every stage, tier included,
        equals a ladder whose learned tier builds its net on each call."""
        encoder_packs.clear()
        STAEngine(wb_dma, learned).analyze_design()
        bare_packs = list(encoder_packs)
        encoder_packs.clear()
        heads_stacks.clear()
        chained = STAEngine(wb_dma, FallbackChain([learned])
                            ).analyze_design()
        assert encoder_packs == bare_packs
        assert max(heads_stacks) >= 2, heads_stacks
        encoder_packs.clear()
        walked = STAEngine(wb_dma, FallbackChain(
            [("LearnedWireModel", _PerCall(learned))])).analyze_design()
        assert len(encoder_packs) > len(bare_packs)
        assert compare_timing(chained.paths, walked.paths) == []
        assert {s.tier for p in chained.paths for s in p.stages} == \
            {"LearnedWireModel", "lumped-rc"}
