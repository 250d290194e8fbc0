"""ECO timing: net edits, dirty propagation, stale-cache regressions.

The headline invariant under test is the **parity contract**: after any
sequence of edits, :class:`ECOTimingEngine` results are bitwise identical
to a cold full :class:`STAEngine` pass over the edited netlist.
"""

import numpy as np
import pytest

from repro.analysis import GoldenTimer
from repro.design import (DesignSpec, ECOTimingEngine, EditCommand,
                          ElmoreWireModel, Gate, GoldenWireModel,
                          IncrementalSTAEngine, LoadPin, Netlist, PathStage,
                          STAEngine, TimingPath, apply_edit_command,
                          compare_timing, generate_design, load_edit_script)
from repro.design.netlist import DesignNet
from repro.liberty import Cell, TimingArc, make_default_library
from repro.rcnet import RCNetBuilder
from repro.robustness import FallbackChain
from repro.robustness.errors import (InputError, ModelError,
                                     NumericalError)


@pytest.fixture(scope="module")
def library():
    return make_default_library()


@pytest.fixture(scope="module")
def learned():
    """A small fitted ``LearnedWireModel`` (GNNTrans, 2 epochs)."""
    from repro.core import (GNNTransConfig, LearnedWireModel,
                            WireTimingEstimator)
    from repro.data import generate_dataset

    dataset = generate_dataset(train_names=["PCI_BRIDGE"],
                               test_names=["WB_DMA"], scale=2000,
                               nets_per_design=6, seed=11)
    estimator = WireTimingEstimator(GNNTransConfig(
        l1=1, l2=1, hidden=8, num_heads=2, head_hidden=(16,), epochs=2))
    estimator.fit(dataset.train, epochs=2)
    return LearnedWireModel(estimator, dataset.scaler)


@pytest.fixture
def design(library):
    return generate_design(
        DesignSpec("eco", n_combinational=30, n_ffs=5, n_paths=8, seed=11),
        library)


def _stub_net(name, n_sinks=1):
    builder = RCNetBuilder(name)
    builder.add_node(f"{name}:0", cap=0.3e-15)
    builder.set_source(f"{name}:0")
    for i in range(n_sinks):
        builder.add_node(f"{name}:{i + 1}", cap=0.25e-15)
        builder.add_edge(f"{name}:0", f"{name}:{i + 1}",
                         resistance=30.0 + 5.0 * i)
        builder.add_sink(f"{name}:{i + 1}")
    return builder.build()


def _two_arc_cell(library):
    """A two-input cell whose A and B arcs have genuinely different tables.

    The default library characterizes every pin of a cell identically, so
    a cache key that forgot the input pin would still produce the right
    numbers there.  Borrowing the X1 tables for pin A and the X4 tables
    for pin B makes the two arcs observably different.
    """
    slow = library.cell("INV_X1").arcs["A"]
    fast = library.cell("INV_X4").arcs["A"]
    return Cell(name="NAND2_AB", function="NAND2", drive_strength=2,
                num_inputs=2, input_cap=1.2e-15, drive_resistance=1400.0,
                arcs={"A": TimingArc("A", slow.delay, slow.output_slew),
                      "B": TimingArc("B", fast.delay, fast.output_slew)})


def _two_arc_netlist(library):
    """ff0 -CK-> n0 -> g1 (two-arc cell) -> n1 -> ff1, one path per arc."""
    netlist = Netlist("two_arc")
    netlist.add_gate(Gate("ff0", library.cell("DFF_X1")))
    netlist.add_gate(Gate("g1", _two_arc_cell(library)))
    netlist.add_gate(Gate("ff1", library.cell("DFF_X1")))
    netlist.add_net(DesignNet("n0", driver="ff0",
                              loads=[LoadPin("g1", "A")],
                              rcnet=_stub_net("n0")))
    netlist.add_net(DesignNet("n1", driver="g1",
                              loads=[LoadPin("ff1", "D")],
                              rcnet=_stub_net("n1")))
    netlist.add_path(TimingPath("via_a", [PathStage("ff0", "CK", "n0", 0),
                                          PathStage("g1", "A", "n1", 0)]))
    netlist.add_path(TimingPath("via_b", [PathStage("ff0", "CK", "n0", 0),
                                          PathStage("g1", "B", "n1", 0)]))
    return netlist


class TestStageKeyCarriesInputPin:
    """Regression: the stage-cache key must include the resolved arc pin.

    The old key was ``(net, cell, slew)``: two paths entering the same
    gate through different arcs at the same input slew collided, and the
    second silently replayed the first's timing.  Both paths here reach
    g1 at the identical slew (same launch stage), so under the old key
    ``via_b`` would be served ``via_a``'s numbers and diverge from a
    cold pass — exactly what this test rejects.
    """

    def test_distinct_arcs_do_not_share_an_entry(self, library):
        netlist = _two_arc_netlist(library)
        engine = IncrementalSTAEngine(netlist, ElmoreWireModel())
        via_a, via_b = engine.analyze_paths()
        # The arcs have different tables, so sharing would be observable.
        assert via_a.arrival != via_b.arrival
        # Each result is bitwise what a cold engine computes for it.
        cold = STAEngine(netlist, ElmoreWireModel(), lenient_pins=False)
        assert via_a.arrival == cold.path_arrival(netlist.paths[0]).arrival
        assert via_b.arrival == cold.path_arrival(netlist.paths[1]).arrival

    def test_cache_holds_one_entry_per_arc(self, library):
        netlist = _two_arc_netlist(library)
        engine = IncrementalSTAEngine(netlist, ElmoreWireModel())
        engine.analyze_paths()
        pins = {key[2] for key in engine._cache if key[0] == "n1"}
        assert pins == {"A", "B"}

    def test_second_pass_still_hits(self, library):
        netlist = _two_arc_netlist(library)
        engine = IncrementalSTAEngine(netlist, ElmoreWireModel())
        first = [p.arrival for p in engine.analyze_paths()]
        misses = engine.misses
        second = [p.arrival for p in engine.analyze_paths()]
        assert engine.misses == misses
        assert first == second


class TestStrictPinResolution:
    """Regression: a stage pin with no timing arc must not silently fall
    back to the cell's first arc unless the caller opted in."""

    def _netlist_with_bad_pin(self, library):
        netlist = _two_arc_netlist(library)
        netlist.paths[1] = TimingPath(
            "bad", [PathStage("ff0", "CK", "n0", 0),
                    PathStage("g1", "Z", "n1", 0)])
        return netlist

    def test_strict_engine_raises_typed_error(self, library):
        netlist = self._netlist_with_bad_pin(library)
        engine = IncrementalSTAEngine(netlist, ElmoreWireModel(),
                                      lenient_pins=False)
        with pytest.raises(InputError, match="no timing arc for pin 'Z'"):
            engine.analyze_paths()

    def test_error_carries_provenance(self, library):
        netlist = self._netlist_with_bad_pin(library)
        engine = IncrementalSTAEngine(netlist, ElmoreWireModel(),
                                      lenient_pins=False)
        with pytest.raises(InputError) as excinfo:
            engine.analyze_paths()
        message = str(excinfo.value)
        assert "n1" in message and "lenient_pins" in message

    def test_lenient_optin_times_through_first_arc(self, library):
        netlist = self._netlist_with_bad_pin(library)
        lenient = IncrementalSTAEngine(netlist, ElmoreWireModel(),
                                       lenient_pins=True)
        results = lenient.analyze_paths()
        # Legacy behavior: pin Z resolves to the first arc, which is A.
        assert results[1].arrival == results[0].arrival

    def test_sta_engine_strict_mode_raises_too(self, library):
        netlist = self._netlist_with_bad_pin(library)
        strict = STAEngine(netlist, ElmoreWireModel(), lenient_pins=False)
        with pytest.raises(InputError, match="no timing arc"):
            strict.analyze_design()


class _NaNWireModel(ElmoreWireModel):
    """Elmore timing with every wire delay replaced by NaN."""

    def wire_timing(self, net, input_slew, sink_loads, drive_resistance,
                    context=None):
        delays, slews = super().wire_timing(net, input_slew, sink_loads,
                                            drive_resistance, context)
        return np.full_like(delays, np.nan), slews


class _BrokenWireModel(ElmoreWireModel):
    def wire_timing(self, *args, **kwargs):
        raise RuntimeError("solver exploded")


class TestStageChecks:
    """Regression: ECO stages skipped the cold pass's checks, so a NaN
    reached ECO results silently, wire-model crashes surfaced untyped,
    and every stage carried ``tier=None``."""

    def test_nan_wire_timing_raises_numerical_error(self, library):
        netlist = _two_arc_netlist(library)
        with pytest.raises(NumericalError) as excinfo:
            ECOTimingEngine(netlist, _NaNWireModel()).full_pass()
        assert excinfo.value.net == "n0"
        assert excinfo.value.design == netlist.name

    def test_raising_wire_model_raises_model_error(self, library):
        netlist = _two_arc_netlist(library)
        with pytest.raises(ModelError, match="solver exploded") as excinfo:
            ECOTimingEngine(netlist, _BrokenWireModel()).full_pass()
        assert excinfo.value.net == "n0"
        assert excinfo.value.design == netlist.name

    def test_stages_carry_the_serving_tier(self, library):
        netlist = _two_arc_netlist(library)
        engine = ECOTimingEngine(netlist,
                                 FallbackChain([ElmoreWireModel()]))
        results = engine.full_pass()
        assert {s.tier for p in results for s in p.stages} == \
            {"ElmoreWireModel"}
        assert engine.verify_parity() == []

    def test_slew_model_matches_cold_pass(self, design):
        golden = GoldenWireModel()
        incremental = IncrementalSTAEngine(design, ElmoreWireModel(),
                                           slew_model=golden)
        cold = STAEngine(design, ElmoreWireModel(), slew_model=golden,
                         lenient_pins=False).analyze_design()
        assert compare_timing(incremental.analyze_paths(), cold.paths) == []

    def test_parity_compares_tiers(self, library):
        netlist = _two_arc_netlist(library)
        engine = ECOTimingEngine(netlist, ElmoreWireModel())
        results = engine.full_pass()
        cold = STAEngine(netlist, ElmoreWireModel()).analyze_design().paths
        cold[0].stages[1].tier = "label-prior"
        assert compare_timing(results, cold) == [
            "path 'via_a' stage 1: tier None != 'label-prior'"]


class TestReverseLoadIndex:
    """Regression: gate invalidation used an O(nets x loads) scan; the
    reverse index must agree with that scan exactly."""

    def _scan_loaded_nets(self, netlist, gate_name):
        return {net.name for net in netlist.nets.values()
                if any(load.gate == gate_name for load in net.loads)}

    def test_index_matches_scan_for_every_gate(self, design):
        for gate_name in design.gates:
            assert set(design.nets_loaded_by(gate_name)) == \
                self._scan_loaded_nets(design, gate_name)

    def test_index_tracks_buffer_insertion(self, design, library):
        net_name = design.paths[0].stages[0].net
        design.insert_buffer(net_name, 0, library.cell("BUF_X2"))
        for gate_name in design.gates:
            assert set(design.nets_loaded_by(gate_name)) == \
                self._scan_loaded_nets(design, gate_name)

    def test_invalidation_set_identical_to_scan(self, design):
        engine = IncrementalSTAEngine(design, ElmoreWireModel())
        engine.analyze_paths()
        victim = design.paths[0].stages[1].gate
        stale = self._scan_loaded_nets(design, victim)
        driven = design.net_driven_by(victim)
        if driven is not None:
            stale.add(driven.name)
        before = set(engine._cache)
        expected_dropped = {key for key in before if key[0] in stale}
        dropped = engine.invalidate_gate(victim)
        assert before - set(engine._cache) == expected_dropped
        assert dropped == len(expected_dropped)


class TestNetEditAPI:
    def test_resize_dirties_driven_and_loaded_nets(self, design, library):
        victim = next(g for g in design.gates.values()
                      if not g.is_sequential and g.cell.drive_strength == 1)
        stronger = library.cell(f"{victim.cell.function}_X2")
        edit = design.resize_gate(victim.name, stronger)
        assert design.gates[victim.name].cell is stronger
        expected = set(design.nets_loaded_by(victim.name))
        driven = design.net_driven_by(victim.name)
        if driven is not None:
            expected.add(driven.name)
        assert set(edit.dirty_nets) == expected
        assert edit.rewritten_paths == ()
        assert edit.details["new_cell"] == stronger.name

    def test_resize_rejects_cell_missing_arcs(self, design, library):
        victim = next(g for g in design.gates.values()
                      if g.cell.num_inputs == 2 and not g.is_sequential)
        with pytest.raises(InputError, match="lacks timing arcs"):
            design.resize_gate(victim.name, library.cell("INV_X4"))

    def test_resize_allows_arcless_load_pins(self, design, library):
        # A flip-flop's capture D pin has no timing arc; resizing the FF
        # must still be legal (the pin is capacitance-only).
        ff = next(g for g in design.gates.values() if g.is_sequential)
        edit = design.resize_gate(ff.name, library.cell("DFF_X2"))
        assert edit.kind == "resize_gate"

    def test_resize_unknown_gate(self, design, library):
        with pytest.raises(InputError, match="unknown gate"):
            design.resize_gate("nope", library.cell("INV_X1"))

    def test_reconnect_rewrites_downstream_stage_pin(self, library):
        netlist = _two_arc_netlist(library)
        edit = netlist.reconnect_sink("n0", 0, "B")
        assert netlist.nets["n0"].loads[0].pin == "B"
        assert edit.dirty_nets == ()
        assert set(edit.rewritten_paths) == {0, 1}
        assert all(p.stages[1].input_pin == "B" for p in netlist.paths)

    def test_reconnect_requires_an_arc(self, library):
        netlist = _two_arc_netlist(library)
        with pytest.raises(InputError, match="no arc for pin 'Q'"):
            netlist.reconnect_sink("n0", 0, "Q")

    def test_scale_swaps_rcnet_and_keeps_old(self, library):
        netlist = _two_arc_netlist(library)
        old = netlist.nets["n0"].rcnet
        edit = netlist.scale_net_rc("n0", r_factor=2.0, c_factor=0.5)
        assert edit.old_rcnet is old
        assert edit.dirty_nets == ("n0",)
        assert netlist.nets["n0"].rcnet is not old

    def test_scale_unknown_net(self, library):
        netlist = _two_arc_netlist(library)
        with pytest.raises(InputError, match="unknown net"):
            netlist.scale_net_rc("n9")

    def test_insert_buffer_rewires_sink_and_paths(self, library):
        netlist = _two_arc_netlist(library)
        edit = netlist.insert_buffer("n1", 0, library.cell("BUF_X2"))
        buf = edit.details["buffer_gate"]
        stub = edit.details["new_net"]
        assert netlist.nets["n1"].loads[0] == LoadPin(buf, "A")
        assert netlist.nets[stub].loads == [LoadPin("ff1", "D")]
        assert edit.dirty_nets == ("n1",)
        assert set(edit.rewritten_paths) == {0, 1}
        for path in netlist.paths:
            assert len(path.stages) == 3
            assert path.stages[2] == PathStage(buf, "A", stub, 0)
        # The edited netlist still times cleanly with a cold engine.
        report = STAEngine(netlist, ElmoreWireModel(),
                           lenient_pins=False).analyze_design()
        assert all(np.isfinite(report.arrivals()))

    def test_insert_buffer_bad_sink_index(self, library):
        netlist = _two_arc_netlist(library)
        with pytest.raises(InputError, match="out of range"):
            netlist.insert_buffer("n1", 3, library.cell("BUF_X2"))


class TestEditScripts:
    def _document(self, edits):
        return {"schema": "repro-eco-edits/1", "edits": edits}

    def test_roundtrip_all_ops(self, library):
        netlist = _two_arc_netlist(library)
        commands = load_edit_script(self._document([
            {"op": "scale_net_rc", "net": "n0", "r_factor": 1.2},
            {"op": "reconnect_sink", "net": "n0", "sink_index": 0,
             "new_pin": "B"},
            {"op": "insert_buffer", "net": "n1", "sink_index": 0,
             "cell": "BUF_X2"},
        ]))
        assert [c.op for c in commands] == ["scale_net_rc",
                                            "reconnect_sink",
                                            "insert_buffer"]
        assert commands[0].params["c_factor"] == 1.0  # defaulted
        for command in commands:
            edit = apply_edit_command(netlist, library, command)
            assert edit.kind == command.op

    def test_wrong_schema_rejected(self):
        with pytest.raises(InputError, match="schema"):
            load_edit_script({"schema": "repro-eco-edits/0", "edits": []})

    def test_unknown_op_rejected(self):
        with pytest.raises(InputError, match="unknown op"):
            load_edit_script(self._document([{"op": "demolish"}]))

    def test_missing_field_rejected(self):
        with pytest.raises(InputError, match="missing field 'cell'"):
            load_edit_script(self._document([{"op": "resize_gate",
                                              "gate": "g1"}]))

    def test_bool_is_not_an_int(self):
        with pytest.raises(InputError, match="sink_index"):
            load_edit_script(self._document(
                [{"op": "reconnect_sink", "net": "n0", "sink_index": True,
                  "new_pin": "B"}]))

    def test_unknown_cell_surfaces_as_input_error(self, library):
        netlist = _two_arc_netlist(library)
        command = EditCommand("resize_gate", {"gate": "g1",
                                              "cell": "UNOBTAINIUM_X9"})
        with pytest.raises(InputError, match="resize_gate"):
            apply_edit_command(netlist, library, command)


def _random_edit(netlist, library, rng):
    """One random applicable edit; returns its NetEdit record."""
    op = rng.choice(["resize", "scale", "reconnect", "buffer"])
    if op == "resize":
        name = str(rng.choice(sorted(netlist.gates)))
        gate = netlist.gates[name]
        strength = int(rng.choice([1, 2] if gate.is_sequential
                                  else [1, 2, 4, 8]))
        return netlist.resize_gate(
            name, library.cell(f"{gate.cell.function}_X{strength}"))
    net_name = str(rng.choice(sorted(netlist.nets)))
    net = netlist.nets[net_name]
    if net.fanout == 0:
        op = "scale"
    if op == "scale":
        return netlist.scale_net_rc(
            net_name, r_factor=float(rng.uniform(0.7, 1.4)),
            c_factor=float(rng.uniform(0.7, 1.4)))
    sink = int(rng.integers(net.fanout))
    if op == "buffer":
        return netlist.insert_buffer(net_name, sink,
                                     library.cell("BUF_X2"))
    load = net.loads[sink]
    pins = sorted(netlist.gates[load.gate].cell.arcs)
    return netlist.reconnect_sink(net_name, sink, str(rng.choice(pins)))


def _random_script_parity(library, seed, wire_model):
    """Apply 8 random edits through ECO; return the parity problems."""
    rng = np.random.default_rng(seed)
    netlist = generate_design(
        DesignSpec(f"eco_prop{seed}", n_combinational=24, n_ffs=4,
                   n_paths=6, seed=50 + seed), library)
    engine = ECOTimingEngine(netlist, wire_model)
    engine.full_pass()
    applied = 0
    for _ in range(60):
        if applied == 8:
            break
        try:
            edit = _random_edit(netlist, library, rng)
        except InputError:
            continue  # e.g. resize target lacking the drawn arcs
        engine.apply(edit)
        applied += 1
    assert applied == 8
    return engine.verify_parity()


class TestParityContract:
    """Property: random edit scripts preserve bitwise parity with a cold
    full pass — arrivals, totals, and per-stage breakdowns."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_edit_script_is_bitwise_identical(self, library, seed):
        assert _random_script_parity(library, seed, ElmoreWireModel()) == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_learned_random_edit_script_is_bitwise_identical(
            self, library, learned, seed):
        """The learned model's per-net bindings are dropped with the
        edited nets, so replay still equals a cold pass bitwise."""
        assert _random_script_parity(library, seed, learned) == []

    def test_parity_holds_after_every_single_edit(self, library):
        netlist = _two_arc_netlist(library)
        engine = ECOTimingEngine(netlist, ElmoreWireModel())
        engine.full_pass()
        for edit in (netlist.scale_net_rc("n0", c_factor=1.3),
                     netlist.reconnect_sink("n1", 0, "CK"),
                     netlist.insert_buffer("n0", 0,
                                           library.cell("BUF_X4"))):
            engine.apply(edit)
            assert engine.verify_parity() == []

    def test_apply_before_full_pass_rejected(self, library):
        netlist = _two_arc_netlist(library)
        engine = ECOTimingEngine(netlist, ElmoreWireModel())
        edit = netlist.scale_net_rc("n0", c_factor=1.1)
        with pytest.raises(InputError, match="full_pass"):
            engine.apply(edit)


class TestDirtyConeReuse:
    """A single-net edit must re-time only the paths crossing that net,
    serving everything upstream of the edit from the warm memo."""

    def _target_net(self, design, engine):
        total = len(design.paths)
        for path in design.paths:
            name = path.stages[-1].net
            if 0 < len(engine.cone([name])) < total:
                return name
        pytest.skip("generated design has no partially-shared net")

    def test_retimed_set_is_exactly_the_cone(self, design):
        engine = ECOTimingEngine(design, ElmoreWireModel())
        engine.full_pass()
        target = self._target_net(design, engine)
        cone = engine.cone([target])
        outcome = engine.apply(design.scale_net_rc(target, c_factor=1.1))
        assert set(outcome.retimed_paths) == cone
        assert outcome.cone_size < len(design.paths)
        assert engine.verify_parity() == []

    def test_upstream_stages_served_from_memo(self, design):
        engine = ECOTimingEngine(design, ElmoreWireModel())
        engine.full_pass()
        target = self._target_net(design, engine)
        misses_before = engine.engine.misses
        outcome = engine.apply(design.scale_net_rc(target, c_factor=1.1))
        # Hit-rate floor: every stage strictly upstream of the edited net
        # replays from the memo; only the edit and its downstream slew
        # cone recompute.
        floor = sum(
            next(i for i, s in enumerate(design.paths[p].stages)
                 if s.net == target)
            for p in outcome.retimed_paths)
        assert outcome.stages_reused >= floor
        recomputed = engine.engine.misses - misses_before
        total_stages = sum(len(design.paths[p].stages)
                           for p in outcome.retimed_paths)
        assert outcome.stages_reused + recomputed == total_stages

    def test_counters_advance(self, design):
        from repro.obs import get_metrics

        registry = get_metrics()
        engine = ECOTimingEngine(design, ElmoreWireModel())
        engine.full_pass()
        edits_before = registry.counter("incremental.edits_applied").value
        retimed_before = registry.counter("incremental.paths_retimed").value
        outcome = engine.apply(
            design.scale_net_rc(design.paths[0].stages[0].net,
                                c_factor=1.05))
        assert registry.counter("incremental.edits_applied").value == \
            edits_before + 1
        assert registry.counter("incremental.paths_retimed").value == \
            retimed_before + outcome.cone_size


class TestSolveCacheHygiene:
    def test_rc_rewrite_drops_the_primed_eigensolve(self, library):
        from repro.analysis import configure_solve_cache

        netlist = _two_arc_netlist(library)
        configure_solve_cache(64)  # fresh, enabled, process-wide
        try:
            engine = ECOTimingEngine(netlist,
                                     GoldenWireModel(GoldenTimer()))
            engine.full_pass()
            outcome = engine.apply(
                netlist.scale_net_rc("n0", r_factor=1.5))
            assert outcome.solves_invalidated == 1
            assert engine.verify_parity() == []
        finally:
            configure_solve_cache(512)  # the process-wide default

    def test_non_rc_edit_invalidates_nothing(self, library):
        netlist = _two_arc_netlist(library)
        engine = ECOTimingEngine(netlist, ElmoreWireModel())
        engine.full_pass()
        outcome = engine.apply(netlist.reconnect_sink("n0", 0, "B"))
        assert outcome.solves_invalidated == 0
