"""Incremental STA: cache correctness and invalidation."""

import numpy as np
import pytest

from repro.design import (DesignSpec, ElmoreWireModel, Gate,
                          GoldenWireModel, IncrementalSTAEngine, STAEngine,
                          generate_design)


@pytest.fixture
def design(library):
    return generate_design(
        DesignSpec("inc", n_combinational=40, n_ffs=6, n_paths=10, seed=17),
        library)


@pytest.fixture(scope="module")
def library():
    from repro.liberty import make_default_library

    return make_default_library()


class TestCacheCorrectness:
    def test_matches_cold_engine(self, design):
        """Incremental results equal the plain engine's on a cold cache."""
        plain = STAEngine(design, ElmoreWireModel()).analyze_design()
        incremental = IncrementalSTAEngine(design, ElmoreWireModel())
        results = incremental.analyze_paths()
        np.testing.assert_array_equal([p.arrival for p in results],
                                      plain.arrivals())

    def test_second_pass_hits_cache(self, design):
        engine = IncrementalSTAEngine(design, ElmoreWireModel())
        engine.analyze_paths()
        misses_first = engine.misses
        engine.analyze_paths()
        assert engine.misses == misses_first  # everything reused
        assert engine.hit_rate > 0.4

    def test_repeat_pass_identical(self, design):
        engine = IncrementalSTAEngine(design, ElmoreWireModel())
        a = [p.arrival for p in engine.analyze_paths()]
        b = [p.arrival for p in engine.analyze_paths()]
        np.testing.assert_array_equal(a, b)


class TestInvalidation:
    def _upsize(self, design, library, gate_name):
        gate = design.gates[gate_name]
        stronger = f"{gate.cell.function}_X{gate.cell.drive_strength * 2}"
        design.gates[gate_name] = Gate(gate_name, library.cell(stronger))

    def test_gate_swap_reflected_after_invalidation(self, design, library):
        engine = IncrementalSTAEngine(design, ElmoreWireModel())
        before = [p.arrival for p in engine.analyze_paths()]

        # Upsize any upsizable combinational gate on a recorded path.
        victim = next(
            s.gate for path in design.paths for s in path.stages
            if not design.gates[s.gate].is_sequential
            and design.gates[s.gate].cell.drive_strength < 8)
        self._upsize(design, library, victim)
        dropped = engine.invalidate_gate(victim)
        assert dropped >= 1

        after = engine.analyze_paths()
        fresh = IncrementalSTAEngine(design, ElmoreWireModel()).analyze_paths()
        np.testing.assert_array_equal([p.arrival for p in after],
                                      [p.arrival for p in fresh])

    def test_invalidate_covers_loaded_nets(self, design):
        """Invalidation drops entries for nets the gate loads, not just the
        one it drives (its pin capacitance affects upstream timing)."""
        engine = IncrementalSTAEngine(design, ElmoreWireModel())
        engine.analyze_paths()
        some_load = None
        for net in design.nets.values():
            for load in net.loads:
                if not design.gates[load.gate].is_sequential:
                    some_load = load.gate
                    break
            if some_load:
                break
        dropped = engine.invalidate_gate(some_load)
        assert dropped >= 0  # no stale entries may remain
        # After invalidation a re-analysis still matches a cold engine.
        after = engine.analyze_paths()
        fresh = IncrementalSTAEngine(design, ElmoreWireModel()).analyze_paths()
        np.testing.assert_array_equal([p.arrival for p in after],
                                      [p.arrival for p in fresh])

    def test_clear(self, design):
        engine = IncrementalSTAEngine(design, ElmoreWireModel())
        engine.analyze_paths()
        engine.clear()
        assert engine._cache == {}


class TestConcurrency:
    """The ECO stage memo is shared between serve threads and edit threads;
    the timing math must stay correct while both run at once."""

    def test_parallel_analysis_matches_cold_engine(self, design):
        import threading

        engine = IncrementalSTAEngine(design, ElmoreWireModel())
        results = {}
        errors = []
        barrier = threading.Barrier(4)

        def analyze(index):
            try:
                barrier.wait(timeout=10.0)
                results[index] = [p.arrival for p in engine.analyze_paths()]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=analyze, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        fresh = [p.arrival
                 for p in IncrementalSTAEngine(
                     design, ElmoreWireModel()).analyze_paths()]
        for arrivals in results.values():
            np.testing.assert_array_equal(arrivals, fresh)
        # Concurrent same-key misses may double-compute (documented), so
        # hits+misses can exceed one pass's stage count — but the counters
        # themselves must not lose updates: every lookup is accounted.
        stages = sum(len(p.stages) for p in design.paths)
        assert engine.hits + engine.misses == 4 * stages

    def test_analysis_races_invalidation_without_corruption(self, design):
        import threading

        engine = IncrementalSTAEngine(design, ElmoreWireModel())
        net_names = list(design.nets)[:8]
        stop = threading.Event()
        errors = []

        def invalidate_loop():
            try:
                while not stop.is_set():
                    engine.invalidate_nets(net_names)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        churn = threading.Thread(target=invalidate_loop)
        churn.start()
        try:
            for _ in range(3):
                arrivals = [p.arrival for p in engine.analyze_paths()]
        finally:
            stop.set()
            churn.join(timeout=30.0)
        assert not errors
        fresh = [p.arrival
                 for p in IncrementalSTAEngine(
                     design, ElmoreWireModel()).analyze_paths()]
        np.testing.assert_array_equal(arrivals, fresh)
