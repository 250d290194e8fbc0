"""The eigensolve memo cache: keying, LRU bound, counters, equivalence."""

import numpy as np
import pytest

from repro.analysis import (GoldenTimer, configure_solve_cache,
                            get_solve_cache, solve_key)
from repro.analysis.mna import capacitance_vector
from repro.obs import get_metrics
from repro.rcnet import chain_net, star_net


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test runs against its own cache; restore the default after."""
    configure_solve_cache(8)
    yield
    configure_solve_cache(512)


def _counters():
    registry = get_metrics()
    return (registry.counter("simulator.cache_hits").value,
            registry.counter("simulator.cache_misses").value,
            registry.counter("simulator.cache_evictions").value)


def _key(net, drive_resistance=100.0):
    caps = capacitance_vector(net, miller_factor=None, sink_loads=None)
    return solve_key(net, caps, drive_resistance)


class TestSolveKey:
    def test_content_identical_nets_share_a_key(self):
        # Distinct objects, different names — same (topology, R, C, driver).
        a = chain_net(5, name="a")
        b = chain_net(5, name="b")
        assert _key(a) == _key(b)

    def test_key_changes_with_resistance(self):
        a = chain_net(5, resistance=50.0)
        b = chain_net(5, resistance=51.0)
        assert _key(a) != _key(b)

    def test_key_changes_with_cap(self):
        a = chain_net(5, cap=1e-15)
        b = chain_net(5, cap=2e-15)
        assert _key(a) != _key(b)

    def test_key_changes_with_drive_resistance(self):
        net = chain_net(5)
        assert _key(net, 100.0) != _key(net, 200.0)

    def test_key_changes_with_topology(self):
        assert _key(chain_net(5)) != _key(star_net(3))

    def test_key_changes_with_sink_loads(self):
        net = chain_net(5)
        bare = capacitance_vector(net, miller_factor=None, sink_loads=None)
        loaded = capacitance_vector(net, miller_factor=None,
                                    sink_loads=np.array([4e-15]))
        assert solve_key(net, bare, 100.0) != solve_key(net, loaded, 100.0)


class TestCacheCounters:
    def test_miss_then_hit(self):
        timer = GoldenTimer(si_mode=False)
        net = chain_net(6)
        hits0, misses0, _ = _counters()
        timer.analyze(net, input_slew=20e-12)
        hits1, misses1, _ = _counters()
        assert misses1 == misses0 + 1
        assert hits1 == hits0
        timer.analyze(net, input_slew=20e-12)
        hits2, misses2, _ = _counters()
        assert hits2 == hits1 + 1
        assert misses2 == misses1

    def test_slew_does_not_affect_the_key(self):
        # The ramp time enters the modal response, not the decomposition,
        # so a different input slew on the same net must hit.
        timer = GoldenTimer(si_mode=False)
        net = chain_net(6)
        timer.analyze(net, input_slew=20e-12)
        hits0 = _counters()[0]
        timer.analyze(net, input_slew=40e-12)
        assert _counters()[0] == hits0 + 1

    def test_disabled_cache_never_counts(self):
        configure_solve_cache(0)
        assert not get_solve_cache().enabled
        timer = GoldenTimer(si_mode=False)
        net = chain_net(6)
        before = _counters()
        timer.analyze(net, input_slew=20e-12)
        timer.analyze(net, input_slew=20e-12)
        assert _counters() == before
        assert len(get_solve_cache()) == 0


class TestLRUBound:
    def test_occupancy_never_exceeds_maxsize(self):
        cache = configure_solve_cache(3)
        timer = GoldenTimer(si_mode=False)
        for n in range(2, 10):
            timer.analyze(chain_net(n), input_slew=20e-12)
            assert len(cache) <= 3

    def test_eviction_counter_advances(self):
        configure_solve_cache(2)
        timer = GoldenTimer(si_mode=False)
        evictions0 = _counters()[2]
        for n in range(2, 7):
            timer.analyze(chain_net(n), input_slew=20e-12)
        assert _counters()[2] == evictions0 + 3

    def test_lru_order_evicts_coldest(self):
        configure_solve_cache(2)
        timer = GoldenTimer(si_mode=False)
        a, b, c = chain_net(3), chain_net(4), chain_net(5)
        timer.analyze(a, input_slew=20e-12)   # miss: [a]
        timer.analyze(b, input_slew=20e-12)   # miss: [a, b]
        timer.analyze(a, input_slew=20e-12)   # hit, refreshes a: [b, a]
        timer.analyze(c, input_slew=20e-12)   # miss, evicts b: [a, c]
        hits0 = _counters()[0]
        timer.analyze(a, input_slew=20e-12)
        assert _counters()[0] == hits0 + 1    # a survived
        misses0 = _counters()[1]
        timer.analyze(b, input_slew=20e-12)
        assert _counters()[1] == misses0 + 1  # b was the LRU victim

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            configure_solve_cache(-1)


class TestCachedEquivalence:
    def test_cached_results_bitwise_equal_uncached(self):
        nets = [chain_net(n) for n in (4, 7, 7, 4)] + [star_net(4)]

        configure_solve_cache(0)
        timer = GoldenTimer(si_mode=False)
        uncached = [timer.analyze(net, input_slew=20e-12) for net in nets]

        configure_solve_cache(8)
        timer = GoldenTimer(si_mode=False)
        cached = [timer.analyze(net, input_slew=20e-12) for net in nets]

        for lhs, rhs in zip(uncached, cached):
            np.testing.assert_array_equal(lhs.delays(), rhs.delays())
            np.testing.assert_array_equal(lhs.slews(), rhs.slews())

    def test_repeat_analysis_bitwise_stable(self):
        timer = GoldenTimer(si_mode=False)
        net = chain_net(8)
        first = timer.analyze(net, input_slew=20e-12)
        second = timer.analyze(net, input_slew=20e-12)  # served from cache
        np.testing.assert_array_equal(first.delays(), second.delays())
        np.testing.assert_array_equal(first.slews(), second.slews())


class TestPersistence:
    """The disk tier: warm restarts, corruption tolerance, schema pinning."""

    def _analyze(self, tmp_path, maxsize=8):
        configure_solve_cache(maxsize, persist_dir=str(tmp_path))
        timer = GoldenTimer(si_mode=False)
        return timer.analyze(chain_net(7), input_slew=20e-12)

    def test_inserts_write_npz_files(self, tmp_path):
        self._analyze(tmp_path)
        files = list(tmp_path.glob("*.npz"))
        assert files, "persistent cache wrote no solve files"

    def test_fresh_cache_warm_starts_from_disk(self, tmp_path):
        first = self._analyze(tmp_path)
        registry = get_metrics()
        before = registry.counter("simulator.cache_persist_hits").value
        # A brand-new cache (fresh process stand-in) over the same dir:
        # the solve comes off disk, not from a recompute.
        second = self._analyze(tmp_path)
        after = registry.counter("simulator.cache_persist_hits").value
        assert after > before
        np.testing.assert_array_equal(first.delays(), second.delays())
        np.testing.assert_array_equal(first.slews(), second.slews())

    def test_corrupted_file_degrades_to_recompute(self, tmp_path):
        result = self._analyze(tmp_path)
        valid = {path: path.read_bytes() for path in tmp_path.glob("*.npz")}
        garbage = {path: b"garbage, not a zip archive" for path in valid}
        truncated = {path: data[:len(data) // 2]
                     for path, data in valid.items()}
        for corrupted in (garbage, truncated):
            for path, data in corrupted.items():
                path.write_bytes(data)
            again = self._analyze(tmp_path)
            np.testing.assert_array_equal(result.delays(), again.delays())

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        self._analyze(tmp_path)
        [path] = list(tmp_path.glob("*.npz"))
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["schema"] = np.str_("solve-cache/0")
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        registry = get_metrics()
        before = registry.counter("simulator.cache_persist_misses").value
        self._analyze(tmp_path)
        after = registry.counter("simulator.cache_persist_misses").value
        assert after > before

    def test_unwritable_dir_degrades_to_memory_only(self, tmp_path):
        from repro.analysis.cache import SolveCache

        target = tmp_path / "file-not-dir"
        target.write_text("occupied")
        cache = SolveCache(4, persist_dir=str(target))
        assert cache.persist_dir is None       # degraded, not raised
