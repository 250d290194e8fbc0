"""Batched spectral engine: bitwise parity with the scalar path.

The batch layer's whole contract is that it is *invisible*: grouping nets
into stacked LAPACK calls, priming caches in bulk, or changing how many
nets share a batch must never change a single bit of any label.  These
tests pin that contract down over random RC trees and non-trees of mixed
sizes (2-32 nodes), plus the explicitly non-bitwise ``pow2`` mode and the
per-net error-isolation guarantees.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import GoldenTimer
from repro.analysis.awe import awe2_timing, configure_awe_cache
from repro.analysis.batch import (BatchedEigenEngine, GoldenNetJob,
                                  SolveRequest, WirePrimeRequest,
                                  golden_analyze_many, prime_awe,
                                  prime_solve_cache)
from repro.analysis.cache import SolveCache, configure_solve_cache, solve_key
from repro.analysis.mna import capacitance_vector
from repro.analysis.simulator import EigenSolve, WireTimingResult
from repro.features.path_features import (NetAnalysis, analyze_net_features,
                                          analyze_nets_for_features)
from repro.robustness.errors import InputError
from repro.rcnet import random_net, random_tree_net


@pytest.fixture(autouse=True)
def _isolated_caches():
    """Fresh process-wide caches per test so priming effects don't leak."""
    configure_solve_cache(512)
    configure_awe_cache(512)
    yield
    configure_solve_cache(512)
    configure_awe_cache(512)


def _mixed_nets(seed, count=12, lo=2, hi=32):
    """Random tree/non-tree nets spanning many size buckets."""
    rng = np.random.default_rng(seed)
    nets = []
    for i in range(count):
        n_nodes = int(rng.integers(lo, hi + 1))
        if n_nodes < 6:
            nets.append(random_tree_net(rng, n_nodes, name=f"t{i}"))
        else:
            nets.append(random_net(rng, name=f"m{i}",
                                   n_nodes_range=(n_nodes, n_nodes)))
    return nets


def _jobs_for(nets, rng, si_mode=True):
    jobs = []
    for net in nets:
        timer = GoldenTimer(drive_resistance=float(rng.uniform(50.0, 300.0)),
                            si_mode=si_mode)
        loads = rng.uniform(0.5e-15, 4e-15, size=net.num_sinks)
        slew = float(rng.uniform(5e-12, 60e-12))
        jobs.append(GoldenNetJob(timer, net, slew, loads))
    return jobs


def _assert_same_timing(a: WireTimingResult, b: WireTimingResult):
    assert a.source_slew == b.source_slew
    assert np.array_equal(a.delays(), b.delays())
    assert np.array_equal(a.slews(), b.slews())


class TestGoldenBatchParity:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_labels_bitwise_equal_scalar(self, seed):
        """Batched golden labels == scalar GoldenTimer.analyze, bit for bit."""
        nets = _mixed_nets(seed)
        jobs = _jobs_for(nets, np.random.default_rng(seed + 1))
        batched = golden_analyze_many(jobs)
        for job, outcome in zip(jobs, batched):
            assert isinstance(outcome, WireTimingResult)
            configure_solve_cache(0)  # force the scalar path to recompute
            scalar = job.timer.analyze(job.net, job.input_slew,
                                       job.sink_loads)
            configure_solve_cache(512)
            _assert_same_timing(outcome, scalar)

    def test_batch_composition_invariance(self):
        """Batch-of-1 results == batch-of-all: no cross-net coupling."""
        nets = _mixed_nets(99, count=10)
        jobs = _jobs_for(nets, np.random.default_rng(100))
        together = golden_analyze_many(jobs)
        for job, outcome in zip(jobs, together):
            configure_solve_cache(512)  # fresh cache per singleton batch
            alone = golden_analyze_many([job])[0]
            _assert_same_timing(outcome, alone)

    def test_precomputed_elmore_changes_nothing(self):
        """GoldenNetJob.elmore (from the feature pass) is a pure shortcut."""
        nets = _mixed_nets(7, count=8)
        jobs = _jobs_for(nets, np.random.default_rng(8))
        plain = golden_analyze_many(jobs)
        analyses = analyze_nets_for_features(
            [(j.net, j.sink_loads) for j in jobs])
        configure_solve_cache(512)
        primed = golden_analyze_many(
            [GoldenNetJob(j.timer, j.net, j.input_slew, j.sink_loads,
                          elmore=a.elmore)
             for j, a in zip(jobs, analyses)])
        for a, b in zip(plain, primed):
            _assert_same_timing(a, b)

    def test_error_isolation(self):
        """One poisoned job yields its typed error; batchmates are clean."""
        nets = _mixed_nets(3, count=4)
        jobs = _jobs_for(nets, np.random.default_rng(4))
        bad_timer = GoldenTimer(drive_resistance=-1.0, si_mode=True)
        bad = GoldenNetJob(bad_timer, nets[0], 20e-12,
                           jobs[0].sink_loads)
        outcomes = golden_analyze_many([jobs[0], bad, jobs[1], jobs[2]])
        assert isinstance(outcomes[0], WireTimingResult)
        assert isinstance(outcomes[1], InputError)
        assert isinstance(outcomes[2], WireTimingResult)
        assert isinstance(outcomes[3], WireTimingResult)
        for job, outcome in zip((jobs[0], jobs[1], jobs[2]),
                                (outcomes[0], outcomes[2], outcomes[3])):
            configure_solve_cache(0)
            scalar = job.timer.analyze(job.net, job.input_slew,
                                       job.sink_loads)
            configure_solve_cache(512)
            _assert_same_timing(outcome, scalar)


class TestEngineCacheContract:
    def _requests(self, seed, count=10):
        rng = np.random.default_rng(seed)
        requests = []
        for net in _mixed_nets(seed, count=count):
            loads = rng.uniform(0.5e-15, 4e-15, size=net.num_sinks)
            caps = capacitance_vector(net, miller_factor=None,
                                      sink_loads=loads)
            requests.append(SolveRequest(net, caps,
                                         float(rng.uniform(50.0, 300.0))))
        return requests

    def test_fanout_addressable_by_scalar_keys(self):
        """Batch results land in the cache under the scalar solve_key."""
        cache = SolveCache(maxsize=512)
        engine = BatchedEigenEngine(cache=cache)
        requests = self._requests(11)
        results = engine.solve_many(requests)
        for request, result in zip(requests, results):
            assert isinstance(result, EigenSolve)
            key = solve_key(request.net, request.caps,
                            request.drive_resistance)
            assert cache.get(key) is result

    def test_duplicate_requests_solved_once(self):
        cache = SolveCache(maxsize=512)
        engine = BatchedEigenEngine(cache=cache)
        requests = self._requests(12, count=4)
        doubled = list(requests) + list(requests)
        results = engine.solve_many(doubled)
        for first, second in zip(results[:4], results[4:]):
            assert isinstance(first, EigenSolve)
            assert second is first  # the repeat resolves through the cache
        assert len(cache) == 4

    def test_eigensolve_bitwise_equals_scalar(self):
        """Stacked eigh slices equal the scalar eigendecompose output."""
        from repro.analysis.mna import conductance_matrix
        from repro.analysis.simulator import eigendecompose

        engine = BatchedEigenEngine(cache=SolveCache(maxsize=0))
        requests = self._requests(13)
        results = engine.solve_many(requests)
        for request, result in zip(requests, results):
            g = conductance_matrix(request.net)
            g[request.net.source, request.net.source] += \
                1.0 / request.drive_resistance
            scalar = eigendecompose(request.net, g, request.caps)
            assert np.array_equal(result.eigenvalues, scalar.eigenvalues)
            assert np.array_equal(result.q, scalar.q)
            assert np.array_equal(result.caps, scalar.caps)

    def test_bad_drive_resistance_is_typed_error(self):
        requests = self._requests(15, count=3)
        broken = SolveRequest(requests[0].net, requests[0].caps, -5.0)
        engine = BatchedEigenEngine(cache=SolveCache(maxsize=0))
        results = engine.solve_many([requests[1], broken, requests[2]])
        assert isinstance(results[0], EigenSolve)
        assert isinstance(results[1], InputError)
        assert isinstance(results[2], EigenSolve)


class TestStackedMatmulSlices:
    """Learned STA runs the heads of many nets of one path count on a
    (B, P, d) stack, which ECO parity needs to equal each net's stack of
    one bitwise.  numpy's stacked matmul makes one BLAS call per slice, so
    it does; a numpy or BLAS build that batches the slices differently
    fails here first."""

    @staticmethod
    def _head_weights():
        from repro.core import DEFAULT_CONFIG, GNNTrans
        from repro.features import NUM_NODE_FEATURES, NUM_PATH_FEATURES

        heads = GNNTrans(NUM_NODE_FEATURES, NUM_PATH_FEATURES,
                         DEFAULT_CONFIG).heads
        return [layer.weight.data for mlp in (heads.slew_mlp, heads.delay_mlp)
                for layer in mlp.layers]

    @pytest.mark.parametrize("paths", [1, 2, 3, 4, 5, 6, 7, 8, 16, 29, 40])
    def test_each_slice_equals_its_stack_of_one(self, paths):
        rng = np.random.default_rng(paths)
        for weight in self._head_weights():
            for nets in (2, 3, 9, 40):
                stack = rng.normal(size=(nets, paths, weight.shape[0]))
                out = stack @ weight
                for b in range(nets):
                    alone = stack[b:b + 1].copy() @ weight
                    assert out[b].tobytes() == alone[0].tobytes(), \
                        (paths, weight.shape, nets, b)


class TestPrimePasses:
    def test_prime_awe_matches_cold_scalar(self):
        """Primed AWE lookups return bitwise what a cold call computes."""
        rng = np.random.default_rng(21)
        nets = _mixed_nets(21, count=10, lo=3)
        requests = [WirePrimeRequest(
            net, rng.uniform(0.5e-15, 4e-15, size=net.num_sinks),
            float(rng.uniform(50.0, 300.0))) for net in nets]
        cold = []
        configure_awe_cache(0)
        for request in requests:
            cold.append(awe2_timing(request.net, request.sink_loads,
                                    nodes=list(request.net.sinks)))
        configure_awe_cache(512)
        primed = prime_awe(requests)
        assert primed == len(requests)
        for request, (cold_delays, cold_slews) in zip(requests, cold):
            delays, slews = awe2_timing(request.net, request.sink_loads,
                                        nodes=list(request.net.sinks))
            assert np.array_equal(delays, cold_delays)
            assert np.array_equal(slews, cold_slews)

    def test_prime_awe_idempotent(self):
        rng = np.random.default_rng(22)
        nets = _mixed_nets(22, count=5, lo=3)
        requests = [WirePrimeRequest(
            net, rng.uniform(0.5e-15, 4e-15, size=net.num_sinks),
            100.0) for net in nets]
        assert prime_awe(requests) == len(requests)
        assert prime_awe(requests) == 0  # everything already cached

    def test_prime_solve_cache_counts_and_fills(self):
        rng = np.random.default_rng(23)
        nets = _mixed_nets(23, count=6)
        requests = [WirePrimeRequest(
            net, rng.uniform(0.5e-15, 4e-15, size=net.num_sinks),
            float(rng.uniform(50.0, 300.0))) for net in nets]
        cache = configure_solve_cache(512)
        assert prime_solve_cache(requests) == len(requests)
        assert len(cache) == len(requests)


class TestNetAnalysisParity:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_batched_analysis_bitwise_equals_scalar(self, seed):
        """Stacked feature vectors == scalar analyze_net_features."""
        rng = np.random.default_rng(seed)
        nets = _mixed_nets(seed, count=10)
        items = [(net, rng.uniform(0.5e-15, 4e-15, size=net.num_sinks))
                 for net in nets]
        batched = analyze_nets_for_features(items)
        for (net, loads), analysis in zip(items, batched):
            assert isinstance(analysis, NetAnalysis)
            scalar = analyze_net_features(net, sink_loads=loads)
            assert np.array_equal(analysis.elmore, scalar.elmore)
            assert np.array_equal(analysis.d2m, scalar.d2m)
            assert np.array_equal(analysis.downstream, scalar.downstream)

    def test_scalar_analysis_matches_legacy_functions(self):
        """The unified moment pass reproduces elmore_delays/d2m_delays."""
        from repro.analysis import elmore_delays
        from repro.analysis.d2m import d2m_delays
        from repro.analysis.elmore import downstream_caps

        rng = np.random.default_rng(31)
        for net in _mixed_nets(31, count=8):
            loads = rng.uniform(0.5e-15, 4e-15, size=net.num_sinks)
            analysis = analyze_net_features(net, sink_loads=loads)
            assert np.array_equal(analysis.elmore,
                                  elmore_delays(net, sink_loads=loads))
            assert np.array_equal(analysis.d2m,
                                  d2m_delays(net, sink_loads=loads))
            assert np.array_equal(analysis.downstream,
                                  downstream_caps(net, sink_loads=loads))
