"""Jobs-invariance: every parallel entry point must match its serial run.

The ISSUE-level contract of the parallel layer is that ``jobs`` is purely a
throughput knob: golden labels, evaluation metrics and STA arrivals are
bitwise identical whatever the worker count, because every per-net random
stream is derived from the workload seed (``SeedSequence.spawn``), never
from worker identity or scheduling order.
"""

import numpy as np
import pytest

from repro.core import (GNNTransConfig, LearnedWireModel,
                        WireTimingEstimator)
from repro.data import generate_dataset
from repro.design import (DesignSpec, ElmoreWireModel, STAEngine,
                          generate_design)
from repro.liberty import make_default_library

DATASET_KW = dict(train_names=["PCI_BRIDGE"], test_names=["WB_DMA"],
                  scale=2000, nets_per_design=6, seed=11)

TINY = GNNTransConfig(l1=1, l2=1, hidden=8, num_heads=2, head_hidden=(16,),
                      epochs=4, learning_rate=5e-3)


def _assert_samples_equal(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert a.name == b.name
        assert a.design == b.design
        assert a.is_tree == b.is_tree
        np.testing.assert_array_equal(a.node_features, b.node_features)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)
        assert len(a.paths) == len(b.paths)
        for pa, pb in zip(a.paths, b.paths):
            assert pa.sink == pb.sink
            assert pa.node_indices == pb.node_indices
            np.testing.assert_array_equal(pa.features, pb.features)
            assert pa.label_slew == pb.label_slew
            assert pa.label_delay == pb.label_delay
            assert pa.input_slew_ps == pb.input_slew_ps


class TestDatasetJobsInvariance:
    @pytest.fixture(scope="class")
    def serial(self):
        return generate_dataset(n_jobs=1, **DATASET_KW)

    @pytest.fixture(scope="class")
    def pooled(self):
        return generate_dataset(n_jobs=2, **DATASET_KW)

    def test_labels_bitwise_identical(self, serial, pooled):
        _assert_samples_equal(serial.train, pooled.train)
        _assert_samples_equal(serial.test, pooled.test)

    def test_skip_records_identical(self, serial, pooled):
        assert serial.skipped == pooled.skipped

    def test_scaler_statistics_identical(self, serial, pooled):
        for key, value in serial.scaler.state().items():
            other = pooled.scaler.state()[key]
            np.testing.assert_array_equal(np.asarray(value),
                                          np.asarray(other))


class TestEvaluateJobsInvariance:
    def test_metrics_identical(self):
        dataset = generate_dataset(n_jobs=1, **DATASET_KW)
        estimator = WireTimingEstimator(TINY)
        estimator.fit(dataset.train, epochs=TINY.epochs, verbose=False)
        serial = estimator.evaluate(dataset.test, jobs=1)
        pooled = estimator.evaluate(dataset.test, jobs=2)
        assert serial.r2_slew == pooled.r2_slew
        assert serial.r2_delay == pooled.r2_delay
        assert serial.max_err_slew_ps == pooled.max_err_slew_ps
        assert serial.max_err_delay_ps == pooled.max_err_delay_ps
        assert serial.num_paths == pooled.num_paths


class TestSTAJobsInvariance:
    def test_arrivals_and_tiers_identical(self):
        library = make_default_library()
        design = generate_design(
            DesignSpec("par", n_combinational=30, n_ffs=4, n_paths=8,
                       seed=5), library)
        serial = STAEngine(design, ElmoreWireModel()).analyze_design(jobs=1)
        pooled = STAEngine(design, ElmoreWireModel()).analyze_design(jobs=3)
        _assert_sta_equal(serial, pooled)

    def test_learned_arrivals_and_tiers_identical(self):
        dataset = generate_dataset(n_jobs=1, **DATASET_KW)
        estimator = WireTimingEstimator(TINY)
        estimator.fit(dataset.train, epochs=TINY.epochs, verbose=False)
        model = LearnedWireModel(estimator, dataset.scaler)
        design = generate_design(
            DesignSpec("par_learned", n_combinational=30, n_ffs=4,
                       n_paths=8, seed=5), make_default_library())
        serial = STAEngine(design, model).analyze_design(jobs=1)
        pooled = STAEngine(design, model).analyze_design(jobs=2)
        _assert_sta_equal(serial, pooled)
        assert {s.tier for p in serial.paths for s in p.stages} == {"model"}


def _assert_sta_equal(serial, pooled):
    np.testing.assert_array_equal(serial.arrivals(), pooled.arrivals())
    for a, b in zip(serial.paths, pooled.paths):
        assert a.path_name == b.path_name
        assert a.arrival == b.arrival
        assert [s.tier for s in a.stages] == [s.tier for s in b.stages]
