"""WireTimingEstimator: fit/predict/evaluate/save/load and the STA adapter."""

import numpy as np
import pytest

from repro.core import (GNNTransConfig, LabelScaler, LearnedWireModel,
                        WireTimingEstimator)
from repro.data import generate_dataset

FAST = GNNTransConfig(l1=2, l2=1, hidden=16, num_heads=2, head_hidden=(32,),
                      epochs=30, learning_rate=5e-3)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(train_names=["PCI_BRIDGE", "DMA"],
                            test_names=["WB_DMA"], scale=1200,
                            nets_per_design=30)


@pytest.fixture(scope="module")
def fitted(dataset):
    estimator = WireTimingEstimator(FAST)
    estimator.fit(dataset.train, epochs=30)
    return estimator


class TestLabelScaler:
    def test_roundtrip(self, dataset):
        scaler = LabelScaler().fit(dataset.train)
        slews = np.array([40.0, 80.0])
        delays = np.array([1.0, 3.0])
        ns, nd = scaler.normalize(slews, delays)
        rs, rd = scaler.denormalize(ns, nd)
        np.testing.assert_allclose(rs, slews)
        np.testing.assert_allclose(rd, delays)

    def test_state_roundtrip(self, dataset):
        scaler = LabelScaler().fit(dataset.train)
        clone = LabelScaler.from_state(scaler.state())
        assert clone.slew_mean == scaler.slew_mean
        assert clone.delay_std == scaler.delay_std

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            LabelScaler().fit([])


class TestFitPredict:
    def test_learns_better_than_mean(self, fitted, dataset):
        metrics = fitted.evaluate(dataset.test)
        assert metrics.r2_slew > 0.5
        assert metrics.r2_delay > 0.5
        assert metrics.num_paths == sum(s.num_paths for s in dataset.test)

    def test_history_recorded(self, fitted):
        assert fitted.history is not None
        assert len(fitted.history) > 0

    def test_predict_shapes(self, fitted, dataset):
        sample = dataset.test[0]
        slews, delays = fitted.predict_sample(sample)
        assert slews.shape == (sample.num_paths,)
        slews_all, delays_all = fitted.predict(dataset.test[:5])
        expected = sum(s.num_paths for s in dataset.test[:5])
        assert len(slews_all) == expected == len(delays_all)

    def test_predictions_in_physical_range(self, fitted, dataset):
        slews, delays = fitted.predict(dataset.test)
        assert np.all(np.isfinite(slews))
        assert np.all(np.isfinite(delays))
        # Denormalized to ps: same order of magnitude as labels.
        assert slews.mean() > 1.0
        assert delays.mean() > 0.0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            WireTimingEstimator(FAST).predict([])
        with pytest.raises(ValueError):
            WireTimingEstimator(FAST).fit([])

    def test_throughput_positive(self, fitted, dataset):
        assert fitted.throughput(dataset.test[:5]) > 0.0


class TestPredictModeToggle:
    """predict_sample switches the module tree to eval mode only when it
    is not there already, and hands a training model back in train mode."""

    def test_eval_model_is_not_walked(self, fitted, dataset, monkeypatch):
        from repro.nn.layers import Module

        fitted.model.eval()
        calls = []
        original = Module._set_training

        def counting(module, flag):
            calls.append(flag)
            original(module, flag)

        monkeypatch.setattr(Module, "_set_training", counting)
        fitted.predict_sample(dataset.test[0])
        assert calls == []

    def test_train_mode_restored(self, fitted, dataset):
        fitted.model.train()
        try:
            fitted.predict_sample(dataset.test[0])
            assert fitted.model.training
        finally:
            fitted.model.eval()


class TestPersistence:
    def test_save_load_identical_predictions(self, fitted, dataset, tmp_path):
        path = str(tmp_path / "model.npz")
        fitted.save(path)
        clone = WireTimingEstimator(FAST)
        clone.load(path, num_node_features=8, num_path_features=10)
        for sample in dataset.test[:5]:
            a_s, a_d = fitted.predict_sample(sample)
            b_s, b_d = clone.predict_sample(sample)
            np.testing.assert_allclose(a_s, b_s)
            np.testing.assert_allclose(a_d, b_d)

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            WireTimingEstimator(FAST).save(str(tmp_path / "x.npz"))


class TestLearnedWireModel:
    def test_requires_context(self, fitted, dataset):
        from repro.rcnet import chain_net

        model = LearnedWireModel(fitted, dataset.scaler)
        with pytest.raises(ValueError, match="context"):
            model.wire_timing(chain_net(5), 20e-12, np.zeros(1), 100.0)

    def test_wire_timing_in_sta(self, fitted, dataset, library):
        """End-to-end: the learned model drives STA arrival times close to
        golden."""
        from repro.design import (GoldenWireModel, STAEngine,
                                  generate_benchmark)

        netlist = generate_benchmark("WB_DMA", library, scale=1500)
        learned = STAEngine(netlist,
                            LearnedWireModel(fitted, dataset.scaler))
        golden = STAEngine(netlist, GoldenWireModel())
        a = learned.analyze_design().arrivals()
        b = golden.analyze_design().arrivals()
        assert np.corrcoef(a, b)[0, 1] > 0.95
