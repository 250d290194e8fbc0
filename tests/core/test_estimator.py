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


def _slew_free_inputs(netlist, stage):
    """``(net, sink_loads, drive, context)`` of a stage, as STA binds it."""
    from repro.features import NetContext

    net = netlist.nets[stage.net]
    cell = netlist.gates[stage.gate].cell
    context = NetContext(
        input_slew=33e-12, drive_cell=cell,
        load_cells=[netlist.gates[l.gate].cell for l in net.loads])
    return net.rcnet, netlist.sink_loads(net), cell.drive_resistance, context


class TestLearnedBinding:
    """LearnedWireModel.bind does a net's slew-free work once; each call
    is bitwise a fresh build -> scale -> predict at its slew."""

    @pytest.fixture(scope="class")
    def netlist(self):
        from repro.design import generate_benchmark
        from repro.liberty import make_default_library

        return generate_benchmark("WB_DMA", make_default_library(),
                                  scale=1500)

    @pytest.fixture(scope="class")
    def graphsage(self, dataset):
        from repro.baselines import make_baseline_factory

        estimator = WireTimingEstimator(
            FAST, model_factory=make_baseline_factory("graphsage", depth=2))
        estimator.fit(dataset.train[:8], epochs=1)
        return estimator

    @pytest.mark.parametrize("which", ["gnntrans", "graphsage"])
    def test_binding_equals_fresh_prediction(self, request, which, dataset,
                                             netlist):
        from dataclasses import replace

        from repro.features import build_net_sample

        estimator = request.getfixturevalue(
            "fitted" if which == "gnntrans" else which)
        stage = max((s for p in netlist.paths for s in p.stages),
                    key=lambda s: netlist.nets[s.net].fanout)
        net, loads, drive, context = _slew_free_inputs(netlist, stage)
        assert net.num_sinks > 1
        binding = LearnedWireModel(estimator, dataset.scaler).bind(
            net, loads, drive, context)
        slews = [20e-12, 5e-12, 80e-12, 20e-12, 41.5e-12, 150e-12]
        np.random.default_rng(3).shuffle(slews)
        for slew in slews:
            delays, out_slews = binding(slew)
            sample = build_net_sample(
                net, replace(context, input_slew=slew), labeled=False)
            sample = dataset.scaler.transform([sample])[0]
            slew_ps, delay_ps = estimator.predict_sample(sample)
            np.testing.assert_array_equal(delays, delay_ps * 1e-12)
            np.testing.assert_array_equal(out_slews, slew_ps * 1e-12)
            assert estimator.last_tier == "model"

    def test_cold_sta_builds_once_per_net_driver_and_encodes_once_per_size(
            self, fitted, dataset, netlist, monkeypatch):
        """The cold pass binds every net in one call: one sample per
        (net, driver) and one encoder pack per distinct node count."""
        from repro.core import estimator as estimator_module
        from repro.core.gnntrans import GNNTrans
        from repro.design import STAEngine
        from repro.design.sta import resolve_arc_pin

        calls = {"build": 0, "encode": 0}
        build, encode = estimator_module.build_net_sample, GNNTrans.encode

        def counting_build(*args, **kwargs):
            calls["build"] += 1
            return build(*args, **kwargs)

        def counting_encode(model, sample):
            calls["encode"] += 1
            return encode(model, sample)

        monkeypatch.setattr(estimator_module, "build_net_sample",
                            counting_build)
        monkeypatch.setattr(GNNTrans, "encode", counting_encode)
        report = STAEngine(netlist, LearnedWireModel(
            fitted, dataset.scaler)).analyze_design()
        pairs, stages = set(), set()
        for path, timing in zip(netlist.paths, report.paths):
            slew = 20e-12
            for stage, result in zip(path.stages, timing.stages):
                cell = netlist.gates[stage.gate].cell
                pairs.add((stage.net, cell.name))
                stages.add((stage.net, cell.name,
                            resolve_arc_pin(cell, stage.input_pin), slew))
                slew = result.slew_out
        assert len(stages) > len(pairs)  # nets are entered at many slews
        sizes = {netlist.nets[net].rcnet.num_nodes for net, _ in pairs}
        assert len(sizes) < len(pairs)  # some packs hold several nets
        assert calls == {"build": len(pairs), "encode": len(sizes)}


class TestFitAfterEvalMode:
    """Eval mode turns parameter gradients off; a later fit must still
    reach and update every parameter."""

    def _fit_updates_every_parameter(self, estimator, samples):
        from repro.nn.optim import Adam
        from repro.nn.trainer import Trainer

        model = estimator.model
        assert not model.training

        def loss_fn(module, batch):
            slew, delay = module(module.pack(batch))
            return (slew * slew).sum() + (delay * delay).sum()

        before = [p.data.copy() for p in model.parameters()]
        Trainer(model, Adam(model.parameters(), lr=1e-3), loss_fn).fit(
            samples, epochs=1, batch_size=4)
        unchanged = [i for i, (p, old) in enumerate(
            zip(model.parameters(), before)) if np.array_equal(p.data, old)]
        assert not unchanged

    def test_after_fit(self, fitted, dataset):
        import copy

        self._fit_updates_every_parameter(copy.deepcopy(fitted),
                                          dataset.train[:8])

    def test_after_load(self, fitted, dataset, tmp_path):
        path = str(tmp_path / "model.npz")
        fitted.save(path)
        clone = WireTimingEstimator(FAST)
        clone.load(path, num_node_features=8, num_path_features=10)
        self._fit_updates_every_parameter(clone, dataset.train[:8])
