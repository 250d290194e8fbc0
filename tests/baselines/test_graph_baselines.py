"""Graph-learning baselines: backbones, factories, DAC20 estimator."""

import numpy as np
import pytest

from repro.baselines import (BASELINE_KINDS, DAC20Estimator, GATBackbone,
                             GCNIIBackbone, GraphBaseline,
                             GraphSageBackbone, GraphTransformerBackbone,
                             baseline_node_inputs, binary_adjacency,
                             laplacian_positional_encoding,
                             make_baseline_factory,
                             symmetric_normalized_adjacency)
from repro.core import GNNTransConfig
from repro.features import NetContext, build_net_sample
from repro.nn import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(3)


@pytest.fixture
def sample(library, rng):
    from repro.rcnet import random_nontree_net

    net = random_nontree_net(rng, 14, n_sinks=3, n_loops=2, name="b")
    ctx = NetContext(22e-12, library.cell("NAND2_X2"),
                     [library.cell("INV_X1")] * net.num_sinks)
    return build_net_sample(net, ctx)


class TestCommonUtilities:
    def test_node_inputs_append_globals(self, sample):
        inputs = baseline_node_inputs(sample)
        assert inputs.shape == (sample.num_nodes, 8 + 3)
        # Broadcast columns are constant across nodes.
        for col in range(8, 11):
            assert np.allclose(inputs[:, col], inputs[0, col])

    def test_binary_adjacency_mean_rows(self, sample):
        mean_adj = binary_adjacency(sample.adjacency)
        rows = mean_adj.sum(axis=1)
        np.testing.assert_allclose(rows[rows > 0], 1.0)

    def test_binary_adjacency_unweighted(self, sample):
        raw = binary_adjacency(sample.adjacency, row_normalize=False)
        assert set(np.unique(raw)) <= {0.0, 1.0}

    def test_symmetric_normalized_spectrum(self, sample):
        p = symmetric_normalized_adjacency(sample.adjacency)
        np.testing.assert_allclose(p, p.T)
        eigenvalues = np.linalg.eigvalsh(p)
        assert eigenvalues.max() <= 1.0 + 1e-9
        assert eigenvalues.min() >= -1.0 - 1e-9

    def test_laplacian_pe_shape_and_padding(self, sample):
        pe = laplacian_positional_encoding(sample.adjacency, 4)
        assert pe.shape == (sample.num_nodes, 4)
        tiny = laplacian_positional_encoding(np.zeros((2, 2)), 4)
        assert tiny.shape == (2, 4)


class TestBackbones:
    @pytest.mark.parametrize("backbone_cls", [
        GraphSageBackbone, GCNIIBackbone, GATBackbone,
        GraphTransformerBackbone])
    def test_shapes_and_gradients(self, backbone_cls, sample, rng):
        backbone = backbone_cls(11, 16, 2, rng)
        x = Tensor(baseline_node_inputs(sample))
        out = backbone(x, sample.adjacency)
        assert out.shape == (sample.num_nodes, 16)
        (out * out).sum().backward()
        assert all(p.grad is not None for p in backbone.parameters())

    @pytest.mark.parametrize("backbone_cls", [
        GraphSageBackbone, GCNIIBackbone, GATBackbone,
        GraphTransformerBackbone])
    def test_layer_count_validated(self, backbone_cls, rng):
        with pytest.raises(ValueError):
            backbone_cls(11, 16, 0, rng)

    def test_sage_ignores_edge_weights(self, sample, rng):
        """Plain GraphSage sees only connectivity: scaling all resistances
        must not change its output (unlike GNNTrans's Eq. 1)."""
        backbone = GraphSageBackbone(11, 16, 2, rng)
        x = Tensor(baseline_node_inputs(sample))
        out1 = backbone(x, sample.adjacency).data
        out2 = backbone(x, sample.adjacency * 7.0).data
        np.testing.assert_allclose(out1, out2)

    def test_gcnii_initial_residual_limits_oversmoothing(self, sample, rng):
        """Even at depth 16, GCNII outputs stay node-distinguishable."""
        backbone = GCNIIBackbone(11, 16, 16, rng)
        x = Tensor(baseline_node_inputs(sample))
        out = backbone(x, sample.adjacency).data
        spread = out.std(axis=0).mean()
        assert spread > 1e-3


class TestFactories:
    def test_all_kinds_construct(self, sample):
        config = GNNTransConfig(l1=2, l2=1, hidden=16, num_heads=2)
        for kind in BASELINE_KINDS:
            factory = make_baseline_factory(kind, depth=2)
            model = factory(8, 10, config, np.random.default_rng(0))
            assert isinstance(model, GraphBaseline)
            slew, delay = model(sample)
            assert slew.shape == (1, sample.num_paths)
            assert delay.shape == (1, sample.num_paths)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_baseline_factory("resnet")


class TestDAC20:
    @pytest.fixture(scope="class")
    def small_dataset(self):
        from repro.data import generate_dataset

        return generate_dataset(train_names=["PCI_BRIDGE"],
                                test_names=["WB_DMA"], scale=1500,
                                nets_per_design=25)

    def test_feature_matrix_shape(self, small_dataset):
        from repro.baselines.dac20 import DAC20_FEATURE_NAMES

        estimator = DAC20Estimator(feature_scaler=small_dataset.scaler)
        sample = small_dataset.train[0]
        feats = estimator.features_for(sample)
        assert feats.shape == (sample.num_paths, len(DAC20_FEATURE_NAMES))
        assert np.all(np.isfinite(feats))

    def test_fit_evaluate(self, small_dataset):
        estimator = DAC20Estimator(feature_scaler=small_dataset.scaler,
                                   n_estimators=40)
        estimator.fit(small_dataset.train)
        metrics = estimator.evaluate(small_dataset.test)
        assert metrics.r2_slew > 0.5
        assert np.isfinite(metrics.r2_delay)

    def test_predict_sample(self, small_dataset):
        estimator = DAC20Estimator(feature_scaler=small_dataset.scaler,
                                   n_estimators=20)
        estimator.fit(small_dataset.train)
        sample = small_dataset.test[0]
        slews, delays = estimator.predict_sample(sample)
        assert slews.shape == (sample.num_paths,)

    def test_unfitted_raises(self, small_dataset):
        with pytest.raises(RuntimeError):
            DAC20Estimator().predict(small_dataset.test)

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            DAC20Estimator().fit([])

    def test_raw_feature_inversion(self, small_dataset):
        """With the scaler provided, DAC20 features must be physical —
        broken-tree Elmore values positive, in ps range."""
        estimator = DAC20Estimator(feature_scaler=small_dataset.scaler)
        feats = np.vstack([estimator.features_for(s)
                           for s in small_dataset.test])
        assert np.all(feats[:, 0] >= 0.0)        # broken elmore
        assert feats[:, 0].max() < 1000.0        # stays in ps territory
        assert np.all(feats[:, 9] > 0.0)         # input slew positive
