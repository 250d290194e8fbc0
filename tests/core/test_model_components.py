"""GNNTrans components: GNN layer (Eq. 1), transformer (Eq. 2-3),
pooling (Eq. 4), heads (Eq. 5-6)."""

import numpy as np
import pytest

from repro.core import (GNNModule, GNNTrans, MultiHeadSelfAttention,
                        TimingHeads, TransformerModule, WeightedSageLayer,
                        normalize_adjacency, path_pooling_matrix, pool_paths)
from repro.core.pooling import sink_selection_matrix
from repro.features import NetContext, build_net_sample
from repro.nn import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def sample(library, rng):
    from repro.rcnet import random_nontree_net

    net = random_nontree_net(rng, 15, n_sinks=3, n_loops=2, name="s")
    ctx = NetContext(20e-12, library.cell("INV_X2"),
                     [library.cell("BUF_X1")] * net.num_sinks)
    return build_net_sample(net, ctx)


class TestAdjacencyNormalization:
    def test_row_normalized_rows_sum_to_one(self, sample):
        normed = normalize_adjacency(sample.adjacency, "row")
        rows = normed.sum(axis=1)
        np.testing.assert_allclose(rows[rows > 0], 1.0)

    def test_none_is_identity(self, sample):
        np.testing.assert_allclose(
            normalize_adjacency(sample.adjacency, "none"), sample.adjacency)

    def test_unknown_mode(self, sample):
        with pytest.raises(ValueError):
            normalize_adjacency(sample.adjacency, "sym")


class TestWeightedSageLayer:
    def test_output_shape(self, rng, sample):
        layer = WeightedSageLayer(8, 16, rng)
        out = layer(Tensor(sample.node_features),
                    normalize_adjacency(sample.adjacency))
        assert out.shape == (sample.num_nodes, 16)

    def test_edge_weights_matter(self, rng, sample):
        """Same topology, different resistances => different outputs
        (the 1-WL improvement of Eq. 1 over binary GraphSage)."""
        layer = WeightedSageLayer(8, 16, rng, residual=False)
        x = Tensor(sample.node_features)
        a1 = normalize_adjacency(sample.adjacency, "none")
        a2 = a1 * 2.0
        out1 = layer(x, a1).data
        out2 = layer(x, a2).data
        assert not np.allclose(out1, out2)

    def test_residual_only_when_shapes_match(self, rng):
        assert WeightedSageLayer(16, 16, rng).residual
        assert not WeightedSageLayer(8, 16, rng).residual

    def test_gradients_flow(self, rng, sample):
        module = GNNModule(8, 16, 3, rng)
        out = module(Tensor(sample.node_features), sample.adjacency)
        (out * out).sum().backward()
        for p in module.parameters():
            assert p.grad is not None

    def test_layer_count_validated(self, rng):
        with pytest.raises(ValueError):
            GNNModule(8, 16, 0, rng)


class TestTransformer:
    def test_output_shape_preserved(self, rng):
        attn = MultiHeadSelfAttention(16, 4, rng)
        x = Tensor(np.random.default_rng(0).normal(size=(10, 16)))
        assert attn(x).shape == (10, 16)

    def test_heads_must_divide(self, rng):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(16, 3, rng)

    def test_attention_maps_are_distributions(self, rng):
        attn = MultiHeadSelfAttention(16, 4, rng)
        x = Tensor(np.random.default_rng(0).normal(size=(7, 16)))
        for amap in attn.attention_maps(x):
            assert amap.shape == (7, 7)
            np.testing.assert_allclose(amap.sum(axis=1), 1.0)
            assert np.all(amap >= 0.0)

    def test_global_receptive_field(self, rng):
        """Changing one node's features changes every node's output —
        attention sees the whole net regardless of edges (Section III-D)."""
        attn = MultiHeadSelfAttention(16, 4, rng, layer_norm=False)
        base = np.random.default_rng(1).normal(size=(6, 16))
        x1 = attn(Tensor(base)).data
        perturbed = base.copy()
        perturbed[0] += 5.0
        x2 = attn(Tensor(perturbed)).data
        assert np.all(np.abs(x2 - x1).max(axis=1) > 1e-9)

    def test_stack_depth(self, rng):
        module = TransformerModule(16, 3, 4, rng)
        assert module.num_layers == 3
        x = Tensor(np.random.default_rng(0).normal(size=(5, 16)))
        assert module(x).shape == (5, 16)

    def test_zero_layers_is_identity(self, rng):
        module = TransformerModule(16, 0, 4, rng)
        x = Tensor(np.ones((4, 16)))
        np.testing.assert_allclose(module(x).data, x.data)


class TestPooling:
    def test_mean_matrix_rows(self, sample):
        matrix = path_pooling_matrix(sample, "mean")
        assert matrix.shape == (sample.num_paths, sample.num_nodes)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)

    def test_sum_matrix_rows(self, sample):
        matrix = path_pooling_matrix(sample, "sum")
        for q, path in enumerate(sample.paths):
            assert matrix[q].sum() == pytest.approx(len(path.node_indices))

    def test_sink_selector(self, sample):
        matrix = sink_selection_matrix(sample)
        for q, path in enumerate(sample.paths):
            assert matrix[q, path.sink] == 1.0
            assert matrix[q].sum() == 1.0

    def test_unknown_mode(self, sample):
        with pytest.raises(ValueError):
            path_pooling_matrix(sample, "max")

    def test_eq4_width(self, rng, sample):
        """Eq. 4: width = hidden + path-feature count when concatenating."""
        nodes = Tensor(np.random.default_rng(0).normal(
            size=(sample.num_nodes, 16)))
        pooled = pool_paths(nodes, sample, include_path_features=True)
        assert pooled.shape == (sample.num_paths, 16 + 10)
        plain = pool_paths(nodes, sample, include_path_features=False)
        assert plain.shape == (sample.num_paths, 16)
        extended = pool_paths(nodes, sample, include_path_features=False,
                              extensive=True)
        assert extended.shape == (sample.num_paths, 48)

    def test_mean_pooling_value(self, sample):
        nodes = Tensor(np.arange(sample.num_nodes, dtype=float
                                 ).reshape(-1, 1))
        pooled = pool_paths(nodes, sample, include_path_features=False)
        for q, path in enumerate(sample.paths):
            assert pooled.data[q, 0] == pytest.approx(
                np.mean(path.node_indices))


class TestHeads:
    def test_output_shapes(self, rng):
        heads = TimingHeads(20, (32,), rng)
        reps = Tensor(np.random.default_rng(0).normal(size=(5, 20)))
        slew, delay = heads(reps)
        assert slew.shape == (5,)
        assert delay.shape == (5,)

    def test_delay_conditioned_on_slew(self, rng):
        """Eq. 6: with conditioning, perturbing only the slew-head weights
        changes the delay output."""
        heads = TimingHeads(8, (16,), rng, condition_delay_on_slew=True)
        reps = Tensor(np.random.default_rng(0).normal(size=(4, 8)))
        _, delay_before = heads(reps)
        heads.slew_mlp.layers[0].weight.data += 0.5
        _, delay_after = heads(reps)
        assert not np.allclose(delay_before.data, delay_after.data)

    def test_independent_heads_decoupled(self, rng):
        heads = TimingHeads(8, (16,), rng, condition_delay_on_slew=False)
        reps = Tensor(np.random.default_rng(0).normal(size=(4, 8)))
        _, delay_before = heads(reps)
        heads.slew_mlp.layers[0].weight.data += 0.5
        _, delay_after = heads(reps)
        np.testing.assert_allclose(delay_before.data, delay_after.data)


class TestFullModel:
    def test_forward_shapes(self, rng, sample):
        model = GNNTrans(8, 10)
        slew, delay = model(sample)
        assert slew.shape == (1, sample.num_paths)
        assert delay.shape == (1, sample.num_paths)

    def test_predict_is_eval_and_deterministic(self, sample):
        model = GNNTrans(8, 10)
        a_slew, a_delay = model.predict(sample)
        b_slew, b_delay = model.predict(sample)
        np.testing.assert_allclose(a_slew, b_slew)
        np.testing.assert_allclose(a_delay, b_delay)

    def test_all_parameters_receive_gradients(self, sample):
        from repro.core import GNNTransConfig

        model = GNNTrans(8, 10, GNNTransConfig(l1=2, l2=1, hidden=16,
                                               num_heads=2))
        slew, delay = model(sample)
        ((slew * slew).sum() + (delay * delay).sum()).backward()
        missing = [i for i, p in enumerate(model.parameters())
                   if p.grad is None]
        assert not missing

    def test_path_representation_width(self, sample):
        from repro.core import GNNTransConfig

        cfg = GNNTransConfig(l1=2, l2=1, hidden=16, num_heads=2)
        model = GNNTrans(8, 10, cfg)
        reps = model.path_representations(sample)
        assert reps.shape == (1, sample.num_paths, 16 + 10)

    def test_eval_forward_records_no_tape(self, sample):
        from repro.core import GNNTransConfig

        model = GNNTrans(8, 10, GNNTransConfig(l1=2, l2=1, hidden=16,
                                               num_heads=2))
        taped_slew, taped_delay = model(sample)
        model.eval()
        slew, delay = model(sample)
        for out in (slew, delay):
            assert not out.requires_grad
            assert out._parents == ()
        np.testing.assert_array_equal(slew.data, taped_slew.data)
        np.testing.assert_array_equal(delay.data, taped_delay.data)
        model.train()
        slew, delay = model(sample)
        ((slew * slew).sum() + (delay * delay).sum()).backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_bind_is_forward_at_any_path_features(self, sample):
        from dataclasses import replace

        from repro.core import GNNTransConfig

        model = GNNTrans(8, 10, GNNTransConfig(l1=2, l2=1, hidden=16,
                                               num_heads=2)).eval()
        heads = model.bind(sample)
        for shift in (0.5, -1.0, 0.0):
            other = replace(sample, paths=[
                replace(p, features=p.features + shift)
                for p in sample.paths])
            expected = model(other)
            got = heads(other.paths)
            np.testing.assert_array_equal(got[0].data, expected[0].data)
            np.testing.assert_array_equal(got[1].data, expected[1].data)


class TestPaperDepthConfigs:
    """The full-depth paper plans (L1+L2 = 30 layers) must run end to end
    (training them is GPU-scale, but forward/backward must be sound)."""

    def test_paper_planb_forward_backward(self, sample):
        from repro.core import GNNTrans, paper_plan

        config = paper_plan("PlanB")
        assert (config.l1, config.l2) == (20, 10)
        model = GNNTrans(8, 10, config)
        slew, delay = model(sample)
        ((slew * slew).sum() + (delay * delay).sum()).backward()
        grads = [p.grad is not None for p in model.parameters()]
        assert all(grads)
        # Deep stack must not explode or vanish to NaN.
        import numpy as np
        assert np.all(np.isfinite(slew.data))
        assert np.all(np.isfinite(delay.data))

    def test_all_paper_plans_construct(self):
        from repro.core import GNNTrans, paper_plan

        for plan in ("PlanA", "PlanB", "PlanC"):
            config = paper_plan(plan)
            assert config.total_layers == 30
            model = GNNTrans(8, 10, config)
            assert model.gnn.num_layers == config.l1
            assert model.transformer.num_layers == config.l2
