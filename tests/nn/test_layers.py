"""Layer and Module behaviour: parameter collection, state dicts, shapes."""

import numpy as np
import pytest

from repro.nn import (Dropout, LayerNorm, Linear, MLP, Module, Parameter,
                      Sequential, Tensor)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(4, 7, rng)
        out = layer(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 7)

    def test_no_bias(self, rng):
        layer = Linear(4, 2, rng, bias=False)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_gradient_flows_to_weights(self, rng):
        layer = Linear(3, 2, rng)
        layer(Tensor(np.ones((5, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, [5.0, 5.0])

    def test_parameter_count(self, rng):
        layer = Linear(3, 2, rng)
        assert layer.num_parameters() == 3 * 2 + 2


class TestMLP:
    def test_output_shape(self, rng):
        mlp = MLP(6, [16, 8], 1, rng)
        assert mlp(Tensor(np.ones((10, 6)))).shape == (10, 1)

    def test_parameters_collected_from_list(self, rng):
        mlp = MLP(6, [16, 8], 1, rng)
        # 3 Linear layers, each with weight + bias.
        assert len(mlp.parameters()) == 6

    def test_nonlinearity_present(self, rng):
        """An MLP must not be a pure linear map (ReLU between layers)."""
        mlp = MLP(1, [8], 1, rng)
        xs = np.linspace(-3, 3, 7).reshape(-1, 1)
        ys = mlp(Tensor(xs)).data.reshape(-1)
        # Linear functions satisfy midpoint equality everywhere.
        mid = mlp(Tensor(np.array([[0.0]]))).data[0, 0]
        assert not np.isclose(mid, (ys[0] + ys[-1]) / 2, atol=1e-9)


class TestLayerNorm:
    def test_normalizes_last_axis(self, rng):
        norm = LayerNorm(8)
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(4, 8)))
        out = norm(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradients(self, rng):
        norm = LayerNorm(4)
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        (norm(x) ** 2).sum().backward()
        assert x.grad is not None
        assert norm.gamma.grad is not None


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        drop = Dropout(0.5, rng)
        drop.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_allclose(drop(x).data, 1.0)

    def test_train_mode_scales(self, rng):
        drop = Dropout(0.5, rng)
        x = Tensor(np.ones((100, 100)))
        out = drop(x).data
        # Inverted dropout: surviving entries are scaled by 1/(1-p).
        surviving = out[out > 0]
        np.testing.assert_allclose(surviving, 2.0)
        assert 0.3 < (out > 0).mean() < 0.7

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)


class TestModuleStateDict:
    def _model(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.layers = [Linear(3, 3, rng) for _ in range(2)]
                self.head = MLP(3, [4], 1, rng)

            def forward(self, x):
                for l in self.layers:
                    x = l(x).relu()
                return self.head(x)

        return Net()

    def test_roundtrip(self, rng):
        model = self._model(rng)
        state = model.state_dict()
        model2 = self._model(np.random.default_rng(99))
        before = model2(Tensor(np.ones((2, 3)))).data.copy()
        model2.load_state_dict(state)
        after = model2(Tensor(np.ones((2, 3)))).data
        expected = model(Tensor(np.ones((2, 3)))).data
        assert not np.allclose(before, expected)
        np.testing.assert_allclose(after, expected)

    def test_missing_key_raises(self, rng):
        model = self._model(rng)
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self, rng):
        model = self._model(rng)
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_train_eval_propagates(self, rng):
        model = self._model(rng)
        model.eval()
        assert all(not l.training for l in model.layers)
        model.train()
        assert all(l.training for l in model.layers)

    def test_zero_grad_clears_all(self, rng):
        model = self._model(rng)
        model(Tensor(np.ones((2, 3)))).sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestEvalModeRecordsNoTape:
    """An eval-mode forward builds no autograd graph; train() restores it."""

    def _model(self, rng):
        return Sequential(Linear(3, 4, rng), LayerNorm(4), MLP(4, [5], 1, rng))

    def test_eval_forward_has_no_parents(self, rng):
        model = self._model(rng)
        model.eval()
        out = model(Tensor(np.ones((2, 3))))
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward_fn is None
        assert not any(p.requires_grad for p in model.parameters())

    def test_eval_forward_values_match_train_mode(self, rng):
        model = self._model(rng)
        x = Tensor(rng.normal(size=(2, 3)))
        taped = model(x).data.copy()
        model.eval()
        np.testing.assert_array_equal(model(x).data, taped)

    def test_train_restores_backward_to_every_parameter(self, rng):
        model = self._model(rng)
        model.eval()
        model.train()
        (model(Tensor(np.ones((2, 3)))) ** 2).sum().backward()
        assert all(p.requires_grad for p in model.parameters())
        assert all(p.grad is not None for p in model.parameters())


class TestSequential:
    def test_applies_in_order(self, rng):
        seq = Sequential(Linear(2, 4, rng), Linear(4, 1, rng))
        assert len(seq) == 2
        assert seq(Tensor(np.ones((3, 2)))).shape == (3, 1)
