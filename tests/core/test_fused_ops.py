"""Fused layer ops: bitwise their compositions of primitives, and correct.

Each layer's forward is one tape node with a hand-written backward.  The
compositions of :class:`~repro.nn.Tensor` primitives they replaced live
here as references: each fused op's output and every gradient must equal
its composition's to the bit, on a padded pack and on a pack of one.  A
finite-difference check covers the math itself.  One training step of
every model through the fused ops and one through the references, patched
in, must give bitwise-equal gradients for every parameter, which catches a
contribution reaching a shared input in a new order.
"""

import numpy as np
import pytest

from repro.baselines import BASELINE_KINDS, make_baseline_factory
from repro.core import GNNTrans, GNNTransConfig, MultiHeadSelfAttention
from repro.core.estimator import _packed_mse, _Target
from repro.core.gnn_layer import WeightedSageLayer
from repro.data import generate_dataset
from repro.nn import MLP, LayerNorm, Linear, Tensor, matmul_const


# ----------------------------------------------------------------------
# The compositions the fused ops replace
# ----------------------------------------------------------------------
def composed_linear(self, x):
    out = x @ self.weight
    if self.bias is not None:
        out = out + self.bias
    return out


def composed_mlp(self, x):
    for i, layer in enumerate(self.layers):
        x = layer(x)
        if i < len(self.layers) - 1:
            x = x.relu()
            if self.dropout is not None:
                x = self.dropout(x)
    return x


def composed_layer_norm(self, x):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normalized = centered * ((var + self.eps) ** -0.5)
    return normalized * self.gamma + self.beta


def composed_sage(self, x, adjacency):
    aggregated = matmul_const(adjacency, x)
    out = (self.w_self(x) + self.w_neigh(aggregated)).relu()
    if self.residual:
        out = out + x
    return out


def composed_attend(self, normed, bias):
    qkv = normed @ self.w_qkv
    lead, n = qkv.shape[:-2], qkv.shape[-2]
    rank = len(lead)
    qkv = qkv.reshape(*lead, n, 3, self.num_heads, self.head_dim)
    qkv = qkv.transpose((rank + 1,) + tuple(range(rank))
                        + (rank + 2, rank, rank + 3))
    query, key, value = qkv[0], qkv[1], qkv[2]
    key_t = key.transpose(tuple(range(rank + 1)) + (rank + 2, rank + 1))
    attention = (query @ key_t).softmax(axis=-1, scale=self._scale,
                                        bias=bias)
    heads = attention @ value
    rank = heads.ndim
    multi = heads.transpose(tuple(range(rank - 3))
                            + (rank - 2, rank - 3, rank - 1))
    return self.w_out(multi.reshape(*normed.shape))


COMPOSED = ((Linear, "forward", composed_linear),
            (MLP, "forward", composed_mlp),
            (LayerNorm, "forward", composed_layer_norm),
            (WeightedSageLayer, "forward", composed_sage),
            (MultiHeadSelfAttention, "_attend", composed_attend))


@pytest.fixture
def composed(monkeypatch):
    """Run every layer through its composition of primitives."""
    def install():
        for owner, name, reference in COMPOSED:
            monkeypatch.setattr(owner, name, reference)
    return install


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == \
        np.ascontiguousarray(want).tobytes()


# ----------------------------------------------------------------------
# Inputs: a padded pack and a pack of one
# ----------------------------------------------------------------------
PACKS = {"padded": (7, 5, 3, 6), "one": (5,)}


def node_mask(sizes):
    mask = np.zeros((len(sizes), max(sizes)), dtype=bool)
    for b, size in enumerate(sizes):
        mask[b, :size] = True
    return mask


def node_inputs(rng, sizes, features):
    """(B, N, F) inputs with each net's padded node rows zero."""
    return rng.normal(size=(len(sizes), max(sizes), features)) \
        * node_mask(sizes)[..., None]


def operators(rng, sizes):
    """(B, N, N) row-normalized operators, zero on padding."""
    mask = node_mask(sizes)
    raw = rng.random((len(sizes), max(sizes), max(sizes))) \
        * mask[:, :, None] * mask[:, None, :]
    rows = raw.sum(axis=-1, keepdims=True)
    return raw / np.where(rows == 0.0, 1.0, rows)


def run(module, call, x, upstream):
    """Output, input gradient and parameter gradients of one backward."""
    module.zero_grad()
    x.zero_grad()
    out = call(x)
    out.backward(upstream)
    return [out.data, x.grad] + [p.grad for p in module.parameters()]


CASES = {
    "linear": lambda rng: (Linear(6, 8, rng), 6,
                           lambda m, x, s, a: m(x)),
    "linear_no_bias": lambda rng: (Linear(6, 8, rng, bias=False), 6,
                                   lambda m, x, s, a: m(x)),
    "mlp": lambda rng: (MLP(6, (8, 5), 2, rng), 6, lambda m, x, s, a: m(x)),
    "mlp_dropout": lambda rng: (MLP(6, (8, 5), 2, rng, dropout=0.3), 6,
                                lambda m, x, s, a: m(x)),
    "layer_norm": lambda rng: (LayerNorm(8), 8, lambda m, x, s, a: m(x)),
    "sage_first": lambda rng: (WeightedSageLayer(6, 8, rng), 6,
                               lambda m, x, s, a: m(x, a)),
    "sage_residual": lambda rng: (WeightedSageLayer(8, 8, rng), 8,
                                  lambda m, x, s, a: m(x, a)),
    "attention": lambda rng: (MultiHeadSelfAttention(8, 2, rng), 8,
                              lambda m, x, s, a: m(x, node_mask(s))),
    "attention_no_norm": lambda rng: (
        MultiHeadSelfAttention(8, 4, rng, layer_norm=False), 8,
        lambda m, x, s, a: m(x, node_mask(s))),
}


def _inputs(case, sizes, seed):
    """The case's module, a call of it on one input, and that input.

    Every call draws the same dropout masks.
    """
    rng = np.random.default_rng(seed)
    module, width, forward = CASES[case](rng)
    operator = operators(rng, sizes)
    x = Tensor(node_inputs(rng, sizes, width), requires_grad=True)

    def call(t):
        if getattr(module, "dropout", None) is not None:
            module.dropout.rng = np.random.default_rng(6)
        return forward(module, t, sizes, operator)

    return module, call, x


@pytest.mark.parametrize("pack", sorted(PACKS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_op_is_bitwise_its_composition(case, pack, composed):
    module, call, x = _inputs(case, PACKS[pack], seed=1)
    upstream = np.random.default_rng(2).normal(size=call(x).shape)
    fused = run(module, call, x, upstream)
    composed()
    reference = run(module, call, x, upstream)
    assert len(fused) == len(reference)
    for got, want in zip(fused, reference):
        assert_bits(got, want)


# ----------------------------------------------------------------------
# Finite differences
# ----------------------------------------------------------------------
def numeric_gradient(loss, array, step=1e-6):
    grad = np.zeros_like(array)
    flat, out = array.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        plus = loss()
        flat[i] = keep - step
        minus = loss()
        flat[i] = keep
        out[i] = (plus - minus) / (2.0 * step)
    return grad


@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_op_gradients_match_finite_differences(case):
    module, call, x = _inputs(case, (4, 3), seed=7)
    # Nonzero padded rows: a zero row meets ReLU's kink at a zero bias.
    x = Tensor(np.random.default_rng(9).normal(size=x.shape),
               requires_grad=True)
    weights = np.random.default_rng(8).normal(size=call(x).shape)
    (call(x) * Tensor(weights)).sum().backward()

    def loss():
        return float((call(Tensor(x.data)).data * weights).sum())

    for tensor in [x] + module.parameters():
        np.testing.assert_allclose(
            tensor.grad, numeric_gradient(loss, tensor.data),
            rtol=1e-5, atol=1e-7)


# ----------------------------------------------------------------------
# One training step of every model, fused against composed
# ----------------------------------------------------------------------
CONFIG = GNNTransConfig(l1=2, l2=2, hidden=16, num_heads=2,
                        head_hidden=(16,))


@pytest.fixture(scope="module")
def nets():
    dataset = generate_dataset(train_names=["PCI_BRIDGE", "DMA"],
                               test_names=[], scale=1500,
                               nets_per_design=12)
    by_size = {}
    for sample in dataset.train:
        by_size.setdefault((sample.num_nodes, sample.num_paths), sample)
    chosen = list(by_size.values())[:6]
    assert len({s.num_nodes for s in chosen}) > 1
    assert len({s.num_paths for s in chosen}) > 1
    return chosen


def _model(kind):
    rng = np.random.default_rng(11)
    if kind == "gnntrans":
        return GNNTrans(8, 10, CONFIG, rng)
    return make_baseline_factory(kind, depth=2)(8, 10, CONFIG, rng)


def _step_gradients(kind, samples):
    model = _model(kind)
    targets = [_Target(s, np.array([p.label_slew for p in s.paths]) / 50.0,
                       np.array([p.label_delay for p in s.paths]) / 50.0,
                       model.net_arrays(s)) for s in samples]
    loss = _packed_mse(model, targets)
    loss.backward()
    return [loss.data] + [p.grad for p in model.parameters()]


@pytest.mark.parametrize("size", (6, 1))
@pytest.mark.parametrize("kind", ("gnntrans",) + BASELINE_KINDS)
def test_training_step_gradients_equal_the_composed_step(kind, size, nets,
                                                         composed):
    fused = _step_gradients(kind, nets[:size])
    composed()
    reference = _step_gradients(kind, nets[:size])
    assert len(fused) == len(reference)
    for got, want in zip(fused, reference):
        assert_bits(got, want)

