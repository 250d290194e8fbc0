"""The packed model path: one forward pass per pack of nets.

Packed loss and gradients must equal per-net accumulation, packed
``predict`` must equal per-net ``predict_sample``, nets sharing a pack
must not reach each other, and fused attention heads must start from, and
load, the per-head weights they replace.  Binding, the learned STA's
inference, is exact: a net bound in a pack of its node count equals its
pack of one bitwise, as the ECO parity contract needs.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import BASELINE_KINDS, GATLayer, make_baseline_factory
from repro.core import (GNNTrans, GNNTransConfig, LearnedWireModel,
                        MultiHeadSelfAttention, WireTimingEstimator)
from repro.core.estimator import _packed_mse
from repro.core.gnntrans import PooledPaths
from repro.data import generate_dataset
from repro.design import BindRequest, generate_benchmark
from repro.features import PATH_FEATURE_NAMES, NetContext, pack
from repro.liberty import make_default_library
from repro.nn import Tensor
from repro.nn.init import xavier_uniform
from repro.robustness.errors import InputError

TINY = GNNTransConfig(l1=2, l2=1, hidden=16, num_heads=2, head_hidden=(16,),
                      epochs=2, learning_rate=5e-3)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(train_names=["PCI_BRIDGE", "DMA"],
                            test_names=["WB_DMA"], scale=1500,
                            nets_per_design=12)


@pytest.fixture(scope="module")
def mixed(dataset):
    """Eight training nets of different node counts, in a mixed order."""
    by_size = {}
    for sample in dataset.train:
        by_size.setdefault(sample.num_nodes, sample)
    nets = list(by_size.values())[:8]
    assert len({s.num_nodes for s in nets}) == len(nets) == 8
    return nets


@pytest.fixture(scope="module")
def fitted(dataset):
    estimator = WireTimingEstimator(TINY)
    estimator.fit(dataset.train, epochs=2, patience=None)
    return estimator


def _model(kind):
    rng = np.random.default_rng(4)
    if kind == "gnntrans":
        return GNNTrans(8, 10, TINY, rng)
    return make_baseline_factory(kind, depth=2)(8, 10, TINY, rng)


class TestPackedGradientParity:
    @pytest.mark.parametrize("kind", ("gnntrans",) + BASELINE_KINDS)
    def test_minibatch_equals_per_net_accumulation(self, kind, mixed,
                                                   fitted):
        model = _model(kind)
        targets = fitted._targets(mixed)
        packed = _packed_mse(model, targets)
        packed.backward()
        packed_grads = [p.grad.copy() for p in model.parameters()]

        model.zero_grad()
        total = 0.0
        for target in targets:
            slew, delay = model(target.sample)
            loss = (((slew - Tensor(target.slew[None])) ** 2).mean()
                    + ((delay - Tensor(target.delay[None])) ** 2).mean())
            (loss * (1.0 / len(targets))).backward()
            total += loss.item() / len(targets)
        assert packed.item() == pytest.approx(total, rel=1e-10)
        for got, param in zip(packed_grads, model.parameters()):
            np.testing.assert_allclose(got, param.grad, rtol=1e-10,
                                       atol=1e-12)

    def test_padding_does_not_reach_a_net(self, mixed):
        """A net's slice of a pack matches its pack of one."""
        model = _model("gnntrans").eval()
        slew, delay = model(model.pack(mixed))
        for b, sample in enumerate(mixed):
            alone_slew, alone_delay = model(sample)
            paths = sample.num_paths
            np.testing.assert_allclose(slew.data[b, :paths],
                                       alone_slew.data[0], rtol=1e-10)
            np.testing.assert_allclose(delay.data[b, :paths],
                                       alone_delay.data[0], rtol=1e-10)


class TestPackedPredict:
    def test_predict_equals_per_net_predict_sample(self, fitted, dataset):
        slew, delay = fitted.predict(dataset.test)
        per_net = [fitted.predict_sample(s) for s in dataset.test]
        np.testing.assert_allclose(slew, np.concatenate(
            [s for s, _ in per_net]), rtol=1e-10)
        np.testing.assert_allclose(delay, np.concatenate(
            [d for _, d in per_net]), rtol=1e-10)

    def test_provenance_in_sample_order(self, fitted, dataset):
        estimator = copy.deepcopy(fitted)
        estimator.predict(dataset.test)
        names = [r.net for r in
                 estimator.provenance_log[-len(dataset.test):]]
        assert names == [s.name for s in dataset.test]

    def test_pack_plan_is_size_sorted_and_sized(self, fitted, dataset):
        plan = fitted._pack_plan(dataset.test)
        order = [i for indices in plan for i in indices]
        assert sorted(order) == list(range(len(dataset.test)))
        sizes = [dataset.test[i].num_nodes for i in order]
        assert sizes == sorted(sizes)
        assert all(len(p) <= TINY.batch_size for p in plan)


class TestPackIsolation:
    def _one_pack(self, dataset):
        nets = dataset.test[:TINY.batch_size]
        assert len(nets) == TINY.batch_size
        return nets

    def test_nan_node_feature_degrades_only_its_net(self, fitted, dataset):
        nets = self._one_pack(dataset)
        estimator = copy.deepcopy(fitted)
        clean_slew, clean_delay = estimator.predict(nets)
        bad = 3
        features = nets[bad].node_features.copy()
        features[1, 0] = np.nan
        corrupted = list(nets)
        corrupted[bad] = replace(nets[bad], node_features=features)
        slew, delay = estimator.predict(corrupted)

        records = estimator.provenance_log[-len(nets):]
        assert [r.tier for r in records] == [
            "label-prior" if i == bad else "model" for i in range(len(nets))]
        bounds = np.cumsum([0] + [s.num_paths for s in nets])
        for i in range(len(nets)):
            part = slice(bounds[i], bounds[i + 1])
            assert np.all(np.isfinite(slew[part]))
            if i != bad:
                np.testing.assert_array_equal(slew[part], clean_slew[part])
                np.testing.assert_array_equal(delay[part], clean_delay[part])

    def test_raising_net_gets_its_own_error(self, fitted, dataset):
        nets = self._one_pack(dataset)
        estimator = copy.deepcopy(fitted)
        bad = 5
        broken = list(nets)
        broken[bad] = replace(nets[bad], node_features=np.hstack(
            [nets[bad].node_features, nets[bad].node_features]))
        slew, _ = estimator.predict(broken)
        assert np.all(np.isfinite(slew))
        records = estimator.provenance_log[-len(nets):]
        for i, record in enumerate(records):
            assert record.net == nets[i].name
            if i == bad:
                assert record.tier == "label-prior"
                assert record.reason.startswith("inference failed")
                assert f"net='{nets[bad].name}'" in record.reason
            else:
                assert record.tier == "model"


class TestFusedHeads:
    def test_attention_weights_are_the_per_head_draws(self):
        features, heads = 16, 4
        attention = MultiHeadSelfAttention(features, heads,
                                           np.random.default_rng(9))
        rng = np.random.default_rng(9)
        blocks = [xavier_uniform((features, features // heads), rng)
                  for _ in range(3 * heads)]
        np.testing.assert_array_equal(attention.w_qkv.data,
                                      np.hstack(blocks))
        np.testing.assert_array_equal(attention.w_out.weight.data,
                                      xavier_uniform((features, features),
                                                     rng))

    def test_gat_weights_are_the_per_head_draws(self):
        layer = GATLayer(6, 5, 3, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        projections = [xavier_uniform((6, 5), rng) for _ in range(3)]
        sources = [xavier_uniform((5, 1), rng) for _ in range(3)]
        targets = [xavier_uniform((5, 1), rng) for _ in range(3)]
        np.testing.assert_array_equal(layer.projection.data,
                                      np.hstack(projections))
        np.testing.assert_array_equal(layer.attn_src.data, np.stack(sources))
        np.testing.assert_array_equal(layer.attn_dst.data, np.stack(targets))

    def test_masked_padding_keys_get_no_attention(self):
        attention = MultiHeadSelfAttention(8, 2, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 5, 8))
        mask = np.array([[True] * 5, [True, True, True, False, False]])
        out = attention(Tensor(x), mask).data
        alone = attention(Tensor(x[1:, :3]), None).data
        np.testing.assert_allclose(out[1, :3], alone[0], rtol=1e-12)


def _at_slew(paths, scaled_slew):
    """``paths`` with their scaled input-slew feature set to one value."""
    column = PATH_FEATURE_NAMES.index("input_slew")
    out = []
    for path in paths:
        features = path.features.copy()
        features[column] = scaled_slew
        out.append(replace(path, features=features))
    return out


def _bind_requests():
    """A bind request for each net on a WB_DMA path (scale 1500)."""
    netlist = generate_benchmark("WB_DMA", make_default_library(),
                                 scale=1500)
    requests, seen = [], set()
    for stage in (s for p in netlist.paths for s in p.stages):
        if stage.net in seen:
            continue
        seen.add(stage.net)
        net = netlist.nets[stage.net]
        cell = netlist.gates[stage.gate].cell
        requests.append(BindRequest(
            net.rcnet, netlist.sink_loads(net), cell.drive_resistance,
            NetContext(20e-12, cell, [netlist.gates[l.gate].cell
                                      for l in net.loads])))
    return requests


class TestPackInvariantBinding:
    """Bindings are bitwise their pack of one, at every slew."""

    @pytest.fixture(scope="class")
    def same_size(self, dataset):
        """32 nets of one node count with 1 to 7 paths each: one real
        net's graph with perturbed node features, and truncated paths."""
        base = max(dataset.train, key=lambda s: s.num_paths)
        rng = np.random.default_rng(7)
        nets = []
        for i in range(32):
            noise = rng.normal(scale=0.2, size=base.node_features.shape)
            nets.append(replace(base, name=f"{base.name}#{i}",
                                node_features=base.node_features + noise,
                                paths=base.paths[:1 + i % base.num_paths]))
        assert len({net.num_paths for net in nets}) == base.num_paths > 4
        return nets

    @pytest.fixture(scope="class")
    def graphsage(self, dataset):
        estimator = WireTimingEstimator(
            TINY, model_factory=make_baseline_factory("graphsage", depth=2))
        estimator.fit(dataset.train[:8], epochs=1)
        return estimator

    @pytest.mark.parametrize("size", [8, 32])
    def test_gnntrans_pack_equals_each_pack_of_one(self, fitted, same_size,
                                                   size):
        model = fitted.model
        nets = same_size[:size]
        forwards = model.bind_many(nets)
        for slew in (-1.3, 0.0, 0.4, 2.7):
            for net, forward in zip(nets, forwards):
                paths = _at_slew(net.paths, slew)
                alone = model(replace(net, paths=paths))
                for got, want in zip(forward(paths), alone):
                    np.testing.assert_array_equal(got.data, want.data)

    @pytest.mark.parametrize("which", ["fitted", "graphsage"])
    def test_learned_bind_many_equals_per_request_bind(self, request, which,
                                                       dataset):
        requests = _bind_requests()
        sizes = [r.net.num_nodes for r in requests]
        assert len(set(sizes)) < len(sizes)  # some nets share a pack
        model = LearnedWireModel(request.getfixturevalue(which),
                                 dataset.scaler)
        grouped = model.bind_many(requests)
        for slew in (5e-12, 20e-12, 150e-12):
            for bind_args, binding in zip(requests, grouped):
                for got, want in zip(binding(slew),
                                     model.bind(*bind_args)(slew)):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("which", ["fitted", "graphsage"])
    def test_learned_time_many_equals_each_binding_call(
            self, request, which, dataset, heads_stacks):
        """One ``time_many`` over nets of mixed path counts at distinct
        slews equals each binding's own call bitwise: GNNTrans stacks
        each path count's heads, GraphSage runs per-call forwards.  A
        net whose sample cannot be built gets its build error back in
        place, and a net degraded to label-prior changes no stack-mate."""
        model = LearnedWireModel(request.getfixturevalue(which),
                                 dataset.scaler)
        requests = _bind_requests()
        broken = requests[1]
        requests[1] = broken._replace(context=replace(
            broken.context, load_cells=list(broken.context.load_cells) * 2))
        bindings = model.bind_many(requests)
        forward = bindings[4].predictor.forward
        if isinstance(forward, PooledPaths):  # NaN rows: NaN heads output
            forward.pooled = Tensor(np.full(forward.pooled.shape, np.nan))
        else:
            bindings[4].predictor.forward = "degraded for the test"
        calls = [(binding, slew) for binding, slew in zip(
            bindings, np.geomspace(5e-12, 150e-12, len(bindings)))]
        heads_stacks.clear()
        results = model.time_many(calls)
        if which == "fitted":
            counts = {len(binding.paths) for binding in bindings
                      if hasattr(binding, "paths")}
            assert len(heads_stacks) == len(counts) < len(bindings) - 1
        else:
            assert heads_stacks == []
        with pytest.raises(InputError) as excinfo:
            bindings[1](calls[1][1])
        assert results[1] is excinfo.value
        assert results[4][2] == "label-prior"
        assert [r[2] for i, r in enumerate(results) if i not in (1, 4)] \
            == ["model"] * (len(results) - 2)
        for i, (binding, slew) in enumerate(calls):
            if i != 1:
                for got, want in zip(results[i], binding(slew)):
                    np.testing.assert_array_equal(got, want)

    def test_raising_net_degrades_alone(self, fitted, same_size):
        estimator = copy.deepcopy(fitted)
        nets = list(same_size[:8])
        bad = 3
        nets[bad] = replace(nets[bad], node_features=np.hstack(
            [nets[bad].node_features] * 2))
        predictors = estimator.bind_samples(nets)
        for i, (net, predict) in enumerate(zip(nets, predictors)):
            slew, delay, tier = predict(net.paths)
            if i == bad:
                assert tier == "label-prior"
                assert estimator.provenance_log[-1].tier == "label-prior"
                assert f"net='{net.name}'" in \
                    estimator.provenance_log[-1].reason
                continue
            assert tier == "model"
            alone_slew, alone_delay = estimator.predict_sample(net)
            np.testing.assert_array_equal(slew, alone_slew)
            np.testing.assert_array_equal(delay, alone_delay)


def _legacy_state(state, heads):
    """Split fused attention weights into the per-head checkpoint keys."""
    legacy = dict(state)
    for key in [k for k in state if k.endswith("w_qkv")]:
        prefix = key[:-len("w_qkv")]
        blocks = np.split(legacy.pop(key), 3 * heads, axis=1)
        for i, part in enumerate(("query", "key", "value")):
            for k in range(heads):
                legacy[f"{prefix}w_{part}.{k}.weight"] = \
                    blocks[i * heads + k]
    for key in [k for k in state if k.endswith(".projection")]:
        prefix = key[:-len("projection")]
        src = legacy.pop(f"{prefix}attn_src")
        dst = legacy.pop(f"{prefix}attn_dst")
        for k, block in enumerate(np.split(legacy.pop(key), len(src),
                                           axis=1)):
            legacy[f"{prefix}projections.{k}.weight"] = block
            legacy[f"{prefix}attn_src.{k}"] = src[k]
            legacy[f"{prefix}attn_dst.{k}"] = dst[k]
    return legacy


class TestCheckpointMigration:
    @pytest.mark.parametrize("kind, heads", [
        ("gnntrans", TINY.num_heads), ("gat", 2), ("transformer", 4)])
    def test_per_head_checkpoint_loads_bitwise(self, kind, heads, mixed):
        trained = _model(kind)
        for param in trained.parameters():
            param.data += np.random.default_rng(1).normal(
                scale=0.01, size=param.shape)
        state = trained.state_dict()
        legacy = _legacy_state(state, heads)
        assert set(legacy) != set(state)

        fresh = _model(kind)
        fresh.load_state_dict(legacy)
        loaded = fresh.state_dict()
        assert set(loaded) == set(state)
        for key, value in state.items():
            np.testing.assert_array_equal(loaded[key], value)
        batch = trained.pack(mixed)
        for got, want in zip(fresh.eval()(batch), trained.eval()(batch)):
            np.testing.assert_array_equal(got.data, want.data)


def test_pack_layout(mixed):
    batch = pack(mixed)
    n = max(s.num_nodes for s in mixed)
    p = max(s.num_paths for s in mixed)
    assert batch.node_features.shape == (8, n, 8)
    assert batch.adjacency.shape == (8, n, n)
    assert batch.mean_pool.shape == batch.sum_pool.shape == (8, p, n)
    assert batch.path_features.shape == (8, p, 10)
    for b, sample in enumerate(mixed):
        assert batch.node_mask[b].sum() == sample.num_nodes
        assert batch.path_mask[b].sum() == sample.num_paths
        assert not batch.node_features[b, sample.num_nodes:].any()
        np.testing.assert_array_equal(
            batch.adjacency[b, :sample.num_nodes, :sample.num_nodes],
            sample.adjacency)
    assert batch.names == tuple(s.name for s in mixed)
