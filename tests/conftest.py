"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.liberty import make_default_library
from repro.rcnet import chain_net, random_nontree_net, random_tree_net


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def library():
    return make_default_library()


@pytest.fixture
def small_chain():
    """10-node uniform RC ladder with known closed-form Elmore delays."""
    return chain_net(10, resistance=100.0, cap=2e-15)


@pytest.fixture
def tree_net(rng):
    return random_tree_net(rng, n_nodes=20, n_sinks=4, name="t")


@pytest.fixture
def nontree_net(rng):
    return random_nontree_net(rng, n_nodes=20, n_sinks=4, n_loops=3, name="nt")


@pytest.fixture
def encoder_packs(monkeypatch):
    """The net count of every GNNTrans encoder pack run during the test."""
    from repro.core.gnntrans import GNNTrans

    packs = []
    encode = GNNTrans.encode

    def spy(model, batch):
        packs.append(len(batch.names))
        return encode(model, batch)

    monkeypatch.setattr(GNNTrans, "encode", spy)
    return packs


@pytest.fixture
def heads_stacks(monkeypatch):
    """The net count of every stacked GNNTrans heads call run during the
    test."""
    from repro.core.gnntrans import GNNTrans

    stacks = []
    heads_stack = GNNTrans.heads_stack

    def spy(model, nets, paths):
        stacks.append(len(nets))
        return heads_stack(model, nets, paths)

    monkeypatch.setattr(GNNTrans, "heads_stack", spy)
    return stacks
