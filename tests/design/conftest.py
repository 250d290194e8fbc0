"""Fixtures shared by the STA and ECO tests."""

import zlib

import pytest

from repro.design.sta import AWEWireModel, ElmoreWireModel
from repro.robustness import FallbackChain


class HalfFlakyTier(ElmoreWireModel):
    """Elmore x 1.01 on the nets whose name hashes even; raises on the rest."""

    def wire_timing(self, net, *args, **kwargs):
        if zlib.crc32(net.name.encode()) % 2:
            raise RuntimeError(f"flaky tier refuses {net.name}")
        delays, slews = super().wire_timing(net, *args, **kwargs)
        return delays * 1.01, slews * 1.01


@pytest.fixture
def flaky_chain():
    """A ladder whose first tier fails on a fixed half of the nets."""
    return FallbackChain([HalfFlakyTier(), AWEWireModel()])


@pytest.fixture(scope="module")
def learned():
    """A small fitted ``LearnedWireModel`` (GNNTrans, 2 epochs)."""
    from repro.core import (GNNTransConfig, LearnedWireModel,
                            WireTimingEstimator)
    from repro.data import generate_dataset

    dataset = generate_dataset(train_names=["PCI_BRIDGE"],
                               test_names=["WB_DMA"], scale=2000,
                               nets_per_design=6, seed=11)
    estimator = WireTimingEstimator(GNNTransConfig(
        l1=1, l2=1, hidden=8, num_heads=2, head_hidden=(16,), epochs=2))
    estimator.fit(dataset.train, epochs=2)
    return LearnedWireModel(estimator, dataset.scaler)
