"""Fixtures shared by the STA and ECO tests."""

import pytest


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
