"""Ablations of the GNNTrans design choices called out in DESIGN.md.

Each variant removes exactly one mechanism:

* ``no path features``  — Eq. 4 without the engineered path-feature concat
  (the pathway the paper credits for "considering path features directly");
* ``no slew conditioning`` — independent delay head instead of Eq. 6;
* ``GNN only``          — L2 = 0, no global attention (over-smoothing-free
  but near-sighted);
* ``plain aggregation`` — binary mean aggregation instead of the
  resistance-weighted Eq. 1 (GraphSage-style);
* ``mean-only baseline pooling`` — quantifies how much of the baselines'
  accuracy comes from the mean ‖ sum ‖ sink pooling deviation documented
  in DESIGN.md.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import BENCH_CONFIG, BENCH_EPOCHS, emit
from repro.baselines import GraphSageBackbone
from repro.bench import format_table
from repro.core import GNNTransConfig, WireTimingEstimator
from repro.core.heads import TimingHeads
from repro.core.pooling import pool_paths
from repro.data import train_val_split
from repro.features.pipeline import net_arrays, pack_arrays
from repro.nn import Tensor
from repro.nn.layers import Module


class MeanOnlyBaseline(Module):
    """GraphSage baseline with the paper-literal mean-only path pooling."""

    def __init__(self, num_node_features, num_path_features, config, rng):
        super().__init__()
        from repro.baselines.common import NUM_GLOBAL_FEATURES

        self.backbone = GraphSageBackbone(
            num_node_features + NUM_GLOBAL_FEATURES, config.hidden, 4, rng)
        self.heads = TimingHeads(config.hidden, config.head_hidden, rng,
                                 condition_delay_on_slew=False)

    def net_arrays(self, sample):
        return net_arrays(sample, node_inputs=self.backbone.node_inputs,
                          adjacency=self.backbone.operator)

    def pack(self, samples):
        return pack_arrays([self.net_arrays(s) for s in samples])

    def forward(self, batch):
        nodes = self.backbone.encode(Tensor(batch.node_features),
                                     batch.adjacency, batch.node_mask)
        reps = pool_paths(nodes, batch, include_path_features=False,
                          extensive=False)
        return self.heads(reps)


def _fit(dataset, config=None, factory=None, epochs=None):
    estimator = WireTimingEstimator(config or BENCH_CONFIG,
                                    model_factory=factory)
    train, val = train_val_split(dataset.train, 0.1, seed=0)
    estimator.fit(train, val_samples=val,
                  epochs=epochs or BENCH_EPOCHS)
    return estimator


def test_ablations(benchmark, dataset, trained_models, capsys):
    full_metrics = trained_models["GNNTrans"].evaluate(dataset.test)

    variants = {
        "full GNNTrans": full_metrics,
        "no path features": _fit(
            dataset, replace(BENCH_CONFIG, include_path_features=False)
        ).evaluate(dataset.test),
        "no slew conditioning": _fit(
            dataset, replace(BENCH_CONFIG, condition_delay_on_slew=False)
        ).evaluate(dataset.test),
        "absolute slew head (Eq.5 literal)": _fit(
            dataset, replace(BENCH_CONFIG, slew_parameterization="absolute")
        ).evaluate(dataset.test),
        "GNN only (L2=0)": _fit(
            dataset, replace(BENCH_CONFIG, l1=BENCH_CONFIG.total_layers, l2=0)
        ).evaluate(dataset.test),
        "no residual/LN": _fit(
            dataset, replace(BENCH_CONFIG, residual=False, layer_norm=False)
        ).evaluate(dataset.test),
        "mean-only baseline pooling": _fit(
            dataset, factory=lambda nn_, np_, cfg, rng: MeanOnlyBaseline(
                nn_, np_, cfg, rng)
        ).evaluate(dataset.test),
    }

    rows = [[name, m.r2_slew, m.r2_delay, f"{m.max_err_delay_ps:.2f}"]
            for name, m in variants.items()]
    emit(capsys, format_table(
        ["Variant", "slew R2", "delay R2", "delay maxerr (ps)"], rows,
        title="Ablations (test split, all nets)"))

    # The engineered path-feature pathway is the paper's key ingredient:
    # removing it must cost delay accuracy.
    assert variants["full GNNTrans"].r2_delay > \
        variants["no path features"].r2_delay
    # Mean-only pooling caps what a pooled baseline can express.
    assert variants["full GNNTrans"].r2_delay > \
        variants["mean-only baseline pooling"].r2_delay

    benchmark(trained_models["GNNTrans"].evaluate, dataset.test[:10])
