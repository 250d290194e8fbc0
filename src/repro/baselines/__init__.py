"""Baselines compared against GNNTrans in Tables III, IV and V.

* graph-learning baselines (GCNII, GraphSage, GAT, graph transformer) —
  node representations + mean path pooling + MLP heads, all trained with
  the same :class:`~repro.core.WireTimingEstimator` machinery through the
  factories below;
* the DAC20 baseline [5] — loop breaking + manual features + from-scratch
  gradient-boosted trees.
"""

from typing import Callable

import numpy as np

from ..core.config import GNNTransConfig
from ..nn.layers import Module
from .common import (GLOBAL_FEATURE_COLUMNS, NUM_GLOBAL_FEATURES,
                     GraphBaseline, baseline_node_inputs, binary_adjacency,
                     symmetric_normalized_adjacency)
from .graphsage import GraphSageBackbone, SageLayer
from .gat import GATBackbone, GATLayer
from .gcnii import GCNIIBackbone, GCNIILayer
from .graph_transformer import (GraphTransformerBackbone,
                                laplacian_positional_encoding)
from .tree import RegressionTree
from .gbdt import GradientBoostedTrees
from .loop_breaking import (BrokenTree, break_loops, tree_downstream_caps,
                            tree_elmore_delays, tree_path_to_source)
from .dac20 import DAC20_FEATURE_NAMES, DAC20Estimator, DAC20WireModel

# Default baseline search depth: the CPU-scaled counterpart of the paper's
# L = 20 (same 1/5 ratio as the GNNTrans plan configs).
DEFAULT_BASELINE_DEPTH = 4


def make_baseline_factory(kind: str, depth: int = DEFAULT_BASELINE_DEPTH
                          ) -> Callable[[int, int, GNNTransConfig,
                                         np.random.Generator], Module]:
    """Model factory for :class:`~repro.core.WireTimingEstimator`.

    ``kind`` is one of ``"gcnii"``, ``"graphsage"``, ``"gat"``,
    ``"transformer"``.  The returned factory builds the backbone at the
    requested search depth and wraps it with mean path pooling + MLP heads.
    """
    kind = kind.lower()
    if kind not in _BACKBONES:
        raise ValueError(f"unknown baseline {kind!r}; choose from "
                         f"{sorted(_BACKBONES)}")

    def factory(num_node_features: int, num_path_features: int,
                config: GNNTransConfig, rng: np.random.Generator) -> Module:
        in_features = num_node_features + NUM_GLOBAL_FEATURES
        backbone = _BACKBONES[kind](in_features, config.hidden, depth, rng)
        return GraphBaseline(backbone, config.hidden, rng,
                             head_hidden=config.head_hidden)

    return factory


_BACKBONES = {
    "gcnii": GCNIIBackbone,
    "graphsage": GraphSageBackbone,
    "gat": GATBackbone,
    "transformer": GraphTransformerBackbone,
}

BASELINE_KINDS = tuple(sorted(_BACKBONES))

__all__ = [
    "GraphBaseline", "baseline_node_inputs", "binary_adjacency",
    "symmetric_normalized_adjacency", "GLOBAL_FEATURE_COLUMNS",
    "NUM_GLOBAL_FEATURES",
    "SageLayer", "GraphSageBackbone",
    "GATLayer", "GATBackbone",
    "GCNIILayer", "GCNIIBackbone",
    "GraphTransformerBackbone", "laplacian_positional_encoding",
    "RegressionTree", "GradientBoostedTrees",
    "BrokenTree", "break_loops", "tree_downstream_caps",
    "tree_elmore_delays", "tree_path_to_source",
    "DAC20Estimator", "DAC20WireModel", "DAC20_FEATURE_NAMES",
    "make_baseline_factory", "BASELINE_KINDS", "DEFAULT_BASELINE_DEPTH",
]
