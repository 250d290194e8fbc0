"""The GNNTrans model — the paper's primary contribution (Fig. 4).

Pipeline per RC net:

1. **GNN module** (``L1`` weighted-GraphSage layers, Eq. 1) learns local
   short-range structure from the resistance-weighted adjacency;
2. **Graph-transformer module** (``L2`` multi-head self-attention layers,
   Eq. 2-3) learns global long-range relationships among *all* nodes,
   sidestepping GNN over-smoothing;
3. **Pooling** (Eq. 4) averages final node representations over each wire
   path and concatenates the raw Table I path features;
4. **Heads** (Eq. 5-6) predict wire slew, then wire delay conditioned on
   the predicted slew.

The model operates on :class:`~repro.features.NetSample` objects and emits
predictions in the (standardized) label space; unit handling lives in
:class:`~repro.core.estimator.WireTimingEstimator`.

Only the path features of step 3 carry the input slew.  :meth:`GNNTrans.bind`
therefore runs steps 1-3's mean pooling once per net, and each new slew
pays only for the path-feature join and the heads.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..features.pipeline import NetSample, PathRecord
from ..nn.layers import Module
from ..nn.tensor import Tensor, concat
from .config import DEFAULT_CONFIG, GNNTransConfig
from .gnn_layer import GNNModule
from .heads import TimingHeads
from .pooling import pool_paths
from .transformer_layer import TransformerModule


class GNNTrans(Module):
    """End-to-end wire-timing model of Fig. 4.

    Parameters
    ----------
    num_node_features:
        Width of raw node feature vectors (8 for Table I).
    num_path_features:
        Width of raw path feature vectors (10 for Table I).
    config:
        Architecture/hyper-parameter bundle (:class:`GNNTransConfig`).
    rng:
        Weight-init generator (derived from ``config.seed`` when omitted).
    """

    def __init__(self, num_node_features: int, num_path_features: int,
                 config: GNNTransConfig = DEFAULT_CONFIG,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.config = config
        rng = rng or np.random.default_rng(config.seed)
        self.gnn = GNNModule(num_node_features, config.hidden, config.l1, rng,
                             residual=config.residual,
                             adjacency_norm=config.adjacency_norm)
        self.transformer = TransformerModule(config.hidden, config.l2,
                                             config.num_heads, rng,
                                             layer_norm=config.layer_norm)
        representation_width = config.hidden + (
            num_path_features if config.include_path_features else 0)
        self.heads = TimingHeads(representation_width, config.head_hidden, rng,
                                 config.condition_delay_on_slew)

    # ------------------------------------------------------------------
    def encode(self, sample: NetSample) -> Tensor:
        """Final node representations ``X^(L1+L2)`` for one net."""
        x = Tensor(sample.node_features)
        x = self.gnn(x, sample.adjacency)
        return self.transformer(x)

    def pool(self, sample: NetSample) -> Tensor:
        """Mean final node representation per wire path, ``(P, hidden)``.

        The left half of Eq. 4.  It reads the node features, the adjacency
        and the path membership, but no path feature, so it does not
        depend on the input slew.
        """
        return pool_paths(self.encode(sample), sample,
                          include_path_features=False)

    def join_path_features(self, pooled: Tensor,
                           paths: Sequence[PathRecord]) -> Tensor:
        """Eq. 4's ``f_q``: ``pooled`` joined with each path's features."""
        if not self.config.include_path_features:
            return pooled
        features = Tensor(np.vstack([p.features for p in paths]))
        return concat([pooled, features], axis=-1)

    def path_representations(self, sample: NetSample) -> Tensor:
        """Wire-path representations ``F = {f_q}`` (Eq. 4)."""
        return self.join_path_features(self.pool(sample), sample.paths)

    def bind(self, sample: NetSample
             ) -> Callable[[Sequence[PathRecord]], Tuple[Tensor, Tensor]]:
        """:meth:`forward` split at the input-slew boundary.

        Runs :meth:`pool` on ``sample`` once and returns the rest of the
        forward pass, the path-feature join and the heads, as a function
        of the net's path records.  Their features, the input slew among
        them, may differ from ``sample``'s.
        """
        pooled = self.pool(sample)
        return lambda paths: self.heads(
            self.join_path_features(pooled, paths))

    def forward(self, sample: NetSample) -> Tuple[Tensor, Tensor]:
        """Predict ``(slew, delay)`` for every wire path of ``sample``.

        Both outputs have shape ``(num_paths,)`` in the label space the
        model was trained in.
        """
        return self.bind(sample)(sample.paths)

    def predict(self, sample: NetSample) -> Tuple[np.ndarray, np.ndarray]:
        """Inference-mode numpy predictions for one net."""
        was_training = self.training
        self.eval()
        try:
            slew, delay = self.forward(sample)
        finally:
            if was_training:
                self.train()
        return slew.data.copy(), delay.data.copy()
