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

The model operates on a :class:`~repro.features.pipeline.NetBatch`, a
pack of nets as zero-padded per-net slices, and emits predictions in the
(standardized) label space; unit handling lives in
:class:`~repro.core.estimator.WireTimingEstimator`.  A bare
:class:`~repro.features.NetSample` is run as a pack of one.

Only the path features of step 3 carry the input slew.  :meth:`GNNTrans.bind`
therefore runs steps 1-3's mean pooling once per net, and each new slew
pays only for the path-feature join and the heads.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..features.pipeline import NetBatch, NetSample, PathRecord, pack
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
    def pack(self, samples: Sequence[NetSample]) -> NetBatch:
        """Pack ``samples`` with each net's adjacency normalized alone."""
        return pack(samples, adjacency=self.gnn.operator)

    def _packed(self, batch: Union[NetBatch, NetSample]) -> NetBatch:
        return self.pack([batch]) if isinstance(batch, NetSample) else batch

    def encode(self, batch: NetBatch) -> Tensor:
        """Final node representations ``X^(L1+L2)``, (B, N, hidden)."""
        x = self.gnn(Tensor(batch.node_features), batch.adjacency)
        return self.transformer(x, batch.node_mask)

    def pool(self, batch: NetBatch) -> Tensor:
        """Mean final node representation per wire path, (B, P, hidden).

        The left half of Eq. 4.  It reads the node features, the adjacency
        and the path membership, but no path feature, so it does not
        depend on the input slew.
        """
        return pool_paths(self.encode(batch), batch,
                          include_path_features=False)

    def join_path_features(self, pooled: Tensor,
                           features: np.ndarray) -> Tensor:
        """Eq. 4's ``f_q``: ``pooled`` joined with the (B, P, F) path
        features."""
        if not self.config.include_path_features:
            return pooled
        return concat([pooled, Tensor(features)], axis=-1)

    def path_representations(self, batch: Union[NetBatch, NetSample]
                             ) -> Tensor:
        """Wire-path representations ``F = {f_q}`` (Eq. 4), (B, P, d)."""
        batch = self._packed(batch)
        return self.join_path_features(self.pool(batch), batch.path_features)

    def bind(self, sample: NetSample
             ) -> Callable[[Sequence[PathRecord]], Tuple[Tensor, Tensor]]:
        """:meth:`forward` of one net, split at the input-slew boundary.

        Runs :meth:`pool` on ``sample`` as a pack of one, once, and returns
        the rest of the forward pass, the path-feature join and the heads,
        as a function of the net's path records.  Their features, the
        input slew among them, may differ from ``sample``'s.
        """
        pooled = self.pool(self.pack([sample]))
        return lambda paths: self.heads(self.join_path_features(
            pooled, np.vstack([p.features for p in paths])[None]))

    def forward(self, batch: Union[NetBatch, NetSample]
                ) -> Tuple[Tensor, Tensor]:
        """Predict ``(slew, delay)`` for every wire path of the pack.

        Both outputs have shape (B, P) in the label space the model was
        trained in; entries past a net's own paths are padding.
        """
        return self.heads(self.path_representations(batch))

    def predict(self, sample: NetSample) -> Tuple[np.ndarray, np.ndarray]:
        """Inference-mode numpy predictions for one net, each (P,)."""
        was_training = self.training
        self.eval()
        try:
            slew, delay = self.forward(sample)
        finally:
            if was_training:
                self.train()
        return slew.data[0].copy(), delay.data[0].copy()
