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
:meth:`GNNTrans.bind_many` does so for many nets in one encoder pass per
node count, and :meth:`GNNTrans.heads_stack` runs the join and the heads of
many bound nets of one path count at once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..features.pipeline import NetBatch, NetSample, PathRecord, pack
from ..nn.layers import Module
from ..nn.tensor import Tensor, concat, matmul_const
from .config import DEFAULT_CONFIG, GNNTransConfig
from .gnn_layer import GNNModule
from .heads import TimingHeads
from .pooling import pool_paths
from .transformer_layer import TransformerModule

#: One net's forward from its path records, each output (1, P).
PathForward = Callable[[Sequence[PathRecord]], Tuple[Tensor, Tensor]]


class PooledPaths:
    """One net's slew-free half from :meth:`GNNTrans.bind_many`.

    ``pooled`` is the net's mean final node representation per wire path,
    (1, P, hidden).  Called with the net's path records, it is a
    :data:`PathForward`: a :meth:`GNNTrans.heads_stack` of one.
    """

    __slots__ = ("model", "pooled")

    def __init__(self, model: "GNNTrans", pooled: Tensor) -> None:
        self.model = model
        self.pooled = pooled

    def __call__(self, paths: Sequence[PathRecord]) -> Tuple[Tensor, Tensor]:
        return self.model.heads_stack([self], [paths])


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

    def bind(self, sample: NetSample) -> PooledPaths:
        """:meth:`forward` of one net, split at the input-slew boundary.

        Runs :meth:`pool` on ``sample`` as a pack of one, once, and returns
        the rest of the forward pass, the path-feature join and the heads,
        as a function of the net's path records.  Their features, the
        input slew among them, may differ from ``sample``'s.
        """
        return self.bind_many([sample])[0]

    def bind_many(self, samples: Sequence[NetSample]) -> List[PooledPaths]:
        """:meth:`bind` of each sample, with one encoder pass per node count.

        Nets of one node count share a pack without node padding, and
        each is pooled over its own path rows alone, so each function is
        bitwise its net's pack of one.  Padding would break that: padded
        nodes change the attention softmax's row sums, and padded path
        rows the row tail of a shared pooling matmul.
        """
        groups: Dict[int, List[int]] = {}
        for index, sample in enumerate(samples):
            groups.setdefault(sample.num_nodes, []).append(index)
        forwards: Dict[int, PooledPaths] = {}
        for members in groups.values():
            batch = self.pack([samples[i] for i in members])
            nodes = self.encode(batch).data
            for b, index in enumerate(members):
                paths = samples[index].num_paths
                forwards[index] = PooledPaths(self, matmul_const(
                    batch.mean_pool[b:b + 1, :paths],
                    Tensor(nodes[b:b + 1])))
        return [forwards[index] for index in range(len(samples))]

    def heads_stack(self, nets: Sequence[PooledPaths],
                    paths: Sequence[Sequence[PathRecord]]
                    ) -> Tuple[Tensor, Tensor]:
        """The path-feature join and the heads of bound nets of one path
        count P, run once on their (B, P, d) stack.

        ``paths[b]`` holds net b's P path records.  Each output is
        (B, P), and row b is bitwise net b's own call: numpy's stacked
        matmul makes one BLAS call per (P, d) slice, the call a stack of
        one makes.  Flattening the rows into one 2-D matmul, or padding
        nets to one path count, would change a net's rows with its
        stack-mates.
        """
        pooled = nets[0].pooled if len(nets) == 1 \
            else concat([net.pooled for net in nets], axis=0)
        features = np.stack([np.vstack([p.features for p in net_paths])
                             for net_paths in paths])
        return self.heads(self.join_path_features(pooled, features))

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
