"""Shared harness for the graph-learning baselines of Tables III/IV.

The paper evaluates GCNII, GraphSage, GAT and a graph transformer the same
way: each generates node representations, "mean pooling modules are used to
generate wire path representations", and MLPs predict slew/delay.  Unlike
GNNTrans they have **no direct path-feature pathway** — that is the
handicap the comparison isolates.

For a fair comparison the baselines do receive the per-net electrical
context (driver output slew, drive strength, driver function) broadcast
onto every node, since those are global inputs any practical deployment
would provide; the engineered *per-path* features (Elmore, D2M, stage
delay, receiver ceff, ...) remain exclusive to GNNTrans per Eq. (4).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..core.heads import TimingHeads
from ..core.pooling import pool_paths
from ..features.pipeline import (NetArrays, NetBatch, NetSample, net_arrays,
                                 pack_arrays)
from ..nn.layers import Module
from ..nn.tensor import Tensor

# Raw path-feature columns that are constant across a net's paths and act
# as global context: input slew, driver strength, driver function.
GLOBAL_FEATURE_COLUMNS = (2, 3, 4)
NUM_GLOBAL_FEATURES = len(GLOBAL_FEATURE_COLUMNS)


def baseline_node_inputs(sample: NetSample) -> np.ndarray:
    """Node features with the per-net global context appended to each row."""
    globals_row = sample.paths[0].features[list(GLOBAL_FEATURE_COLUMNS)]
    broadcast = np.tile(globals_row, (sample.num_nodes, 1))
    return np.hstack([sample.node_features, broadcast])


def binary_adjacency(adjacency: np.ndarray, self_loops: bool = False,
                     row_normalize: bool = True) -> np.ndarray:
    """Connectivity-only adjacency as used by the baseline papers.

    GraphSage/GAT/GCNII all treat edges as binary; optionally with self
    loops and symmetric-free row normalization (mean aggregation).
    """
    binary = (adjacency > 0.0).astype(np.float64)
    if self_loops:
        binary = binary + np.eye(len(binary))
    if row_normalize:
        rows = binary.sum(axis=1, keepdims=True)
        rows[rows == 0.0] = 1.0
        binary = binary / rows
    return binary


def symmetric_normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """``D^{-1/2} (A + I) D^{-1/2}`` — the GCN/GCNII propagation operator."""
    binary = (adjacency > 0.0).astype(np.float64) + np.eye(len(adjacency))
    degree = binary.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degree)
    return binary * inv_sqrt[:, None] * inv_sqrt[None, :]


class Backbone(Module):
    """A baseline's node encoder over packs of nets.

    :meth:`node_inputs` and :meth:`operator` run on each net's own arrays
    before :func:`~repro.features.pipeline.pack` pads them; :meth:`encode`
    runs on the pack.  :meth:`forward` encodes one net from its raw
    adjacency.
    """

    def node_inputs(self, sample: NetSample) -> np.ndarray:
        """One net's (N, F) node inputs."""
        return baseline_node_inputs(sample)

    def operator(self, adjacency: np.ndarray) -> np.ndarray:
        """One net's (N, N) propagation operator from its raw adjacency."""
        return adjacency

    def encode(self, x: Tensor, operator: np.ndarray,
               node_mask: Optional[np.ndarray]) -> Tensor:
        """Node representations (B, N, hidden) of a pack's node inputs."""
        raise NotImplementedError

    def forward(self, x: Tensor, adjacency: np.ndarray) -> Tensor:
        """``x``: one net's (N, F) node inputs; ``adjacency``: its raw
        (N, N) adjacency."""
        return self.encode(x, self.operator(adjacency), None)


class GraphBaseline(Module):
    """Backbone + mean ‖ sum ‖ sink path pooling + independent heads.

    ``backbone`` is a :class:`Backbone`: it maps a pack's node inputs to
    node representations ``(B, N, hidden)``.  Pooling concatenates the mean,
    the sum and the sink node's representation over the path: the sum term
    restores extensivity (total path resistance grows with stage count)
    and the sink term restores per-path identity, without which no pooled
    baseline can separate two paths of the same net.  The engineered
    per-path features remain GNNTrans-only.
    """

    def __init__(self, backbone: Backbone, hidden: int,
                 rng: np.random.Generator,
                 head_hidden: Sequence[int] = (64, 32)) -> None:
        super().__init__()
        self.backbone = backbone
        # Baselines predict slew and delay from the pooled representation
        # independently (no Eq. 6 conditioning — that is a GNNTrans design
        # choice being compared against).
        self.heads = TimingHeads(3 * hidden, head_hidden, rng,
                                 condition_delay_on_slew=False)

    def net_arrays(self, sample: NetSample) -> NetArrays:
        """One net's inputs before padding: the backbone's node inputs
        and operator of the net alone."""
        return net_arrays(sample, node_inputs=self.backbone.node_inputs,
                          adjacency=self.backbone.operator)

    def pack(self, samples: Sequence[NetSample]) -> NetBatch:
        return pack_arrays([self.net_arrays(s) for s in samples])

    def forward(self, batch: Union[NetBatch, NetSample]
                ) -> Tuple[Tensor, Tensor]:
        """``(slew, delay)`` of every path of the pack, each (B, P); a
        bare sample runs as a pack of one."""
        if isinstance(batch, NetSample):
            batch = self.pack([batch])
        nodes = self.backbone.encode(Tensor(batch.node_features),
                                     batch.adjacency, batch.node_mask)
        representations = pool_paths(nodes, batch,
                                     include_path_features=False,
                                     extensive=True)
        return self.heads(representations)
