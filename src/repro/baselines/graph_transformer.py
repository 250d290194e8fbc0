"""Graph-transformer baseline (Dwivedi & Bresson, 2020) — Table III col. 5.

A pure attention stack over the net's nodes: an input projection followed
by ``L`` multi-head self-attention layers (the same attention block the
GNNTrans transformer module uses), with Laplacian-eigenvector positional
encodings added to the input as in the original paper so the model receives
*some* structural signal.  What it lacks — and what Tables III/IV measure —
is the local resistance-weighted aggregation GNNTrans performs before
attention: structure only enters through the positional encoding.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.transformer_layer import MultiHeadSelfAttention
from ..features.pipeline import NetSample
from ..nn.layers import Linear
from ..nn.tensor import Tensor, concat
from ..robustness.guards import guarded_eigh
from .common import Backbone


def laplacian_positional_encoding(adjacency: np.ndarray, dim: int) -> np.ndarray:
    """First ``dim`` non-trivial Laplacian eigenvectors of the connectivity.

    Uses the symmetric normalized Laplacian of the binary connectivity;
    columns are zero-padded when the graph has fewer nodes than ``dim + 1``.
    """
    n = len(adjacency)
    binary = (adjacency > 0.0).astype(np.float64)
    degree = binary.sum(axis=1)
    inv_sqrt = np.where(degree > 0.0, 1.0 / np.sqrt(np.maximum(degree, 1e-12)), 0.0)
    laplacian = np.eye(n) - binary * inv_sqrt[:, None] * inv_sqrt[None, :]
    _, vectors = guarded_eigh(laplacian, what="normalized Laplacian",
                              stage="positional-encoding")
    # Skip the trivial (constant) eigenvector; take the next `dim`.
    encoding = np.zeros((n, dim))
    available = min(dim, max(0, n - 1))
    encoding[:, :available] = vectors[:, 1:1 + available]
    return encoding


class GraphTransformerBackbone(Backbone):
    """Input projection + positional encoding + L attention layers.

    The encoding is a per-net input: an eigendecomposition of a padded
    graph would give other eigenvectors, so :meth:`node_inputs` appends
    it before packing.
    """

    def __init__(self, in_features: int, hidden: int, num_layers: int,
                 rng: np.random.Generator, num_heads: int = 4,
                 pos_dim: int = 4) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one layer")
        self.pos_dim = pos_dim
        self.input_proj = Linear(in_features + pos_dim, hidden, rng)
        self.layers = [MultiHeadSelfAttention(hidden, num_heads, rng)
                       for _ in range(num_layers)]

    def node_inputs(self, sample: NetSample) -> np.ndarray:
        return np.hstack([super().node_inputs(sample),
                          laplacian_positional_encoding(sample.adjacency,
                                                        self.pos_dim)])

    def encode(self, x: Tensor, operator: np.ndarray,
               node_mask: Optional[np.ndarray]) -> Tensor:
        x = self.input_proj(x)
        for layer in self.layers:
            x = layer(x, node_mask)
        return x

    def forward(self, x: Tensor, adjacency: np.ndarray) -> Tensor:
        encoding = laplacian_positional_encoding(adjacency, self.pos_dim)
        return self.encode(concat([x, Tensor(encoding)], axis=-1),
                           adjacency, None)
