"""GraphSage baseline (Hamilton et al., NeurIPS 2017) — Table III column 4.

Plain GraphSage as the paper describes it: "each element in the adjacency
matrix is binary and only indicates whether there is an edge or not ...
node features are always aggregated averagely without considering diverse
edge information."  Structure is otherwise identical to the GNNTrans GNN
module, which isolates the value of resistance-weighted aggregation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.layers import Linear, Module
from ..nn.tensor import Tensor, matmul_const
from .common import Backbone, binary_adjacency


class SageLayer(Module):
    """Mean-aggregation GraphSage layer: ``ReLU(W1 x + W2 mean_u x_u)``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, residual: bool = True) -> None:
        super().__init__()
        self.w_self = Linear(in_features, out_features, rng, activation="relu")
        self.w_neigh = Linear(in_features, out_features, rng, bias=False,
                              activation="relu")
        self.residual = residual and in_features == out_features

    def forward(self, x: Tensor, mean_adjacency: np.ndarray) -> Tensor:
        aggregated = matmul_const(mean_adjacency, x)
        out = (self.w_self(x) + self.w_neigh(aggregated)).relu()
        if self.residual:
            out = out + x
        return out


class GraphSageBackbone(Backbone):
    """Stack of mean-aggregation Sage layers (search depth L)."""

    def __init__(self, in_features: int, hidden: int, num_layers: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one layer")
        dims = [in_features] + [hidden] * num_layers
        self.layers = [SageLayer(dims[i], dims[i + 1], rng)
                       for i in range(num_layers)]

    def operator(self, adjacency: np.ndarray) -> np.ndarray:
        return binary_adjacency(adjacency, row_normalize=True)

    def encode(self, x: Tensor, operator: np.ndarray,
               node_mask: Optional[np.ndarray]) -> Tensor:
        for layer in self.layers:
            x = layer(x, operator)
        return x
