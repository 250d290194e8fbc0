"""GCNII baseline (Chen et al., ICML 2020) — Table III column 2.

GCNII fights over-smoothing with two mechanisms the GNNTrans paper
explicitly acknowledges adopting for this baseline ("the residual
connections and identity matrix are adopted to alleviate the
over-smoothing issue"):

* **initial residual**: every layer mixes in a fraction ``alpha`` of the
  first-layer representation ``H0``;
* **identity mapping**: the layer weight is blended with the identity,
  ``(1 - beta_l) I + beta_l W`` with ``beta_l = log(lambda / l + 1)``.

Propagation uses the symmetric-normalized GCN operator.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..nn.layers import Linear, Module
from ..nn.tensor import Tensor, matmul_const
from .common import Backbone, symmetric_normalized_adjacency


class GCNIILayer(Module):
    """One GCNII layer with initial residual and identity mapping."""

    def __init__(self, features: int, layer_index: int,
                 rng: np.random.Generator, alpha: float = 0.1,
                 lam: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.alpha = alpha
        self.beta = math.log(lam / layer_index + 1.0)
        self.weight = Linear(features, features, rng, bias=False,
                             activation="relu")

    def forward(self, x: Tensor, x0: Tensor, propagation: np.ndarray) -> Tensor:
        propagated = matmul_const(propagation, x)
        mixed = propagated * (1.0 - self.alpha) + x0 * self.alpha
        out = mixed * (1.0 - self.beta) + self.weight(mixed) * self.beta
        return out.relu()


class GCNIIBackbone(Backbone):
    """Input projection followed by L GCNII layers."""

    def __init__(self, in_features: int, hidden: int, num_layers: int,
                 rng: np.random.Generator, alpha: float = 0.1,
                 lam: float = 0.5) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one layer")
        self.input_proj = Linear(in_features, hidden, rng, activation="relu")
        self.layers = [GCNIILayer(hidden, layer_index, rng, alpha, lam)
                       for layer_index in range(1, num_layers + 1)]

    def operator(self, adjacency: np.ndarray) -> np.ndarray:
        return symmetric_normalized_adjacency(adjacency)

    def encode(self, x: Tensor, propagation: np.ndarray,
               node_mask: Optional[np.ndarray]) -> Tensor:
        x0 = self.input_proj(x).relu()
        x = x0
        for layer in self.layers:
            x = layer(x, x0, propagation)
        return x
