"""Weighted-GraphSage GNN layer — Eq. (1) of the paper.

The paper customizes GraphSage so that neighbor aggregation is weighted by
the *resistance value* on each edge rather than treated as binary
connectivity:

    x_i' = ReLU( W1 x_i  +  W2 * sum_u a_iu x_u )

with ``a_iu`` the (scaled) resistance between nodes ``i`` and ``u``.  This
makes the layer strictly more expressive than plain GraphSage under the
1-WL test, because two neighborhoods with identical topology but different
resistances now aggregate differently.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.layers import Linear, Module
from ..nn.tensor import Tensor, matmul_const


def normalize_adjacency(adjacency: np.ndarray, mode: str = "row") -> np.ndarray:
    """Normalize a weighted adjacency matrix for stable deep aggregation.

    ``"row"`` divides each row by its sum (weighted-mean aggregation,
    default), ``"none"`` keeps the raw scaled resistance weights of
    Section III-B.  Row normalization keeps activations bounded across the
    paper's deep (up to 25-layer) GNN stacks.
    """
    if mode == "none":
        return adjacency
    if mode == "row":
        row_sums = adjacency.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0.0] = 1.0
        return adjacency / row_sums
    raise ValueError(f"unknown adjacency normalization {mode!r}")


class WeightedSageLayer(Module):
    """One resistance-weighted GraphSage layer (Eq. 1).

    Parameters
    ----------
    in_features, out_features:
        Representation dimensions.
    rng:
        Weight-init generator.
    residual:
        Adds the input back to the output when dimensions allow — a
        standard stabilization for the deep stacks the paper trains
        (ablatable; see ``benchmarks/bench_ablations.py``).
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, residual: bool = True) -> None:
        super().__init__()
        self.w_self = Linear(in_features, out_features, rng, activation="relu")
        self.w_neigh = Linear(in_features, out_features, rng, bias=False,
                              activation="relu")
        self.residual = residual and in_features == out_features

    def forward(self, x: Tensor, adjacency: np.ndarray) -> Tensor:
        """``x``: (B, N, in_features); ``adjacency``: (B, N, N) normalized
        weights, one operator per net of the pack."""
        aggregated = matmul_const(adjacency, x)
        out = (self.w_self(x) + self.w_neigh(aggregated)).relu()
        if self.residual:
            out = out + x
        return out


class GNNModule(Module):
    """The paper's GNN module: ``L1`` stacked weighted-Sage layers.

    The first layer maps raw node features into the hidden width; the
    remaining ``L1 - 1`` layers are hidden-to-hidden with residuals.
    Produces the pre-node representations ``X^(L1)`` fed to the graph
    transformer.  :meth:`forward` takes each net's adjacency already
    normalized by :meth:`operator`, which runs per net before packing.
    """

    def __init__(self, in_features: int, hidden: int, num_layers: int,
                 rng: np.random.Generator, residual: bool = True,
                 adjacency_norm: str = "row") -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("GNN module needs at least one layer")
        self.adjacency_norm = adjacency_norm
        dims = [in_features] + [hidden] * num_layers
        self.layers = [
            WeightedSageLayer(dims[i], dims[i + 1], rng, residual=residual)
            for i in range(num_layers)
        ]

    def operator(self, adjacency: np.ndarray) -> np.ndarray:
        """One net's aggregation operator from its raw adjacency."""
        return normalize_adjacency(adjacency, self.adjacency_norm)

    def forward(self, x: Tensor, adjacency: np.ndarray) -> Tensor:
        """``x``: (B, N, in_features); ``adjacency``: (B, N, N) from
        :meth:`operator`."""
        for layer in self.layers:
            x = layer(x, adjacency)
        return x

    @property
    def num_layers(self) -> int:
        return len(self.layers)
