"""Graph attention network baseline (Velickovic et al., 2017) — Table III.

Dense-mask implementation of GAT: attention logits
``e_ij = LeakyReLU(a_src . W x_i + a_dst . W x_j)`` are computed for every
pair, non-edges are masked to ``-inf`` before the row softmax, and the
attention-weighted neighborhood (including a self loop) is aggregated.
Multi-head outputs are averaged, the variant GAT uses on its final layer.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..nn.init import xavier_uniform
from ..nn.layers import Module, Parameter
from ..nn.tensor import Tensor
from .common import Backbone, binary_adjacency

_MASK_VALUE = -1e9


def _split_heads(x: Tensor, num_heads: int) -> Tensor:
    """(..., N, H * d) -> (..., H, N, d)."""
    lead, n, width = x.shape[:-2], x.shape[-2], x.shape[-1]
    rank = len(lead)
    heads = x.reshape(*lead, n, num_heads, width // num_heads)
    return heads.transpose(tuple(range(rank)) + (rank + 1, rank, rank + 2))


class GATLayer(Module):
    """One multi-head graph-attention layer over a dense edge mask.

    The per-head projections ``W`` are the column blocks of one fused
    ``projection`` (in, H * out); ``attn_src`` and ``attn_dst`` stack the
    per-head attention vectors, (H, out, 1).
    """

    def __init__(self, in_features: int, out_features: int, num_heads: int,
                 rng: np.random.Generator, residual: bool = True,
                 negative_slope: float = 0.2) -> None:
        super().__init__()
        self.num_heads = num_heads
        self.negative_slope = negative_slope
        # One draw per head, in the order of separate per-head layers.
        self.projection = Parameter(np.hstack([
            xavier_uniform((in_features, out_features), rng)
            for _ in range(num_heads)]))
        self.attn_src = Parameter(np.stack([
            xavier_uniform((out_features, 1), rng) for _ in range(num_heads)]))
        self.attn_dst = Parameter(np.stack([
            xavier_uniform((out_features, 1), rng) for _ in range(num_heads)]))
        self.residual = residual and in_features == out_features

    def forward(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """``x``: (B, N, in); ``mask``: (B, N, N) with 0 on allowed pairs
        and -1e9 on non-edges."""
        projected = _split_heads(x @ self.projection, self.num_heads)
        src_score = projected @ self.attn_src              # (B, H, N, 1)
        dst_score = projected @ self.attn_dst              # (B, H, N, 1)
        rank = dst_score.ndim
        dst_row = dst_score.transpose(tuple(range(rank - 2))
                                      + (rank - 1, rank - 2))
        logits = (src_score + dst_row).leaky_relu(self.negative_slope)
        attention = logits.softmax(axis=-1, bias=mask[..., None, :, :])
        out = (attention @ projected).sum(axis=-3)         # sum of heads
        out = (out * (1.0 / self.num_heads)).relu()
        if self.residual:
            out = out + x
        return out

    def upgrade_state(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        """Fuse a per-head checkpoint's ``projections``/``attn_src``/
        ``attn_dst`` lists."""
        heads = range(self.num_heads)
        projections = [f"{prefix}projections.{k}.weight" for k in heads]
        sources = [f"{prefix}attn_src.{k}" for k in heads]
        targets = [f"{prefix}attn_dst.{k}" for k in heads]
        if all(key in state for key in projections + sources + targets):
            state[f"{prefix}projection"] = np.hstack(
                [state.pop(key) for key in projections])
            state[f"{prefix}attn_src"] = np.stack(
                [state.pop(key) for key in sources])
            state[f"{prefix}attn_dst"] = np.stack(
                [state.pop(key) for key in targets])


class GATBackbone(Backbone):
    """Stack of GAT layers with shared edge mask."""

    def __init__(self, in_features: int, hidden: int, num_layers: int,
                 rng: np.random.Generator, num_heads: int = 2) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one layer")
        dims = [in_features] + [hidden] * num_layers
        self.layers = [GATLayer(dims[i], dims[i + 1], num_heads, rng)
                       for i in range(num_layers)]

    def operator(self, adjacency: np.ndarray) -> np.ndarray:
        """Connectivity with self loops; padding stays unconnected."""
        return binary_adjacency(adjacency, self_loops=True,
                                row_normalize=False)

    def encode(self, x: Tensor, connectivity: np.ndarray,
               node_mask: Optional[np.ndarray]) -> Tensor:
        mask = np.where(connectivity > 0.0, 0.0, _MASK_VALUE)
        for layer in self.layers:
            x = layer(x, mask)
        return x
