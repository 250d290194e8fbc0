"""Graph-transformer layer — Eq. (2)/(3) of the paper.

Multi-head self-attention over *all* nodes of the RC net, independent of
edge connectivity: every capacitance can attend to every other, which is
how GNNTrans captures global long-range relationships without stacking GNN
layers into the over-smoothing regime.

Eq. (2) builds the per-head attention map from learnable query/key
projections; Eq. (3) aggregates value projections over all nodes,
concatenates the heads, projects with ``W3`` and adds the residual input.
A pre-attention LayerNorm (standard transformer practice, ablatable) keeps
the deep stack trainable.

In a pack of nets (:class:`~repro.features.pipeline.NetBatch`) each net
attends only to its own nodes: padded keys are masked with ``-inf``, the
structural mask of a structurally-masked transformer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.init import xavier_uniform
from ..nn.layers import LayerNorm, Linear, Module, Parameter
from ..nn.tensor import Tensor


def _key_mask_bias(node_mask: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Additive attention bias (B, 1, 1, N): 0 on each net's own nodes,
    ``-inf`` on padding; ``None`` when there is no padding to mask."""
    if node_mask is None or node_mask.all():
        return None
    return np.where(node_mask, 0.0, -np.inf)[:, None, None, :]


class MultiHeadSelfAttention(Module):
    """K-head scaled dot-product self-attention with residual (Eq. 2-3).

    The per-head ``W_Q``, ``W_K``, ``W_V`` of the paper (without bias)
    are the column blocks of one fused projection ``w_qkv`` of shape
    ``(F, 3F)``: all query heads, then all key heads, then all value
    heads.
    """

    def __init__(self, features: int, num_heads: int,
                 rng: np.random.Generator, layer_norm: bool = True) -> None:
        super().__init__()
        if features % num_heads != 0:
            raise ValueError(
                f"features ({features}) must be divisible by heads ({num_heads})")
        self.num_heads = num_heads
        self.head_dim = features // num_heads
        # One draw per head and projection, in the order of separate
        # per-head layers, so the fused weight equals their concatenation.
        self.w_qkv = Parameter(np.hstack([
            xavier_uniform((features, self.head_dim), rng)
            for _ in range(3 * num_heads)]))
        self.w_out = Linear(features, features, rng, bias=False)  # W3
        self.norm = LayerNorm(features) if layer_norm else None
        self._scale = 1.0 / np.sqrt(self.head_dim)

    def _scores(self, normed: Tensor) -> Tuple[Tensor, Tensor]:
        """Unscaled attention logits (..., H, N, N), values (..., H, N, d)."""
        qkv = normed @ self.w_qkv                        # (..., N, 3F)
        lead, n = qkv.shape[:-2], qkv.shape[-2]
        rank = len(lead)
        qkv = qkv.reshape(*lead, n, 3, self.num_heads, self.head_dim)
        # (..., N, 3, H, d) -> (3, ..., H, N, d)
        qkv = qkv.transpose((rank + 1,) + tuple(range(rank))
                            + (rank + 2, rank, rank + 3))
        query, key, value = qkv[0], qkv[1], qkv[2]
        key_t = key.transpose(tuple(range(rank + 1)) + (rank + 2, rank + 1))
        return query @ key_t, value

    def forward(self, x: Tensor,
                node_mask: Optional[np.ndarray] = None) -> Tensor:
        """``x``: (B, N, features) node representations; returns the same
        shape.  ``node_mask`` (B, N) marks each net's own nodes."""
        normed = self.norm(x) if self.norm is not None else x
        scores, value = self._scores(normed)
        attention = scores.softmax(axis=-1, scale=self._scale,
                                   bias=_key_mask_bias(node_mask))  # Eq. (2)
        heads = attention @ value                        # (B, H, N, d)
        rank = heads.ndim
        multi = heads.transpose(tuple(range(rank - 3))
                                + (rank - 2, rank - 3, rank - 1))
        multi = multi.reshape(*x.shape)                  # ||_k  in Eq. (3)
        return x + self.w_out(multi)                     # residual of Eq. (3)

    def attention_maps(self, x: Tensor) -> List[np.ndarray]:
        """Per-head attention matrices of one net (N, N), for inspection."""
        normed = self.norm(x) if self.norm is not None else x
        scores, _ = self._scores(Tensor(normed.data))
        return list(scores.detach().softmax(axis=-1, scale=self._scale).data)

    def upgrade_state(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        """Fuse a per-head checkpoint's ``w_query``/``w_key``/``w_value``."""
        legacy = [f"{prefix}w_{part}.{k}.weight"
                  for part in ("query", "key", "value")
                  for k in range(self.num_heads)]
        if all(key in state for key in legacy):
            state[f"{prefix}w_qkv"] = np.hstack([state.pop(key)
                                                 for key in legacy])


class TransformerModule(Module):
    """The paper's graph-transformer module: ``L2`` stacked attention layers."""

    def __init__(self, features: int, num_layers: int, num_heads: int,
                 rng: np.random.Generator, layer_norm: bool = True) -> None:
        super().__init__()
        if num_layers < 0:
            raise ValueError("layer count cannot be negative")
        self.layers = [
            MultiHeadSelfAttention(features, num_heads, rng, layer_norm)
            for _ in range(num_layers)
        ]

    def forward(self, x: Tensor,
                node_mask: Optional[np.ndarray] = None) -> Tensor:
        for layer in self.layers:
            x = layer(x, node_mask)
        return x

    @property
    def num_layers(self) -> int:
        return len(self.layers)
