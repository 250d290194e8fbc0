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
from ..nn.tensor import Tensor, fused_op, softmax_data, softmax_vjp


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

    def _split(self, qkv: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, ...]]:
        """Query, key and value views (..., H, N, d) of the fused
        projection (..., N, 3F), and the axis order of the view
        (3, ..., H, N, d) they are taken from."""
        lead, n = qkv.shape[:-2], qkv.shape[-2]
        rank = len(lead)
        # (..., N, 3, H, d) -> (3, ..., H, N, d)
        order = ((rank + 1,) + tuple(range(rank))
                 + (rank + 2, rank, rank + 3))
        split = qkv.reshape(*lead, n, 3, self.num_heads,
                            self.head_dim).transpose(order)
        return split[0], split[1], split[2], order

    def _attend(self, normed: Tensor, bias: Optional[np.ndarray]) -> Tensor:
        """Eq. (2)-(3) without the residual, as one op: the ``w_qkv``
        projection, the masked scaled softmax, the weighted sum of the
        values and ``w_out``.

        Every product runs on the same array layouts as the chain of
        primitives it replaces, so the values and gradients are that
        chain's bits.  The query, key and value gradients land in one
        (..., N, 3, H, d) array, the layout the projection's backward
        reads.
        """
        w_qkv, w_out, scale = self.w_qkv, self.w_out.weight, self._scale
        qkv = normed.data @ w_qkv.data                   # (..., N, 3F)
        query, key, value, order = self._split(qkv)
        key_t = np.swapaxes(key, -1, -2)
        attention = softmax_data(query @ key_t, -1, scale, bias)  # Eq. (2)
        heads = attention @ value                        # (..., H, N, d)
        rank = heads.ndim
        swap = tuple(range(rank - 3)) + (rank - 2, rank - 3, rank - 1)
        joined = heads.transpose(swap)                   # (..., N, H, d)
        multi = joined.reshape(normed.shape)             # ||_k  in Eq. (3)
        out = multi @ w_out.data                         # W3

        def backward(grad: np.ndarray) -> None:
            grad_heads = (grad @ np.swapaxes(w_out.data, -1, -2)).reshape(
                joined.shape).transpose(swap)
            w_out._accumulate(np.swapaxes(multi, -1, -2) @ grad)
            grad_scores = softmax_vjp(
                attention, grad_heads @ np.swapaxes(value, -1, -2), -1,
                scale)
            grad_qkv = np.empty(qkv.shape[:-1] + (3, self.num_heads,
                                                  self.head_dim))
            split = grad_qkv.transpose(order)
            # ``+ 0.0`` as the chain's sum of three zero-padded slices
            # does: it turns a -0.0 into 0.0.
            np.add(grad_scores @ np.swapaxes(key_t, -1, -2), 0.0,
                   out=split[0])
            np.add(np.swapaxes(np.swapaxes(query, -1, -2) @ grad_scores,
                               -1, -2), 0.0, out=split[1])
            np.add(np.swapaxes(attention, -1, -2) @ grad_heads, 0.0,
                   out=split[2])
            grad_qkv = grad_qkv.reshape(qkv.shape)
            normed._accumulate(grad_qkv @ np.swapaxes(w_qkv.data, -1, -2))
            w_qkv._accumulate(np.swapaxes(normed.data, -1, -2) @ grad_qkv)

        return fused_op(out, (normed, w_qkv, w_out), backward, "attention")

    def forward(self, x: Tensor,
                node_mask: Optional[np.ndarray] = None) -> Tensor:
        """``x``: (B, N, features) node representations; returns the same
        shape.  ``node_mask`` (B, N) marks each net's own nodes."""
        normed = self.norm(x) if self.norm is not None else x
        return x + self._attend(normed, _key_mask_bias(node_mask))

    def attention_maps(self, x: Tensor) -> List[np.ndarray]:
        """Per-head attention matrices of one net (N, N), for inspection."""
        normed = self.norm(x) if self.norm is not None else x
        query, key, _, _ = self._split(normed.data @ self.w_qkv.data)
        return list(softmax_data(query @ np.swapaxes(key, -1, -2), -1,
                                 self._scale))

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
