"""Path pooling — Eq. (4) of the paper.

The wire-path representation concatenates two things:

* the *mean* of the final node representations over the nodes the path
  visits (local + global structure information), and
* the raw engineered path feature vector ``h_q`` (Table I).

Because each net has only a handful of paths (Fig. 2(b)), this per-path
pooling is cheap — the observation that motivates the whole paper.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..features.pipeline import NetBatch, NetSample, pooling_matrices
from ..nn.tensor import Tensor, concat, matmul_const


def path_pooling_matrix(sample: NetSample, mode: str = "mean") -> np.ndarray:
    """Pooling operator ``P`` with ``P @ X = per-path pooled node reps``.

    With ``mode="mean"``, row ``q`` has ``1 / N_q`` at each node the path
    visits — the ``(1/N_q) * sum_{v_i in V_q}`` of Eq. (4) as a single
    constant matrix, so one matmul pools every path at once.  With
    ``mode="sum"`` the row holds plain ones (extensive pooling).
    """
    if mode not in ("mean", "sum"):
        raise ValueError(f"unknown pooling mode {mode!r}")
    mean, total, _ = pooling_matrices(sample)
    return mean if mode == "mean" else total


def sink_selection_matrix(sample: NetSample) -> np.ndarray:
    """Selector ``S`` with ``S @ X = per-path sink-node representations``."""
    return pooling_matrices(sample)[2]


def _operators(source: Union[NetBatch, NetSample]
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(mean, sum, sink, path features)`` of a pack, or of one bare net."""
    if isinstance(source, NetBatch):
        return (source.mean_pool, source.sum_pool, source.sink_pool,
                source.path_features)
    return pooling_matrices(source) + (
        np.vstack([p.features for p in source.paths]),)


def pool_paths(node_representations: Tensor,
               source: Union[NetBatch, NetSample],
               include_path_features: bool = True,
               extensive: bool = False) -> Tensor:
    """Build path representations ``F = {f_q}`` per Eq. (4).

    Parameters
    ----------
    node_representations:
        (B, N, hidden) output of the transformer module for the pack
        ``source``, or (N, hidden) when ``source`` is one net's sample.
    source:
        The :class:`NetBatch` (or single sample) providing path membership
        and raw path features.
    include_path_features:
        Concatenate the Table I path features (GNNTrans behaviour).  The
        graph baselines set this to ``False`` — no engineered path-feature
        pathway — which is exactly the handicap the paper identifies in
        them.
    extensive:
        Additionally concatenate the *sum*-pooled node representations and
        the sink node's representation.  Mean pooling alone can express
        neither extensive path quantities (total path resistance scales
        with stage count; a mean does not) nor per-sink identity, so the
        baselines use mean ‖ sum ‖ sink pooling; see DESIGN.md's
        substitution notes and the pooling ablation bench.
    """
    mean, total, sink, features = _operators(source)
    parts = [matmul_const(mean, node_representations)]
    if extensive:
        parts.append(matmul_const(total, node_representations))
        parts.append(matmul_const(sink, node_representations))
    if include_path_features:
        parts.append(Tensor(features))
    return concat(parts, axis=-1) if len(parts) > 1 else parts[0]
