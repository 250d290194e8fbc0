"""Gradient-boosted regression trees (the "XGBoost model" of DAC20 [5]).

Standard least-squares gradient boosting: start from the target mean, then
repeatedly fit a shallow :class:`RegressionTree` to the current residuals
and add it with a learning-rate shrinkage.  Subsampling (stochastic
gradient boosting) is supported for regularization.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .tree import RegressionTree


class GradientBoostedTrees:
    """Least-squares gradient boosting over CART trees.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth, min_samples_leaf:
        Weak-learner shape.
    subsample:
        Row-sampling fraction per round (1.0 = deterministic boosting).
    seed:
        RNG seed for subsampling.
    """

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 4, min_samples_leaf: int = 3,
                 subsample: float = 1.0, seed: int = 0) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self._base: float = 0.0
        self._trees: List[RegressionTree] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if len(x) != len(y):
            raise ValueError("x and y length mismatch")
        rng = np.random.default_rng(self.seed)
        self._base = float(y.mean())
        self._trees = []
        current = np.full_like(y, self._base)
        n = len(y)
        for _ in range(self.n_estimators):
            residual = y - current
            if self.subsample < 1.0:
                take = max(2 * self.min_samples_leaf,
                           int(round(self.subsample * n)))
                idx = rng.choice(n, size=min(take, n), replace=False)
            else:
                idx = slice(None)
            tree = RegressionTree(self.max_depth, self.min_samples_leaf)
            tree.fit(x[idx], residual[idx])
            update = tree.predict(x)
            current = current + self.learning_rate * update
            self._trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("model is not fitted")
        x = np.asarray(x, dtype=np.float64)
        out = np.full(len(x), self._base, dtype=np.float64)
        for tree in self._trees:
            out += self.learning_rate * tree.predict(x)
        return out

    def staged_predict(self, x: np.ndarray) -> np.ndarray:
        """Predictions after each boosting round, shape (rounds, n)."""
        if not self._trees:
            raise RuntimeError("model is not fitted")
        x = np.asarray(x, dtype=np.float64)
        out = np.full(len(x), self._base, dtype=np.float64)
        stages = np.empty((len(self._trees), len(x)))
        for i, tree in enumerate(self._trees):
            out = out + self.learning_rate * tree.predict(x)
            stages[i] = out
        return stages
