"""The DAC20 baseline [5]: loop breaking + manual features + boosted trees.

Cheng, Jiang & Ou (DAC 2020) estimate wire timing with an XGBoost model
over manually selected RC-structure features.  Tree nets are handled
natively; non-tree nets are first reduced to a spanning tree by loop
breaking, which discards loop structure — the induced error the GNNTrans
paper measures in Tables III-V.

The reproduction mirrors that pipeline: per-path features are computed on
the *broken* tree (Elmore, downstream capacitance, path resistance, ...)
plus the driver/receiver context, and two from-scratch gradient-boosted
tree ensembles predict slew and delay.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.estimator import EvalMetrics
from ..design.sta import WireTimingModel
from ..features.path_features import NetContext
from ..features.pipeline import (ADJACENCY_RESISTANCE_SCALE, FeatureScaler,
                                 NetSample, build_net_sample)
from ..nn.metrics import max_abs_error, r2_score
from ..rcnet.graph import RCNet
from ..robustness.errors import ModelError
from .gbdt import GradientBoostedTrees
from .loop_breaking import (break_loops, tree_downstream_caps,
                            tree_elmore_delays, tree_path_to_source)

# Raw path-feature columns (see repro.features.path_features).
_COL_INPUT_SLEW = 2
_COL_DRIVE_STRENGTH = 3
_COL_DRIVE_FUNC = 4
_COL_LOAD_STRENGTH = 5
_COL_LOAD_FUNC = 6
_COL_LOAD_CEFF = 7

DAC20_FEATURE_NAMES = (
    "broken_elmore", "broken_downstream_cap", "tree_path_resistance",
    "tree_path_length", "total_cap", "kept_resistance", "removed_edges",
    "removed_resistance", "num_nodes", "input_slew",
    "drive_strength_driver", "function_driver", "drive_strength_load",
    "function_load", "ceff_load", "fanout",
)

# ohm * fF = 1e-15 s = 1e-3 ps.
_OHM_FF_TO_PS = 1e-3


class DAC20Estimator:
    """Wire slew/delay estimator in the style of DAC20 [5].

    Parameters
    ----------
    feature_scaler:
        The dataset's fitted scaler, used to *invert* standardization so
        the manual features are computed from physical values.  Pass
        ``None`` when samples carry raw (unstandardized) features.
    n_estimators, learning_rate, max_depth:
        Boosting hyper-parameters shared by the slew and delay ensembles.
    """

    def __init__(self, feature_scaler: Optional[FeatureScaler] = None,
                 n_estimators: int = 120, learning_rate: float = 0.08,
                 max_depth: int = 4, seed: int = 0,
                 slew_parameterization: str = "quadrature") -> None:
        if slew_parameterization not in ("absolute", "residual",
                                         "quadrature"):
            raise ValueError(
                f"unknown slew parameterization {slew_parameterization!r}")
        self.feature_scaler = feature_scaler
        self.slew_parameterization = slew_parameterization
        self.slew_model = GradientBoostedTrees(
            n_estimators, learning_rate, max_depth, seed=seed)
        self.delay_model = GradientBoostedTrees(
            n_estimators, learning_rate, max_depth, seed=seed + 1)
        self._fitted = False

    # ------------------------------------------------------------------
    # Feature engineering (the "manual sorting" of RC structures in [5])
    # ------------------------------------------------------------------
    def _raw_views(self, sample: NetSample) -> Tuple[np.ndarray, np.ndarray]:
        """Undo feature standardization; returns (node_features, path_features)."""
        if self.feature_scaler is None:
            return sample.node_features, np.vstack(
                [p.features for p in sample.paths])
        s = self.feature_scaler
        nodes = sample.node_features * s.node_std + s.node_mean
        paths = (np.vstack([p.features for p in sample.paths])
                 * s.path_std + s.path_mean)
        return nodes, paths

    def features_for(self, sample: NetSample) -> np.ndarray:
        """Manual per-path feature matrix on the loop-broken tree."""
        node_feats, path_feats = self._raw_views(sample)
        caps_ff = np.maximum(node_feats[:, 0], 0.0)
        adjacency_ohm = sample.adjacency * ADJACENCY_RESISTANCE_SCALE
        source = sample.paths[0].node_indices[0]
        tree = break_loops(adjacency_ohm, source)
        downstream = tree_downstream_caps(tree, caps_ff)
        elmore_ps = tree_elmore_delays(tree, caps_ff) * _OHM_FF_TO_PS

        rows = np.empty((sample.num_paths, len(DAC20_FEATURE_NAMES)))
        total_cap = float(caps_ff.sum())
        kept_res_kohm = float(tree.parent_resistance.sum()) / 1e3
        for q, path in enumerate(sample.paths):
            tree_path = tree_path_to_source(tree, path.sink)
            path_res = sum(tree.parent_resistance[n] for n in tree_path
                           if tree.parent[n] >= 0) / 1e3
            first_stage = tree_path[-2] if len(tree_path) > 1 else tree_path[-1]
            rows[q] = (
                elmore_ps[path.sink],
                downstream[first_stage],
                path_res,
                len(tree_path),
                total_cap,
                kept_res_kohm,
                tree.removed_edges,
                tree.removed_resistance / 1e3,
                sample.num_nodes,
                path_feats[q, _COL_INPUT_SLEW],
                path_feats[q, _COL_DRIVE_STRENGTH],
                path_feats[q, _COL_DRIVE_FUNC],
                path_feats[q, _COL_LOAD_STRENGTH],
                path_feats[q, _COL_LOAD_FUNC],
                path_feats[q, _COL_LOAD_CEFF],
                sample.num_paths,
            )
        return rows

    def _dataset_matrix(self, samples: Sequence[NetSample]
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        features = [self.features_for(s) for s in samples]
        slews = np.array([p.label_slew for s in samples for p in s.paths])
        delays = np.array([p.label_delay for s in samples for p in s.paths])
        if self.slew_parameterization == "residual":
            slews = slews - self._input_slews(samples)
        elif self.slew_parameterization == "quadrature":
            inputs = self._input_slews(samples)
            slews = np.sqrt(np.maximum(slews ** 2 - inputs ** 2, 0.0))
        return (np.vstack(features) if features else np.zeros((0, 0)),
                slews, delays)

    @staticmethod
    def _input_slews(samples: Sequence[NetSample]) -> np.ndarray:
        return np.array(
            [p.input_slew_ps for s in samples for p in s.paths])

    # ------------------------------------------------------------------
    def fit(self, samples: Sequence[NetSample]) -> "DAC20Estimator":
        """Fit the slew and delay boosters on labeled samples."""
        if not samples:
            raise ValueError("fit() requires at least one sample")
        x, slews, delays = self._dataset_matrix(samples)
        self.slew_model.fit(x, slews)
        self.delay_model.fit(x, delays)
        self._fitted = True
        return self

    def predict(self, samples: Sequence[NetSample]
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated per-path ``(slew_ps, delay_ps)`` predictions."""
        if not self._fitted:
            raise RuntimeError("DAC20Estimator is not fitted")
        if not samples:
            return np.zeros(0), np.zeros(0)
        x = np.vstack([self.features_for(s) for s in samples])
        slews = self.slew_model.predict(x)
        if self.slew_parameterization == "residual":
            slews = slews + self._input_slews(samples)
        elif self.slew_parameterization == "quadrature":
            inputs = self._input_slews(samples)
            slews = np.sqrt(inputs ** 2 + np.maximum(slews, 0.0) ** 2)
        return slews, self.delay_model.predict(x)

    def predict_sample(self, sample: NetSample
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-path predictions for a single net."""
        return self.predict([sample])

    def evaluate(self, samples: Sequence[NetSample]) -> EvalMetrics:
        """R^2 / max-error against golden labels (same metrics as core)."""
        pred_slew, pred_delay = self.predict(samples)
        true_slew = np.array([p.label_slew for s in samples for p in s.paths])
        true_delay = np.array([p.label_delay for s in samples for p in s.paths])
        return EvalMetrics(
            r2_slew=r2_score(true_slew, pred_slew),
            r2_delay=r2_score(true_delay, pred_delay),
            max_err_slew_ps=max_abs_error(true_slew, pred_slew),
            max_err_delay_ps=max_abs_error(true_delay, pred_delay),
            num_paths=len(true_slew),
        )


class DAC20WireModel(WireTimingModel):
    """STA adapter for the DAC20 estimator (the Table V "Prior Work" row).

    Extracts unlabeled features on the fly and predicts per-sink wire
    timing, exactly like :class:`~repro.core.estimator.LearnedWireModel`
    does for GNNTrans.
    """

    def __init__(self, estimator: DAC20Estimator,
                 feature_scaler: FeatureScaler) -> None:
        if not estimator._fitted:
            raise RuntimeError("DAC20WireModel needs a fitted estimator")
        self.estimator = estimator
        self.feature_scaler = feature_scaler

    def wire_timing(self, net: RCNet, input_slew: float,
                    sink_loads: np.ndarray, drive_resistance: float,
                    context: Optional[NetContext] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        if context is None:
            raise ModelError(
                "DAC20WireModel needs the cell context; run it through "
                "STAEngine, which provides one",
                net=net.name, stage="dac20")
        sample = build_net_sample(net, context, labeled=False)
        sample = self.feature_scaler.transform([sample])[0]
        slew_ps, delay_ps = self.estimator.predict_sample(sample)
        return delay_ps * 1e-12, slew_ps * 1e-12

    @property
    def name(self) -> str:
        return "DAC20WireModel"
