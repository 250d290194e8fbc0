"""High-level wire-timing estimation API.

:class:`WireTimingEstimator` wraps any per-net model (GNNTrans by default,
the graph baselines via ``model_factory``) with everything the experiments
need: label standardization, the training loop, R^2 / max-error evaluation,
persistence, and an adapter (:class:`LearnedWireModel`) that plugs the
trained estimator into the STA engine as a wire-delay model — the Table V
"Our Work" flow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..design.sta import WireTimingModel
from ..obs import get_metrics, get_tracer
from ..robustness.errors import InputError, ModelError
from ..features.path_features import NetContext
from ..features.pipeline import FeatureScaler, NetSample, build_net_sample
from ..nn.layers import Module
from ..nn.loss import mse_loss
from ..nn.metrics import max_abs_error, r2_score
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from ..nn.trainer import Trainer, TrainingHistory
from ..parallel import parallel_map
from ..rcnet.graph import RCNet
from .config import DEFAULT_CONFIG, GNNTransConfig
from .gnntrans import GNNTrans

_PS = 1e-12
# Bound on the in-memory prediction provenance log (old entries are dropped
# first; the per-tier counters are never trimmed).
_MAX_PROVENANCE_RECORDS = 4096

ModelFactory = Callable[[int, int, GNNTransConfig, np.random.Generator], Module]

_PREDICTIONS = get_metrics().counter("estimator.predictions")
_PRIOR_FALLBACKS = get_metrics().counter("estimator.label_prior_fallbacks")


@dataclass
class PredictionRecord:
    """Provenance of one per-net prediction: which tier produced it.

    ``tier`` is ``"model"`` for a healthy learned prediction or
    ``"label-prior"`` when non-finite model output (e.g. corrupted weights)
    was replaced by the training-label prior mean.
    """

    net: str
    design: str
    tier: str
    reason: Optional[str] = None


@dataclass
class EvalMetrics:
    """Accuracy summary in the units the paper reports.

    ``r2_slew``/``r2_delay`` are the Table III/IV scores; the max-error
    fields are in picoseconds (Table V's "MAE").
    """

    r2_slew: float
    r2_delay: float
    max_err_slew_ps: float
    max_err_delay_ps: float
    num_paths: int

    def __str__(self) -> str:
        return (f"R2 slew={self.r2_slew:.3f} delay={self.r2_delay:.3f} "
                f"maxerr slew={self.max_err_slew_ps:.2f}ps "
                f"delay={self.max_err_delay_ps:.2f}ps (n={self.num_paths})")


class LabelScaler:
    """Standardizes slew/delay labels (picoseconds) for training."""

    def __init__(self) -> None:
        self.slew_mean = 0.0
        self.slew_std = 1.0
        self.delay_mean = 0.0
        self.delay_std = 1.0

    def fit(self, samples: Sequence[NetSample]) -> "LabelScaler":
        slews = np.array([p.label_slew for s in samples for p in s.paths])
        delays = np.array([p.label_delay for s in samples for p in s.paths])
        return self.fit_values(slews, delays)

    def fit_values(self, slews: np.ndarray, delays: np.ndarray
                   ) -> "LabelScaler":
        """Fit directly on target arrays (e.g. slew residuals)."""
        if slews.size == 0:
            raise ValueError("cannot fit label scaler without labeled paths")
        if not (np.all(np.isfinite(slews)) and np.all(np.isfinite(delays))):
            raise ValueError(
                "labels contain NaN/inf — samples built with labeled=False "
                "are inference-only and cannot be used for training")
        self.slew_mean = float(slews.mean())
        self.slew_std = float(max(slews.std(), 1e-9))
        self.delay_mean = float(delays.mean())
        self.delay_std = float(max(delays.std(), 1e-9))
        return self

    def normalize(self, slews: np.ndarray, delays: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
        return ((slews - self.slew_mean) / self.slew_std,
                (delays - self.delay_mean) / self.delay_std)

    def denormalize(self, slews: np.ndarray, delays: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        return (slews * self.slew_std + self.slew_mean,
                delays * self.delay_std + self.delay_mean)

    def state(self) -> Dict[str, float]:
        return {"slew_mean": self.slew_mean, "slew_std": self.slew_std,
                "delay_mean": self.delay_mean, "delay_std": self.delay_std}

    @classmethod
    def from_state(cls, state: Dict[str, float]) -> "LabelScaler":
        scaler = cls()
        scaler.slew_mean = float(state["slew_mean"])
        scaler.slew_std = float(state["slew_std"])
        scaler.delay_mean = float(state["delay_mean"])
        scaler.delay_std = float(state["delay_std"])
        return scaler


def _default_factory(num_node_features: int, num_path_features: int,
                     config: GNNTransConfig,
                     rng: np.random.Generator) -> Module:
    return GNNTrans(num_node_features, num_path_features, config, rng)


class WireTimingEstimator:
    """Trainable wire slew/delay estimator with a scikit-style API.

    Parameters
    ----------
    config:
        Hyper-parameters (defaults to the scaled PlanB).
    model_factory:
        Alternative per-net model constructor; every graph baseline in
        :mod:`repro.baselines` plugs in through this hook, so all models
        share identical training and evaluation machinery.
    """

    def __init__(self, config: GNNTransConfig = DEFAULT_CONFIG,
                 model_factory: Optional[ModelFactory] = None) -> None:
        self.config = config
        self.model_factory = model_factory or _default_factory
        self.model: Optional[Module] = None
        self.label_scaler = LabelScaler()
        self.history: Optional[TrainingHistory] = None
        # Degradation observability: predictions replaced by the label-prior
        # fallback are counted and logged here, never returned silently.
        self.degradation_counts: Dict[str, int] = {"model": 0,
                                                   "label-prior": 0}
        self.provenance_log: List[PredictionRecord] = []
        self.last_record: Optional[PredictionRecord] = None

    @property
    def last_tier(self) -> Optional[str]:
        """Tier that served the most recent :meth:`predict_sample` call."""
        return self.last_record.tier if self.last_record is not None else None

    # ------------------------------------------------------------------
    def fit(self, train_samples: Sequence[NetSample],
            val_samples: Optional[Sequence[NetSample]] = None,
            epochs: Optional[int] = None, patience: Optional[int] = 12,
            verbose: bool = False) -> TrainingHistory:
        """Train on labeled samples, minimizing MSE of slew + delay (S IV)."""
        if not train_samples:
            raise ValueError("fit() requires at least one training sample")
        first = train_samples[0]
        rng = np.random.default_rng(self.config.seed)
        self.model = self.model_factory(
            first.node_features.shape[1], first.paths[0].features.shape[0],
            self.config, rng)
        fit_pool = list(train_samples) + list(val_samples or [])
        all_slews = np.concatenate([self._slew_targets(s) for s in fit_pool])
        all_delays = np.array(
            [p.label_delay for s in fit_pool for p in s.paths])
        self.label_scaler.fit_values(all_slews, all_delays)

        scaler = self.label_scaler
        slew_targets = self._slew_targets

        def loss_fn(model: Module, sample: NetSample) -> Tensor:
            slew_pred, delay_pred = model(sample)
            slews = slew_targets(sample)
            _, delays = sample.labels()
            slew_t, delay_t = scaler.normalize(slews, delays)
            return (mse_loss(slew_pred, Tensor(slew_t))
                    + mse_loss(delay_pred, Tensor(delay_t)))

        optimizer = Adam(self.model.parameters(), lr=self.config.learning_rate)
        trainer = Trainer(self.model, optimizer, loss_fn,
                          grad_clip=self.config.grad_clip,
                          rng=np.random.default_rng(self.config.seed + 1))
        with get_tracer().span("estimator.fit",
                               samples=len(train_samples)) as span:
            self.history = trainer.fit(
                list(train_samples), epochs=epochs or self.config.epochs,
                batch_size=self.config.batch_size,
                val_samples=list(val_samples) if val_samples else None,
                patience=patience, verbose=verbose)
            span.set(epochs_run=len(self.history))
        return self.history

    # ------------------------------------------------------------------
    def _slew_targets(self, sample: NetSample) -> np.ndarray:
        """Training target for the slew head, per the parameterization."""
        slews = np.array([p.label_slew for p in sample.paths])
        mode = self.config.slew_parameterization
        if mode == "absolute":
            return slews
        input_slews = np.array([p.input_slew_ps for p in sample.paths])
        if mode == "residual":
            return slews - input_slews
        return np.sqrt(np.maximum(slews ** 2 - input_slews ** 2, 0.0))

    def _reconstruct_slews(self, predicted: np.ndarray,
                           sample: NetSample) -> np.ndarray:
        """Invert :meth:`_slew_targets` back to absolute slew in ps."""
        mode = self.config.slew_parameterization
        if mode == "absolute":
            return predicted
        input_slews = np.array([p.input_slew_ps for p in sample.paths])
        if mode == "residual":
            return predicted + input_slews
        return np.sqrt(input_slews ** 2 + np.maximum(predicted, 0.0) ** 2)

    def predict_sample(self, sample: NetSample) -> Tuple[np.ndarray, np.ndarray]:
        """Per-path ``(slew_ps, delay_ps)`` predictions for one net.

        Non-finite model output (corrupted weights, poisoned activations)
        is replaced per path by the training-label prior mean; the
        substitution is recorded in :attr:`degradation_counts` and
        :attr:`provenance_log` under tier ``"label-prior"`` rather than
        propagated or raised.
        """
        self._require_fitted()
        _PREDICTIONS.inc()
        # Toggling the mode walks every submodule; skip it when the model
        # is already in eval mode, as it is after fit() and load().
        was_training = self.model.training
        if was_training:
            self.model.eval()
        try:
            slew, delay = self.model(sample)
            slew_ps, delay_ps = self.label_scaler.denormalize(slew.data,
                                                              delay.data)
            slew_ps = self._reconstruct_slews(slew_ps, sample)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # degraded-but-valid beats an aborted run
            error = ModelError(
                f"inference failed: {type(exc).__name__}: {exc}",
                net=sample.name, design=sample.design, stage="predict",
                tier="label-prior", cause=exc)
            prior_slew, prior_delay = self._prior_prediction(sample)
            self._record(sample, "label-prior", str(error))
            return prior_slew, prior_delay
        finally:
            if was_training:
                self.model.train()

        finite = np.isfinite(slew_ps) & np.isfinite(delay_ps)
        if not np.all(finite):
            prior_slew, prior_delay = self._prior_prediction(sample)
            slew_ps = np.where(finite, slew_ps, prior_slew)
            delay_ps = np.where(finite, delay_ps, prior_delay)
            bad = int(finite.size - np.count_nonzero(finite))
            self._record(sample, "label-prior",
                         f"{bad}/{finite.size} paths non-finite")
        else:
            self._record(sample, "model")
        return slew_ps, delay_ps

    def _prior_prediction(self, sample: NetSample
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Training-label prior mean per path — the degraded fallback."""
        zeros = np.zeros(sample.num_paths)
        slew_ps, delay_ps = self.label_scaler.denormalize(zeros, zeros.copy())
        slew_ps = self._reconstruct_slews(slew_ps, sample)
        # A corrupted sample (NaN input slews) must still yield finite output.
        return (np.nan_to_num(slew_ps, nan=self.label_scaler.slew_mean),
                np.nan_to_num(delay_ps, nan=self.label_scaler.delay_mean))

    def _record(self, sample: NetSample, tier: str,
                reason: Optional[str] = None) -> None:
        record = PredictionRecord(sample.name, sample.design, tier, reason)
        if tier != "model":
            _PRIOR_FALLBACKS.inc()
        self.degradation_counts[tier] = self.degradation_counts.get(tier, 0) + 1
        self.provenance_log.append(record)
        if len(self.provenance_log) > _MAX_PROVENANCE_RECORDS:
            del self.provenance_log[:-_MAX_PROVENANCE_RECORDS]
        self.last_record = record

    def predict(self, samples: Sequence[NetSample], jobs: int = 1
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated per-path predictions over many nets, in ps.

        ``jobs > 1`` fans the per-net inference across worker processes
        (the fitted estimator ships to each worker once, via the pool
        initializer); results and provenance records come back in sample
        order, so the output is identical to the serial path.
        """
        self._require_fitted()
        samples = list(samples)
        if jobs is None or jobs != 1:
            return self._predict_parallel(samples, jobs)
        slews: List[np.ndarray] = []
        delays: List[np.ndarray] = []
        for sample in samples:
            s, d = self.predict_sample(sample)
            slews.append(s)
            delays.append(d)
        if not slews:
            return np.zeros(0), np.zeros(0)
        return np.concatenate(slews), np.concatenate(delays)

    def _predict_parallel(self, samples: List[NetSample], jobs: int
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Worker-pool prediction path; merges provenance in the parent.

        Worker processes own separate metric registries and estimator
        copies, so each returned tuple carries the tier/reason of its
        prediction and the parent replays them through :meth:`_record` —
        counters and ``provenance_log`` end up as the serial path leaves
        them.
        """
        results = parallel_map(_predict_worker, samples, jobs=jobs,
                               initializer=_init_predict_worker,
                               initargs=(self,), label="predict")
        slews: List[np.ndarray] = []
        delays: List[np.ndarray] = []
        for sample, (slew_ps, delay_ps, tier, reason) in zip(samples, results):
            _PREDICTIONS.inc()
            self._record(sample, tier, reason)
            slews.append(slew_ps)
            delays.append(delay_ps)
        if not slews:
            return np.zeros(0), np.zeros(0)
        return np.concatenate(slews), np.concatenate(delays)

    def evaluate(self, samples: Sequence[NetSample],
                 jobs: int = 1) -> EvalMetrics:
        """R^2 and max-abs-error against golden labels (paper's metrics)."""
        with get_tracer().span("estimator.evaluate", samples=len(samples),
                               jobs=jobs):
            pred_slew, pred_delay = self.predict(samples, jobs=jobs)
        true_slew = np.array([p.label_slew for s in samples for p in s.paths])
        true_delay = np.array([p.label_delay for s in samples for p in s.paths])
        return EvalMetrics(
            r2_slew=r2_score(true_slew, pred_slew),
            r2_delay=r2_score(true_delay, pred_delay),
            max_err_slew_ps=max_abs_error(true_slew, pred_slew),
            max_err_delay_ps=max_abs_error(true_delay, pred_delay),
            num_paths=len(true_slew),
        )

    def throughput(self, samples: Sequence[NetSample],
                   repeats: int = 1) -> float:
        """Nets per second of pure inference (Section IV-C runtime claim)."""
        self._require_fitted()
        start = time.perf_counter()
        for _ in range(repeats):
            for sample in samples:
                self.predict_sample(sample)
        elapsed = time.perf_counter() - start
        return repeats * len(samples) / elapsed if elapsed > 0 else float("inf")

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist model weights + label scaler to a ``.npz``."""
        self._require_fitted()
        arrays = {f"param.{k}": v for k, v in self.model.state_dict().items()}
        for key, value in self.label_scaler.state().items():
            arrays[f"label.{key}"] = np.array(value)
        np.savez_compressed(path, **arrays)

    def load(self, path: str, num_node_features: int,
             num_path_features: int) -> None:
        """Restore a previously saved estimator (feature widths required)."""
        rng = np.random.default_rng(self.config.seed)
        self.model = self.model_factory(num_node_features, num_path_features,
                                        self.config, rng)
        with np.load(path, allow_pickle=False) as data:
            state = {key[len("param."):]: data[key]
                     for key in data.files if key.startswith("param.")}
            label_state = {key[len("label."):]: float(data[key])
                           for key in data.files if key.startswith("label.")}
        self.model.load_state_dict(state)
        self.label_scaler = LabelScaler.from_state(label_state)
        self.model.eval()

    def _require_fitted(self) -> None:
        if self.model is None:
            raise RuntimeError("estimator is not fitted; call fit() or load()")


# Per-worker estimator installed once by the pool initializer, so the model
# weights are shipped per worker instead of per task.
_WORKER_ESTIMATOR: Optional[WireTimingEstimator] = None


def _init_predict_worker(estimator: "WireTimingEstimator") -> None:
    global _WORKER_ESTIMATOR
    _WORKER_ESTIMATOR = estimator


def _predict_worker(sample: NetSample
                    ) -> Tuple[np.ndarray, np.ndarray, str, Optional[str]]:
    """Worker entry point: predict one net, returning result + provenance."""
    slew_ps, delay_ps = _WORKER_ESTIMATOR.predict_sample(sample)
    record = _WORKER_ESTIMATOR.last_record
    return slew_ps, delay_ps, record.tier, record.reason


class LearnedWireModel(WireTimingModel):
    """Adapter exposing a trained estimator as an STA wire-delay engine.

    Feature extraction (without golden labeling) happens on the fly from
    the net and its electrical context; features are standardized with the
    training-set :class:`FeatureScaler` before inference.
    """

    def __init__(self, estimator: WireTimingEstimator,
                 feature_scaler: FeatureScaler) -> None:
        estimator._require_fitted()
        self.estimator = estimator
        self.feature_scaler = feature_scaler

    def wire_timing(self, net: RCNet, input_slew: float,
                    sink_loads: np.ndarray, drive_resistance: float,
                    context: Optional[NetContext] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        if context is None:
            raise InputError(
                "LearnedWireModel needs the cell context; run it through "
                "STAEngine, which provides one", net=net.name,
                stage="predict")
        sample = build_net_sample(net, context, labeled=False)
        sample = self.feature_scaler.transform([sample])[0]
        slew_ps, delay_ps = self.estimator.predict_sample(sample)
        if not (np.all(np.isfinite(slew_ps)) and np.all(np.isfinite(delay_ps))):
            raise ModelError("learned prediction is non-finite",
                             net=net.name, stage="predict",
                             tier=self.name)
        return delay_ps * _PS, slew_ps * _PS

    @property
    def last_tier(self) -> Optional[str]:
        """Provenance of the wrapped estimator's most recent prediction."""
        return self.estimator.last_tier

    @property
    def name(self) -> str:
        return "LearnedWireModel"
