"""High-level wire-timing estimation API.

:class:`WireTimingEstimator` wraps any packed model (GNNTrans by default,
the graph baselines via ``model_factory``) with everything the experiments
need: label standardization, the training loop, R^2 / max-error evaluation,
persistence, and an adapter (:class:`LearnedWireModel`) that plugs the
trained estimator into the STA engine as a wire-delay model — the Table V
"Our Work" flow.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, replace
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..design.sta import BindRequest, WireBinding, WireTimingModel
from ..obs import get_metrics, get_tracer
from ..robustness.errors import InputError, ModelError
from ..features.path_features import PATH_FEATURE_NAMES, NetContext
from ..features.pipeline import (FeatureScaler, NetSample, PathRecord,
                                 build_net_sample)
from ..nn.layers import Module
from ..nn.metrics import max_abs_error, r2_score
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from ..nn.trainer import Trainer, TrainingHistory
from ..parallel import parallel_map
from ..rcnet.graph import RCNet
from .config import DEFAULT_CONFIG, GNNTransConfig
from .gnntrans import GNNTrans, PathForward

_PS = 1e-12
# Bound on the in-memory prediction provenance log (old entries are dropped
# first; the per-tier counters are never trimmed).
_MAX_PROVENANCE_RECORDS = 4096

ModelFactory = Callable[[int, int, GNNTransConfig, np.random.Generator], Module]
#: A model's ``bind_many``: each net's per-call half, a :data:`PathForward`.
BindMany = Callable[[Sequence[NetSample]], List[PathForward]]
#: Per-path ``(slew_ps, delay_ps)`` of one net from its path records, from
#: :meth:`WireTimingEstimator.bind_sample`.
PathPredictor = Callable[[Sequence[PathRecord]], Tuple[np.ndarray, np.ndarray]]
#: One net's ``(slew_ps, delay_ps, tier, reason)`` from a pack.
_NetPrediction = Tuple[np.ndarray, np.ndarray, str, Optional[str]]

_SLEW_COLUMN = PATH_FEATURE_NAMES.index("input_slew")

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


class _Target(NamedTuple):
    """A training sample with its normalized slew and delay targets."""

    sample: NetSample
    slew: np.ndarray
    delay: np.ndarray


def _packed_mse(model: Module, targets: Sequence[_Target]) -> Tensor:
    """Mean over the minibatch's nets of each net's slew plus delay MSE.

    One forward pass over the packed nets; each real path is weighted
    ``1 / (B * P_net)`` and each padded one 0.
    """
    batch = model.pack([t.sample for t in targets])
    slew_pred, delay_pred = model(batch)
    slew_t, delay_t, weight = (np.zeros(batch.path_mask.shape)
                               for _ in range(3))
    for b, target in enumerate(targets):
        paths = len(target.slew)
        slew_t[b, :paths] = target.slew
        delay_t[b, :paths] = target.delay
        weight[b, :paths] = 1.0 / (len(targets) * paths)
    slew_err = slew_pred - Tensor(slew_t)
    delay_err = delay_pred - Tensor(delay_t)
    return ((slew_err * slew_err + delay_err * delay_err)
            * Tensor(weight)).sum()


def _forward_per_call(model: Module) -> BindMany:
    """``bind_many`` for a model without one: its whole forward, per net,
    on every call.

    The graph baselines need this, because ``baseline_node_inputs``
    broadcasts the input slew onto every node, so their encoders read it.
    """
    def bind(sample: NetSample) -> PathForward:
        return lambda paths: model(replace(sample, paths=list(paths)))
    return lambda samples: [bind(sample) for sample in samples]


class WireTimingEstimator:
    """Trainable wire slew/delay estimator with a scikit-style API.

    Parameters
    ----------
    config:
        Hyper-parameters (defaults to the scaled PlanB).
    model_factory:
        Alternative model constructor; every graph baseline in
        :mod:`repro.baselines` plugs in through this hook, so all models
        share identical training and evaluation machinery.  A model
        provides ``pack(samples) -> NetBatch`` and a forward pass over
        that pack returning (B, P) ``(slew, delay)``.
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

        optimizer = Adam(self.model.parameters(), lr=self.config.learning_rate)
        trainer = Trainer(self.model, optimizer, _packed_mse,
                          grad_clip=self.config.grad_clip,
                          rng=np.random.default_rng(self.config.seed + 1))
        with get_tracer().span("estimator.fit",
                               samples=len(train_samples)) as span:
            self.history = trainer.fit(
                self._targets(train_samples),
                epochs=epochs or self.config.epochs,
                batch_size=self.config.batch_size,
                val_samples=self._targets(val_samples) if val_samples
                else None,
                patience=patience, verbose=verbose)
            span.set(epochs_run=len(self.history))
        return self.history

    # ------------------------------------------------------------------
    def _targets(self, samples: Sequence[NetSample]) -> List[_Target]:
        """Each sample with its normalized training targets, once per fit."""
        targets = []
        for sample in samples:
            _, delays = sample.labels()
            targets.append(_Target(sample, *self.label_scaler.normalize(
                self._slew_targets(sample), delays)))
        return targets

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
                           paths: Sequence[PathRecord]) -> np.ndarray:
        """Invert :meth:`_slew_targets` back to absolute slew in ps."""
        mode = self.config.slew_parameterization
        if mode == "absolute":
            return predicted
        input_slews = np.array([p.input_slew_ps for p in paths])
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
        return self.bind_sample(sample)(sample.paths)

    def bind_sample(self, sample: NetSample) -> PathPredictor:
        """:meth:`predict_sample` split at the input-slew boundary.

        The returned function takes this net's path records at any input
        slew, as a sample built at that slew holds them, and returns what
        :meth:`predict_sample` would.  The net runs as a pack of one of
        :meth:`bind_samples`.
        """
        return self.bind_samples([sample])[0]

    def bind_samples(self, samples: Sequence[NetSample]
                     ) -> List[PathPredictor]:
        """:meth:`bind_sample` of many nets, their slew-free halves packed.

        A model with a ``bind_many`` method (GNNTrans) runs the slew-free
        half of every net here, in one call whose packs leave each net
        bitwise its pack of one, and each function keeps only what the
        rest reads, not the sample's graph.  Other models run their whole
        forward on every call.  When the call raises, each net is re-run
        alone, as in :meth:`_predict_pack`; a net whose slew-free half
        raises alone degrades to tier ``"label-prior"`` on every call, as
        :meth:`predict_sample` does.
        """
        self._require_fitted()
        bind_many = getattr(self.model, "bind_many", None) \
            or _forward_per_call(self.model)
        return [self._predictor(sample, forward) for sample, forward
                in zip(samples, self._bind_pack(bind_many, samples))]

    def _bind_pack(self, bind_many: BindMany, samples: Sequence[NetSample]
                   ) -> List[Union[PathForward, str]]:
        """Each net's slew-free half from one ``bind_many`` call, or the
        reason its net alone failed."""
        try:
            with self._eval_mode():
                return list(bind_many(samples))
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # degraded-but-valid beats an aborted run
            if len(samples) > 1:
                return [out for sample in samples
                        for out in self._bind_pack(bind_many, [sample])]
            return [str(ModelError(
                f"inference failed: {type(exc).__name__}: {exc}",
                net=samples[0].name, design=samples[0].design,
                stage="predict", tier="label-prior", cause=exc))]

    def _predictor(self, sample: NetSample,
                   forward: Union[PathForward, str]) -> PathPredictor:
        """One net's :data:`PathPredictor` from its slew-free half, or
        from the reason its slew-free half failed."""
        net, design = sample.name, sample.design
        if isinstance(forward, str):
            def degraded(paths: Sequence[PathRecord]
                         ) -> Tuple[np.ndarray, np.ndarray]:
                _PREDICTIONS.inc()
                return self._degrade(net, design, paths, forward)
            return degraded
        return lambda paths: self._predict_with(forward, net, design, paths)

    @contextlib.contextmanager
    def _eval_mode(self) -> Iterator[None]:
        # Toggling the mode walks every submodule; skip it when the model
        # is already in eval mode, as it is after fit() and load().
        was_training = self.model.training
        if was_training:
            self.model.eval()
        try:
            yield
        finally:
            if was_training:
                self.model.train()

    def _predict_with(self, forward: PathForward, net: str, design: str,
                      paths: Sequence[PathRecord]
                      ) -> Tuple[np.ndarray, np.ndarray]:
        _PREDICTIONS.inc()
        try:
            with self._eval_mode():
                slew, delay = forward(paths)
            slew_ps, delay_ps, tier, reason = self._outputs(
                slew.data[0], delay.data[0], paths)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # degraded-but-valid beats an aborted run
            return self._degrade(net, design, paths, str(ModelError(
                f"inference failed: {type(exc).__name__}: {exc}",
                net=net, design=design, stage="predict",
                tier="label-prior", cause=exc)))
        self._record(net, design, tier, reason)
        return slew_ps, delay_ps

    def _outputs(self, slew: np.ndarray, delay: np.ndarray,
                 paths: Sequence[PathRecord]) -> _NetPrediction:
        """One net's model output in ps, with non-finite paths replaced by
        the label prior, and the tier and reason to record."""
        slew_ps, delay_ps = self.label_scaler.denormalize(slew, delay)
        slew_ps = self._reconstruct_slews(slew_ps, paths)
        finite = np.isfinite(slew_ps) & np.isfinite(delay_ps)
        if np.all(finite):
            return slew_ps, delay_ps, "model", None
        prior_slew, prior_delay = self._prior_prediction(paths)
        bad = int(finite.size - np.count_nonzero(finite))
        return (np.where(finite, slew_ps, prior_slew),
                np.where(finite, delay_ps, prior_delay), "label-prior",
                f"{bad}/{finite.size} paths non-finite")

    def _degrade(self, net: str, design: str, paths: Sequence[PathRecord],
                 reason: str) -> Tuple[np.ndarray, np.ndarray]:
        """Serve ``paths`` from the label prior, recording ``reason``."""
        prior_slew, prior_delay = self._prior_prediction(paths)
        self._record(net, design, "label-prior", reason)
        return prior_slew, prior_delay

    def _prior_prediction(self, paths: Sequence[PathRecord]
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Training-label prior mean per path — the degraded fallback."""
        zeros = np.zeros(len(paths))
        slew_ps, delay_ps = self.label_scaler.denormalize(zeros, zeros.copy())
        slew_ps = self._reconstruct_slews(slew_ps, paths)
        # A corrupted sample (NaN input slews) must still yield finite output.
        return (np.nan_to_num(slew_ps, nan=self.label_scaler.slew_mean),
                np.nan_to_num(delay_ps, nan=self.label_scaler.delay_mean))

    def _record(self, net: str, design: str, tier: str,
                reason: Optional[str] = None) -> None:
        record = PredictionRecord(net, design, tier, reason)
        if tier != "model":
            _PRIOR_FALLBACKS.inc()
        self.degradation_counts[tier] = self.degradation_counts.get(tier, 0) + 1
        self.provenance_log.append(record)
        if len(self.provenance_log) > _MAX_PROVENANCE_RECORDS:
            del self.provenance_log[:-_MAX_PROVENANCE_RECORDS]
        self.last_record = record

    def _predict_pack(self, samples: Sequence[NetSample]
                      ) -> List[_NetPrediction]:
        """Predict one pack of nets in one forward pass.

        When the pack raises, each net is re-run as a pack of one, so a
        failure degrades only its own net, under its own provenance.
        """
        try:
            with self._eval_mode():
                slew, delay = self.model(self.model.pack(samples))
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # degraded-but-valid beats an aborted run
            if len(samples) > 1:
                return [out for sample in samples
                        for out in self._predict_pack([sample])]
            sample = samples[0]
            return [self._prior_prediction(sample.paths) + (
                "label-prior", str(ModelError(
                    f"inference failed: {type(exc).__name__}: {exc}",
                    net=sample.name, design=sample.design, stage="predict",
                    tier="label-prior", cause=exc)))]
        return [self._outputs(slew.data[b, :sample.num_paths],
                              delay.data[b, :sample.num_paths], sample.paths)
                for b, sample in enumerate(samples)]

    def _pack_plan(self, samples: Sequence[NetSample]) -> List[List[int]]:
        """Sample indices per pack: stable by node count, so a pack's nets
        pad little, cut into ``config.batch_size`` nets each."""
        order = sorted(range(len(samples)),
                       key=lambda i: samples[i].num_nodes)
        size = self.config.batch_size
        return [order[i:i + size] for i in range(0, len(order), size)]

    def predict(self, samples: Sequence[NetSample], jobs: int = 1
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated per-path predictions over many nets, in ps.

        Nets run in packs of ``config.batch_size`` (see
        :meth:`_pack_plan`).  ``jobs > 1`` hands the same packs to worker
        processes (the fitted estimator ships to each worker once, via the
        pool initializer), so the output does not depend on ``jobs``.
        Results and provenance records come back in sample order.
        """
        self._require_fitted()
        samples = list(samples)
        plan = self._pack_plan(samples)
        packs = [[samples[i] for i in indices] for indices in plan]
        if jobs is None or jobs != 1:
            results = parallel_map(_predict_worker, packs, jobs=jobs,
                                   initializer=_init_predict_worker,
                                   initargs=(self,), label="predict")
        else:
            results = [self._predict_pack(p) for p in packs]
        by_sample: Dict[int, _NetPrediction] = {}
        for indices, outputs in zip(plan, results):
            by_sample.update(zip(indices, outputs))
        slews: List[np.ndarray] = []
        delays: List[np.ndarray] = []
        for i, sample in enumerate(samples):
            slew_ps, delay_ps, tier, reason = by_sample[i]
            _PREDICTIONS.inc()
            self._record(sample.name, sample.design, tier, reason)
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
        """Nets per second of :meth:`predict` (Section IV-C runtime claim)."""
        self._require_fitted()
        start = time.perf_counter()
        for _ in range(repeats):
            self.predict(samples)
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


def _predict_worker(samples: List[NetSample]) -> List[_NetPrediction]:
    """Worker entry point: predict one pack, returning results with their
    provenance."""
    return _WORKER_ESTIMATOR._predict_pack(samples)


def _raising(exc: Exception) -> WireBinding:
    """A binding whose every call raises ``exc``."""
    def timing(input_slew: float) -> Tuple[np.ndarray, np.ndarray]:
        raise exc
    return timing


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
        return self.bind(net, sink_loads, drive_resistance,
                         context)(input_slew)

    def bind(self, net: RCNet, sink_loads: np.ndarray,
             drive_resistance: float,
             context: Optional[NetContext] = None) -> WireBinding:
        """Build, scale and encode the net once; each call re-slews it.

        A :meth:`bind_many` of one request.
        """
        return self.bind_many([BindRequest(net, sink_loads, drive_resistance,
                                           context)])[0]

    def bind_many(self, requests: Sequence[BindRequest]
                  ) -> List[WireBinding]:
        """Build, scale and encode every request's net; each call of a
        binding re-slews its net.

        The samples are built with the moments of all nets from one
        size-grouped pass (``analyze_nets_for_features``, bitwise the
        per-net computation), scaled, and bound by one
        :meth:`WireTimingEstimator.bind_samples` call, which packs the
        model's slew-free halves.  Each call writes its input slew into
        the scaled input-slew path feature and each path's
        ``input_slew_ps``, then runs only the per-slew half, so it returns
        bitwise what a sample built at that slew gives.  A net whose
        sample cannot be built gets a binding that raises the build's
        error, so the stage that needs it fails as an eager build would.
        """
        from ..features.path_features import analyze_nets_for_features

        for request in requests:
            if request.context is None:
                raise InputError(
                    "LearnedWireModel needs the cell context; run it "
                    "through STAEngine, which provides one",
                    net=request.net.name, stage="predict")
        analyses = analyze_nets_for_features(
            [(r.net, r.context.sink_loads()) for r in requests])
        bindings: Dict[int, WireBinding] = {}
        built: List[int] = []
        samples: List[NetSample] = []
        for index, (request, analysis) in enumerate(zip(requests, analyses)):
            try:
                samples.append(build_net_sample(
                    request.net, request.context, labeled=False,
                    analysis=analysis))
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # repro-lint: disable=ERR002 re-raised by the net's binding
                bindings[index] = _raising(exc)
                continue
            built.append(index)
        samples = self.feature_scaler.transform(samples)
        for index, sample, predict in zip(
                built, samples, self.estimator.bind_samples(samples)):
            bindings[index] = self._reslewed(requests[index].net.name,
                                             sample.paths, predict)
        return [bindings[index] for index in range(len(requests))]

    def _reslewed(self, net: str, paths: Sequence[PathRecord],
                  predict: PathPredictor) -> WireBinding:
        """One net's binding: ``predict`` at each call's input slew."""
        mean = self.feature_scaler.path_mean[_SLEW_COLUMN]
        std = self.feature_scaler.path_std[_SLEW_COLUMN]

        def timing(input_slew: float) -> Tuple[np.ndarray, np.ndarray]:
            input_slew_ps = input_slew / _PS
            scaled = (input_slew_ps - mean) / std
            at_slew = []
            for path in paths:
                features = path.features.copy()
                features[_SLEW_COLUMN] = scaled
                at_slew.append(replace(path, features=features,
                                       input_slew_ps=input_slew_ps))
            slew_ps, delay_ps = predict(at_slew)
            if not (np.all(np.isfinite(slew_ps))
                    and np.all(np.isfinite(delay_ps))):
                raise ModelError("learned prediction is non-finite",
                                 net=net, stage="predict", tier=self.name)
            return delay_ps * _PS, slew_ps * _PS
        return timing

    @property
    def last_tier(self) -> Optional[str]:
        """Provenance of the wrapped estimator's most recent prediction."""
        return self.estimator.last_tier

    @property
    def name(self) -> str:
        return "LearnedWireModel"
