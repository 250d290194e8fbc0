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

from ..design.sta import (BindRequest, WireBinding, WireCall, WireResult,
                          WireTiming, WireTimingModel)
from ..obs import get_metrics, get_tracer
from ..robustness.errors import InputError, ModelError
from ..features.path_features import PATH_FEATURE_NAMES, NetContext
from ..features.pipeline import (FeatureScaler, NetArrays, NetSample,
                                 PathRecord, build_net_sample, pack_arrays)
from ..nn.layers import Module
from ..nn.metrics import max_abs_error, r2_score
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from ..nn.trainer import Trainer, TrainingHistory
from ..rcnet.graph import RCNet
from .config import DEFAULT_CONFIG, GNNTransConfig
from .gnntrans import GNNTrans, PathForward, PooledPaths

_PS = 1e-12
# Bound on the in-memory prediction provenance log (old entries are dropped
# first; the per-tier counters are never trimmed).
_MAX_PROVENANCE_RECORDS = 4096

ModelFactory = Callable[[int, int, GNNTransConfig, np.random.Generator], Module]
#: A model's ``bind_many``: each net's per-call half, a :data:`PathForward`.
BindMany = Callable[[Sequence[NetSample]], List[PathForward]]
#: Per-path ``(slew_ps, delay_ps)`` of one net, with the tier that
#: produced them.
Prediction = Tuple[np.ndarray, np.ndarray, str]
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
    """A training sample with its normalized slew and delay targets and
    the model's per-net arrays of it, built once per fit."""

    sample: NetSample
    slew: np.ndarray
    delay: np.ndarray
    arrays: NetArrays


def _packed_mse(model: Module, targets: Sequence[_Target]) -> Tensor:
    """Mean over the minibatch's nets of each net's slew plus delay MSE.

    One forward pass over the nets' arrays, padded into one pack; each
    real path is weighted ``1 / (B * P_net)`` and each padded one 0.
    """
    batch = pack_arrays([t.arrays for t in targets])
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


class NetPredictor:
    """One net bound by :meth:`WireTimingEstimator.bind_samples`.

    ``forward`` is the net's slew-free half, a :data:`PathForward`, or
    the reason its slew-free half failed.  Called with the net's path
    records at any input slew, the predictor returns that net's
    :data:`Prediction`, as a :meth:`WireTimingEstimator.predict_many`
    call of one.
    """

    __slots__ = ("estimator", "net", "design", "forward")

    def __init__(self, estimator: "WireTimingEstimator", net: str,
                 design: str, forward: Union[PathForward, str]) -> None:
        self.estimator = estimator
        self.net = net
        self.design = design
        self.forward = forward

    def __call__(self, paths: Sequence[PathRecord]) -> Prediction:
        return self.estimator.predict_many([(self, paths)])[0]


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
        provides ``net_arrays(sample) -> NetArrays``, one net's inputs
        before padding, ``pack(samples) -> NetBatch`` and a forward pass
        over that pack returning (B, P) ``(slew, delay)``.
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
        """Each sample with its normalized training targets and the
        model's arrays of it, once per fit: they go when the fit
        returns."""
        targets = []
        for sample in samples:
            _, delays = sample.labels()
            targets.append(_Target(sample, *self.label_scaler.normalize(
                self._slew_targets(sample), delays),
                self.model.net_arrays(sample)))
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
        return self.bind_sample(sample)(sample.paths)[:2]

    def bind_sample(self, sample: NetSample) -> NetPredictor:
        """:meth:`predict_sample` split at the input-slew boundary.

        The returned predictor takes this net's path records at any input
        slew, as a sample built at that slew holds them, and returns what
        :meth:`predict_sample` would, with the tier that produced it
        (``"model"`` or ``"label-prior"``).  The net runs as a pack of one
        of :meth:`bind_samples`.
        """
        return self.bind_samples([sample])[0]

    def bind_samples(self, samples: Sequence[NetSample]
                     ) -> List[NetPredictor]:
        """:meth:`bind_sample` of many nets, their slew-free halves packed.

        A model with a ``bind_many`` method (GNNTrans) runs the slew-free
        half of every net here, in one call whose packs leave each net
        bitwise its pack of one, and each predictor keeps only what the
        rest reads, not the sample's graph.  Other models run their whole
        forward on every call.  When the call raises, each net is re-run
        alone, as in :meth:`_predict_pack`; a net whose slew-free half
        raises alone degrades to tier ``"label-prior"`` on every call, as
        :meth:`predict_sample` does.
        """
        self._require_fitted()
        bind_many = getattr(self.model, "bind_many", None) \
            or _forward_per_call(self.model)
        return [NetPredictor(self, sample.name, sample.design, forward)
                for sample, forward
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

    def predict_many(self, calls: Sequence[Tuple[NetPredictor,
                                                 Sequence[PathRecord]]]
                     ) -> List[Prediction]:
        """Each ``(predictor, paths)`` call, as the predictor's own call
        returns it.

        The calls on nets that GNNTrans pooled group by exact path count,
        and each group runs the heads once, in one
        :meth:`~repro.core.gnntrans.GNNTrans.heads_stack` call that leaves
        every net bitwise its own call.  Other calls run their forward
        alone.  Output handling, label-prior degradation and provenance
        stay per call: a group that raises is re-run call by call, so a
        failure degrades only its own net, and records come in call order.
        """
        outputs: Dict[int, _NetPrediction] = {}
        groups: Dict[int, List[int]] = {}
        for index, (predictor, paths) in enumerate(calls):
            if isinstance(predictor.forward, PooledPaths):
                groups.setdefault(len(paths), []).append(index)
        for members in groups.values():
            outputs.update(zip(members, self._predict_stack(
                [calls[i] for i in members])))
        results: List[Prediction] = []
        for index, (predictor, paths) in enumerate(calls):
            output = outputs.get(index)
            if output is None:
                output = self._predict_alone(predictor, paths)
            slew_ps, delay_ps, tier, reason = output
            _PREDICTIONS.inc()
            self._record(predictor.net, predictor.design, tier, reason)
            results.append((slew_ps, delay_ps, tier))
        return results

    def _predict_stack(self, calls: Sequence[Tuple[NetPredictor,
                                                   Sequence[PathRecord]]]
                       ) -> List[_NetPrediction]:
        """One path count's calls from one stacked heads run, or each call
        alone when the stack raises."""
        try:
            with self._eval_mode():
                slew, delay = self.model.heads_stack(
                    [predictor.forward for predictor, _ in calls],
                    [paths for _, paths in calls])
            return [self._outputs(slew.data[b], delay.data[b], paths)
                    for b, (_, paths) in enumerate(calls)]
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:  # repro-lint: disable=ERR002 each call re-runs alone and degrades with its own typed reason
            return [self._predict_alone(*call) for call in calls]

    def _predict_alone(self, predictor: NetPredictor,
                       paths: Sequence[PathRecord]) -> _NetPrediction:
        """One call's output from its own forward, or the label prior with
        the reason its forward failed."""
        forward = predictor.forward
        if isinstance(forward, str):
            return self._prior_prediction(paths) + ("label-prior", forward)
        try:
            with self._eval_mode():
                slew, delay = forward(paths)
            return self._outputs(slew.data[0], delay.data[0], paths)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # degraded-but-valid beats an aborted run
            return self._prior_prediction(paths) + ("label-prior", str(
                ModelError(f"inference failed: {type(exc).__name__}: {exc}",
                           net=predictor.net, design=predictor.design,
                           stage="predict", tier="label-prior", cause=exc)))

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

    def predict(self, samples: Sequence[NetSample]
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated per-path predictions over many nets, in ps.

        Nets run in packs of ``config.batch_size`` (see
        :meth:`_pack_plan`).  Results and provenance records come back in
        sample order.
        """
        self._require_fitted()
        samples = list(samples)
        by_sample: Dict[int, _NetPrediction] = {}
        for indices in self._pack_plan(samples):
            by_sample.update(zip(indices, self._predict_pack(
                [samples[i] for i in indices])))
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

    def evaluate(self, samples: Sequence[NetSample]) -> EvalMetrics:
        """R^2 and max-abs-error against golden labels (paper's metrics)."""
        with get_tracer().span("estimator.evaluate", samples=len(samples)):
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


def _raising(exc: Exception) -> WireBinding:
    """A binding whose every call raises ``exc``."""
    def timing(input_slew: float) -> Tuple[np.ndarray, np.ndarray, str]:
        raise exc
    return timing


class _LearnedBinding:
    """One net bound by :meth:`LearnedWireModel.bind_many`: its name, its
    scaled path records and its :class:`NetPredictor`.  A call is a
    :meth:`LearnedWireModel.time_many` of one."""

    __slots__ = ("model", "net", "paths", "predictor")

    def __init__(self, model: "LearnedWireModel", net: str,
                 paths: Sequence[PathRecord],
                 predictor: NetPredictor) -> None:
        self.model = model
        self.net = net
        self.paths = paths
        self.predictor = predictor

    def __call__(self, input_slew: float) -> WireTiming:
        result = self.model.time_many([(self, input_slew)])[0]
        if isinstance(result, Exception):
            raise result
        return result


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
                         context)(input_slew)[:2]

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
        binding re-slews its net (see :meth:`time_many`).

        The samples are built with the moments of all nets from one
        size-grouped pass (``analyze_nets_for_features``, bitwise the
        per-net computation), scaled, and bound by one
        :meth:`WireTimingEstimator.bind_samples` call, which packs the
        model's slew-free halves.  A binding is a callable object that
        keeps the net's scaled path records and its predictor, which
        :meth:`time_many` reads.  A net whose sample cannot be built gets
        a binding that raises the build's error, so the stage that needs
        it fails as an eager build would.
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
        for index, sample, predictor in zip(
                built, samples, self.estimator.bind_samples(samples)):
            bindings[index] = _LearnedBinding(
                self, requests[index].net.name, sample.paths, predictor)
        return [bindings[index] for index in range(len(requests))]

    def time_many(self, calls: Sequence[WireCall]) -> List[WireResult]:
        """Each call's net re-slewed, and all of them predicted by one
        :meth:`WireTimingEstimator.predict_many` call, which runs the
        heads once per path count.

        A call writes its input slew into the scaled input-slew path
        feature and each path's ``input_slew_ps``, so it returns bitwise
        what a sample built at that slew gives, with the prediction's
        tier (``"model"`` or ``"label-prior"``).  A non-finite prediction
        comes back as a :class:`ModelError` in its place, and a net whose
        sample could not be built as the build's error.
        """
        results: Dict[int, WireResult] = {}
        learned: List[int] = []
        for index, (binding, input_slew) in enumerate(calls):
            if isinstance(binding, _LearnedBinding):
                learned.append(index)
            else:  # a net whose sample could not be built
                results[index] = super().time_many(
                    [(binding, input_slew)])[0]
        predictions = self.estimator.predict_many(
            [(calls[i][0].predictor, self._at_slew(calls[i][0].paths,
                                                   calls[i][1]))
             for i in learned])
        for index, (slew_ps, delay_ps, tier) in zip(learned, predictions):
            if np.all(np.isfinite(slew_ps)) and np.all(np.isfinite(delay_ps)):
                results[index] = (delay_ps * _PS, slew_ps * _PS, tier)
            else:
                results[index] = ModelError(
                    "learned prediction is non-finite",
                    net=calls[index][0].net, stage="predict",
                    tier=self.name)
        return [results[index] for index in range(len(calls))]

    def _at_slew(self, paths: Sequence[PathRecord],
                 input_slew: float) -> List[PathRecord]:
        """``paths`` as a sample built at ``input_slew`` (s) holds them."""
        input_slew_ps = input_slew / _PS
        scaled = ((input_slew_ps - self.feature_scaler.path_mean[_SLEW_COLUMN])
                  / self.feature_scaler.path_std[_SLEW_COLUMN])
        at_slew = []
        for path in paths:
            features = path.features.copy()
            features[_SLEW_COLUMN] = scaled
            # The constructor, not dataclasses.replace: this runs per path
            # of every stage miss.
            at_slew.append(PathRecord(
                sink=path.sink, node_indices=path.node_indices,
                features=features, label_slew=path.label_slew,
                label_delay=path.label_delay, input_slew_ps=input_slew_ps))
        return at_slew

    @property
    def name(self) -> str:
        return "LearnedWireModel"
