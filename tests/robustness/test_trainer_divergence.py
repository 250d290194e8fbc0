"""Trainer divergence guard: NaN loss stops training and restores weights."""

import math

import numpy as np

from repro.nn.layers import Module, Parameter
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer
from repro.robustness import TrainingDiverged


class _Scalar(Module):
    """One-weight model; the loss pulls ``w`` toward the sample value."""

    def __init__(self):
        super().__init__()
        self.w = Parameter(np.array([0.5]))


def make_loss(diverge_after):
    """Loss that turns NaN after ``diverge_after`` training-mode calls.

    Validation calls run in eval mode and stay finite, so the best
    checkpoint tracking keeps working until the divergence epoch.
    """
    calls = {"train": 0}

    def loss_fn(model, batch):
        if model.training:
            calls["train"] += 1
            if calls["train"] > diverge_after:
                return (model.w * float("nan")).sum()
        return ((model.w - batch[0]) ** 2).sum()

    return loss_fn


def fit(loss_fn, epochs=6, val=True):
    model = _Scalar()
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-2), loss_fn,
                      rng=np.random.default_rng(0))
    history = trainer.fit([1.0], epochs=epochs, batch_size=1,
                          val_samples=[1.0] if val else None)
    return model, history


class TestDivergenceGuard:
    def test_healthy_run_has_no_divergence_record(self):
        _, history = fit(make_loss(diverge_after=10 ** 9))
        assert history.diverged is None
        assert len(history) == 6

    def test_nan_loss_stops_training(self):
        _, history = fit(make_loss(diverge_after=2))
        assert isinstance(history.diverged, TrainingDiverged)
        assert history.diverged.epoch == 3
        assert len(history) == 3  # no epochs after the divergence
        assert math.isnan(history.epochs[-1].train_loss)
        assert "train" in history.diverged.reason

    def test_best_checkpoint_restored(self):
        model, history = fit(make_loss(diverge_after=2))
        assert history.diverged.restored_best
        assert np.all(np.isfinite(model.w.data))

    def test_no_val_means_no_checkpoint_to_restore(self):
        _, history = fit(make_loss(diverge_after=2), val=False)
        assert history.diverged is not None
        assert not history.diverged.restored_best

    def test_immediate_divergence(self):
        model, history = fit(make_loss(diverge_after=0))
        assert history.diverged is not None
        assert history.diverged.epoch == 1
