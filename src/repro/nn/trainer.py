"""Generic minibatch trainer with early stopping.

Wire-timing datasets are collections of variable-size RC-net graphs, so the
unit of batching is a *net* rather than a fixed-shape tensor: the trainer
hands each shuffled minibatch of samples to the loss function, which packs
them into one forward pass and returns their mean loss; one backward pass
and one optimizer step follow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import math

import numpy as np

from ..obs import get_metrics, get_tracer
from ..robustness.errors import TrainingDiverged
from .layers import Module

_EPOCHS_RUN = get_metrics().counter("trainer.epochs_run")
_BATCHES_RUN = get_metrics().counter("trainer.batches_run")
from .optim import Optimizer
from .tensor import Tensor

#: ``(model, minibatch of samples) -> mean loss over the minibatch``.
LossFn = Callable[[Module, List], Tensor]


@dataclass
class EpochStats:
    """Per-epoch training diagnostics."""

    epoch: int
    train_loss: float
    val_loss: Optional[float]
    lr: float
    seconds: float


@dataclass
class TrainingHistory:
    """Full training trace returned by :meth:`Trainer.fit`.

    ``diverged`` is ``None`` for a healthy run; when the NaN/inf loss guard
    stops training it carries the
    :class:`~repro.robustness.errors.TrainingDiverged` record explaining
    which epoch diverged and whether a best checkpoint was restored.
    """

    epochs: List[EpochStats] = field(default_factory=list)
    diverged: Optional[TrainingDiverged] = None

    @property
    def best_val_loss(self) -> Optional[float]:
        vals = [e.val_loss for e in self.epochs if e.val_loss is not None]
        return min(vals) if vals else None

    @property
    def final_train_loss(self) -> Optional[float]:
        return self.epochs[-1].train_loss if self.epochs else None

    def __len__(self) -> int:
        return len(self.epochs)


class Trainer:
    """Gradient-accumulation trainer over arbitrary sample objects.

    Parameters
    ----------
    model:
        Module whose parameters are updated.
    optimizer:
        Optimizer constructed over ``model.parameters()``.
    loss_fn:
        Callable ``(model, samples) -> scalar Tensor``: the mean loss over
        a list of samples, one minibatch.  Each sample is typically one RC
        net (graph + per-path labels).
    grad_clip:
        Optional global-norm gradient clip, recommended for the deep
        GNN+Transformer stacks.
    rng:
        Generator used to shuffle samples each epoch.
    """

    def __init__(self, model: Module, optimizer: Optimizer, loss_fn: LossFn,
                 grad_clip: Optional[float] = 5.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.grad_clip = grad_clip
        self.rng = rng or np.random.default_rng(0)

    def fit(self, train_samples: Sequence, epochs: int, batch_size: int = 8,
            val_samples: Optional[Sequence] = None, patience: Optional[int] = None,
            verbose: bool = False,
            schedule: Optional[object] = None) -> TrainingHistory:
        """Train for up to ``epochs`` epochs.

        ``patience`` enables early stopping on the validation loss; the best
        parameters seen are restored before returning.
        """
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        history = TrainingHistory()
        best_val = float("inf")
        best_state = None
        stale = 0

        indices = np.arange(len(train_samples))
        for epoch in range(1, epochs + 1):
            start = time.perf_counter()
            with get_tracer().span("train.epoch", epoch=epoch) as span:
                self.model.train()
                self.rng.shuffle(indices)
                losses: List[float] = []
                for batch_start in range(0, len(indices), batch_size):
                    batch = [train_samples[int(idx)] for idx in
                             indices[batch_start:batch_start + batch_size]]
                    self.optimizer.zero_grad()
                    loss = self.loss_fn(self.model, batch)
                    loss.backward()
                    if self.grad_clip is not None:
                        self.optimizer.clip_grad_norm(self.grad_clip)
                    self.optimizer.step()
                    losses.append(loss.item())
                    _BATCHES_RUN.inc()
                if schedule is not None:
                    schedule.step()

                train_loss = float(np.mean(losses)) if losses else float("nan")

                val_loss = None
                if val_samples is not None:
                    val_loss = self.evaluate(val_samples, batch_size)
                    if math.isfinite(val_loss) and val_loss < best_val - 1e-12:
                        best_val = val_loss
                        best_state = self.model.state_dict()
                        stale = 0
                    else:
                        stale += 1
                span.set(train_loss=train_loss, val_loss=val_loss)
            _EPOCHS_RUN.inc()

            stats = EpochStats(
                epoch=epoch,
                train_loss=train_loss,
                val_loss=val_loss,
                lr=self.optimizer.lr,
                seconds=time.perf_counter() - start,
            )
            history.epochs.append(stats)
            if verbose:
                val_str = f" val={val_loss:.6f}" if val_loss is not None else ""
                print(f"epoch {epoch:4d} loss={stats.train_loss:.6f}{val_str} "
                      f"lr={stats.lr:.2e} ({stats.seconds:.2f}s)")

            diverged = not math.isfinite(train_loss) or (
                val_loss is not None and not math.isfinite(val_loss))
            if diverged and losses:
                # NaN/inf loss: the weights (and Adam state) are poisoned.
                # Roll back to the best finite checkpoint and stop instead
                # of silently training on garbage.
                which = ("train" if not math.isfinite(train_loss) else "val")
                history.diverged = TrainingDiverged(
                    epoch=epoch, train_loss=train_loss, val_loss=val_loss,
                    restored_best=best_state is not None,
                    reason=f"non-finite {which} loss")
                break

            if patience is not None and val_samples is not None and stale >= patience:
                break

        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        return history

    def evaluate(self, samples: Sequence, batch_size: int = 8) -> float:
        """Mean loss over ``samples`` in eval mode (no gradient tracking).

        Runs ``batch_size`` samples per loss call and leaves the model in
        the mode it found.
        """
        was_training = self.model.training
        if was_training:
            self.model.eval()
        try:
            total = 0.0
            for start in range(0, len(samples), batch_size):
                batch = list(samples[start:start + batch_size])
                total += self.loss_fn(self.model, batch).item() * len(batch)
        finally:
            if was_training:
                self.model.train()
        return total / max(1, len(samples))
