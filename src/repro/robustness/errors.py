"""Structured error taxonomy for the estimation pipeline.

Every failure the pipeline can recover from is classified into one of three
typed exceptions, each carrying *provenance* — which net, design, sink and
pipeline stage produced it — so degraded results can be traced back to their
cause instead of surfacing as anonymous ``ValueError`` stack traces:

* :class:`InputError` — malformed or physically invalid input data (bad SPEF
  records, non-finite RC values, impossible arguments);
* :class:`NumericalError` — the input was plausible but linear algebra broke
  down (ill-conditioned MNA operator, non-finite simulator output, a
  threshold crossing that never happens);
* :class:`ModelError` — a learned model misbehaved (non-finite predictions,
  corrupted weights, missing context).

All of them subclass :class:`EstimationError`, which itself subclasses
``ValueError`` so call sites written against the old ad-hoc exceptions keep
working.  :class:`TrainingDiverged` is the sibling *record* (not an
exception) that :class:`~repro.nn.trainer.TrainingHistory` carries when a
training run is stopped by the NaN-loss guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


class EstimationError(ValueError):
    """Base class for typed pipeline failures, with provenance.

    Parameters
    ----------
    message:
        Human-readable description of the failure.
    net, design, sink, stage, tier:
        Optional provenance: the net and design being processed, the sink
        index (for per-path failures), the pipeline stage (``"spef-parse"``,
        ``"mna"``, ``"simulate"``, ``"predict"``, ``"sta"``, ...) and the
        fallback tier that failed, when applicable.
    cause:
        The underlying exception, if this error wraps one.
    """

    def __init__(self, message: str, *, net: Optional[str] = None,
                 design: Optional[str] = None, sink: Optional[int] = None,
                 stage: Optional[str] = None, tier: Optional[str] = None,
                 cause: Optional[BaseException] = None) -> None:
        super().__init__(message)
        self.message = message
        self.net = net
        self.design = design
        self.sink = sink
        self.stage = stage
        self.tier = tier
        self.cause = cause

    def provenance(self) -> Dict[str, object]:
        """Non-empty provenance fields as a dict (for logs and reports)."""
        fields = {"net": self.net, "design": self.design, "sink": self.sink,
                  "stage": self.stage, "tier": self.tier}
        return {key: value for key, value in fields.items() if value is not None}

    def __str__(self) -> str:
        context = ", ".join(f"{k}={v!r}" for k, v in self.provenance().items())
        return f"{self.message} [{context}]" if context else self.message


class InputError(EstimationError):
    """Malformed or physically invalid input data."""


class NumericalError(EstimationError):
    """Linear-algebra or convergence breakdown on plausible input."""


class ModelError(EstimationError):
    """A learned model produced unusable output or was misused."""


class OverloadError(EstimationError):
    """The serving layer refused a request because its queue is full.

    Explicit backpressure, not failure: the service is healthy but
    saturated, and the client should retry after :attr:`retry_after_s`
    (seconds).  ``stage`` is always ``"admission"``.
    """

    def __init__(self, message: str, *, retry_after_s: float = 0.05,
                 **kwargs) -> None:
        kwargs.setdefault("stage", "admission")
        super().__init__(message, **kwargs)
        self.retry_after_s = float(retry_after_s)


class DeadlineError(EstimationError):
    """A request ran out of its per-request time budget before completing.

    Carries the budget and how far past it the request was when cancelled,
    so clients can distinguish "queued too long" from "computed too long"
    via ``stage`` (``"admission"`` vs ``"serve"``).
    """

    def __init__(self, message: str, *, budget_s: Optional[float] = None,
                 elapsed_s: Optional[float] = None, **kwargs) -> None:
        kwargs.setdefault("stage", "serve")
        super().__init__(message, **kwargs)
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s


@dataclass
class TrainingDiverged:
    """Record of a training run stopped by the divergence guard.

    Attached to :class:`~repro.nn.trainer.TrainingHistory` (not raised):
    the trainer restores the best checkpoint seen so far and stops, so the
    caller still gets a usable model plus this explanation.
    """

    epoch: int
    train_loss: float
    val_loss: Optional[float]
    restored_best: bool
    reason: str

    def __str__(self) -> str:
        restored = ("best checkpoint restored" if self.restored_best
                    else "no finite checkpoint to restore")
        return (f"training diverged at epoch {self.epoch} ({self.reason}); "
                f"{restored}")
