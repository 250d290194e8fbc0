"""Gradient-descent optimizers.

The paper trains end to end with MSE; the exact optimizer is not stated, so
we provide the standard choices (SGD with momentum, Adam, AdamW) plus simple
learning-rate schedules and gradient clipping, which deep (30-layer) stacks
need on CPU.
"""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from .layers import Parameter


class Optimizer:
    """Base optimizer: holds the parameter list and a learning rate."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most ``max_norm``.

        Returns the pre-clipping norm, useful for training diagnostics.
        """
        total = 0.0
        for p in self.parameters:
            if p.grad is not None:
                total += float(np.sum(p.grad ** 2))
        norm = math.sqrt(total)
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for p in self.parameters:
                if p.grad is not None:
                    p.grad *= scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-2,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                update = v
            else:
                update = grad
            p.data -= self.lr * update


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction.

    ``decoupled=True`` applies weight decay directly to the weights instead
    of folding it into the gradient — the AdamW update rule.  The flag is
    consumed inside :meth:`step`, so ``weight_decay`` stays a plain
    readable attribute at all times (no temporary mutation that a
    concurrent reader or a mid-step exception could observe).
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, decoupled: bool = False) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                if self.decoupled:
                    p.data -= self.lr * self.weight_decay * p.data
                else:
                    grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr, betas=betas, eps=eps,
                         weight_decay=weight_decay, decoupled=True)


class CosineSchedule:
    """Cosine learning-rate decay with linear warmup.

    Mutates ``optimizer.lr`` in place; call :meth:`step` once per epoch (or
    per iteration, whichever granularity was used for ``total_steps``).
    """

    def __init__(self, optimizer: Optimizer, total_steps: int,
                 warmup_steps: int = 0, min_lr: float = 0.0) -> None:
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.total_steps = total_steps
        self.warmup_steps = warmup_steps
        self.min_lr = min_lr
        self._step = 0

    def step(self) -> float:
        self._step += 1
        if self.warmup_steps and self._step <= self.warmup_steps:
            lr = self.base_lr * self._step / self.warmup_steps
        else:
            progress = (self._step - self.warmup_steps) / max(
                1, self.total_steps - self.warmup_steps)
            progress = min(1.0, progress)
            lr = self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (
                1.0 + math.cos(math.pi * progress))
        self.optimizer.lr = lr
        return lr
