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
    """Base optimizer: holds the parameter list and a learning rate.

    The parameters are copied into one flat buffer, and each
    ``Parameter.data`` becomes its view, so a step updates every
    parameter with one vectorised expression.  Each parameter also gets
    a view of one flat gradient buffer, into which backward copies its
    first gradient of a step and which clipping scales in place.  A
    parameter belongs to the last optimizer built over it.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        sizes = [p.data.size for p in self.parameters]
        bounds = np.cumsum([0] + sizes)
        self._slices = [slice(int(start), int(stop)) for start, stop
                        in zip(bounds[:-1], bounds[1:])]
        self._data = np.concatenate([p.data.reshape(-1)
                                     for p in self.parameters])
        self._grad = np.zeros_like(self._data)
        for p, part in zip(self.parameters, self._slices):
            p.data = self._data[part].reshape(p.data.shape)
            p.grad_view = self._grad[part].reshape(p.data.shape)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _live(self) -> List[slice]:
        """The flat-buffer slices to update: the whole buffer when every
        parameter has a gradient, else each one that has.

        A gradient assigned to ``p.grad`` directly is first copied into
        the parameter's view.
        """
        live = []
        for p, part in zip(self.parameters, self._slices):
            if p.grad is None:
                continue
            if p.grad is not p.grad_view:
                p.grad_view[...] = p.grad
                p.grad = p.grad_view
            live.append(part)
        return [slice(None)] if len(live) == len(self.parameters) else live

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most ``max_norm``.

        Returns the pre-clipping norm, useful for training diagnostics.
        The squares are one vectorised product, but they are summed per
        parameter, in parameter order: one sum over the flat buffer would
        add them in another order and change the norm's bits.
        """
        live = self._live()
        squares = np.square(self._grad)
        total = 0.0
        for p, part in zip(self.parameters, self._slices):
            if p.grad is not None:
                total += float(squares[part].sum())
        norm = math.sqrt(total)
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for part in live:
                grad = self._grad[part]
                grad *= scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-2,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = np.zeros_like(self._data)

    def step(self) -> None:
        for part in self._live():
            p, grad, v = (self._data[part], self._grad[part],
                          self._velocity[part])
            if self.weight_decay:
                grad = grad + self.weight_decay * p
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction.

    ``decoupled=True`` applies weight decay directly to the weights instead
    of folding it into the gradient — the AdamW update rule.  The flag is
    consumed inside :meth:`step`, so ``weight_decay`` stays a plain
    readable attribute at all times (no temporary mutation that a
    concurrent reader or a mid-step exception could observe).

    A step is one vectorised update of the flat buffers, through two
    preallocated temporaries: ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 -
    b2) g g`` and ``p -= (lr m / c1) / (sqrt(v / c2) + eps)``, each
    elementwise product in the order of a per-parameter update.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, decoupled: bool = False) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)
        self._tmp = (np.empty_like(self._data), np.empty_like(self._data))
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for part in self._live():
            p, grad, m, v = (self._data[part], self._grad[part],
                             self._m[part], self._v[part])
            t1, t2 = self._tmp[0][part], self._tmp[1][part]
            if self.weight_decay:
                if self.decoupled:
                    p -= np.multiply(p, self.lr * self.weight_decay, out=t1)
                else:
                    grad = grad + self.weight_decay * p
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=t1)
            v *= self.beta2
            np.multiply(grad, grad, out=t2)
            v += np.multiply(t2, 1.0 - self.beta2, out=t2)
            np.divide(m, bias1, out=t1)
            t1 *= self.lr
            np.divide(v, bias2, out=t2)
            np.sqrt(t2, out=t2)
            t2 += self.eps
            t1 /= t2
            p -= t1


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
