"""Neural-network building blocks on top of the autograd :class:`Tensor`.

The classes here mirror a narrow slice of ``torch.nn``: a :class:`Module`
base with recursive parameter collection, :class:`Linear`, :class:`MLP`,
:class:`LayerNorm` and :class:`Dropout`.  They are intentionally small but
complete enough to express every model in the paper (GNNTrans and all graph
baselines).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .init import kaiming_uniform, xavier_uniform, zeros
from .tensor import Tensor, _unbroadcast, fused_op


class Parameter(Tensor):
    """A trainable tensor: it requires grad while its module trains.

    Kept as a distinct type so :meth:`Module.parameters` can find trainable
    leaves by ``isinstance`` without inspecting graph internals.  An
    :class:`~repro.nn.optim.Optimizer` makes :attr:`data` a view of its
    flat parameter buffer and gives the parameter a view of its flat
    gradient buffer, into which backward copies the first gradient of
    each step.
    """

    __slots__ = ("grad_view",)

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(data, requires_grad=True)
        self.grad_view: Optional[np.ndarray] = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is not None or self.grad_view is None:
            super()._accumulate(grad)
        elif self.requires_grad:
            self.grad_view[...] = _unbroadcast(
                np.asarray(grad, dtype=np.float64), self.data.shape)
            self.grad = self.grad_view


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; :meth:`parameters` walks the attribute tree recursively.

    :meth:`eval` also clears ``requires_grad`` on every parameter, so an
    eval-mode forward records no autograd tape: its outputs have no
    parents and no backward closures.  :meth:`train` turns gradients back
    on; :class:`~repro.nn.trainer.Trainer` calls it at every epoch.
    """

    def __init__(self) -> None:
        self.training = True

    # -- parameter bookkeeping ----------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return every trainable parameter reachable from this module."""
        params: List[Parameter] = []
        seen: set = set()
        self._collect(params, seen)
        return params

    def _collect(self, params: List[Parameter], seen: set) -> None:
        for value in self.__dict__.values():
            self._collect_value(value, params, seen)

    def _collect_value(self, value, params: List[Parameter], seen: set) -> None:
        if isinstance(value, Parameter):
            if id(value) not in seen:
                seen.add(id(value))
                params.append(value)
        elif isinstance(value, Module):
            value._collect(params, seen)
        elif isinstance(value, (list, tuple)):
            for item in value:
                self._collect_value(item, params, seen)
        elif isinstance(value, dict):
            for item in value.values():
                self._collect_value(item, params, seen)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    # -- train / eval mode --------------------------------------------
    def train(self) -> "Module":
        self._set_training(True)
        return self

    def eval(self) -> "Module":
        self._set_training(False)
        return self

    def _set_training(self, flag: bool) -> None:
        self.training = flag
        for value in self.__dict__.values():
            self._propagate_training(value, flag)

    def _propagate_training(self, value, flag: bool) -> None:
        if isinstance(value, Parameter):
            value.requires_grad = flag
        elif isinstance(value, Module):
            value._set_training(flag)
        elif isinstance(value, (list, tuple)):
            for item in value:
                self._propagate_training(item, flag)
        elif isinstance(value, dict):
            for item in value.values():
                self._propagate_training(item, flag)

    # -- state (de)serialization ----------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flatten every parameter into ``{path: array}`` for saving."""
        state: Dict[str, np.ndarray] = {}
        self._state_into(state, prefix="")
        return state

    def _state_into(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        for name, value in self.__dict__.items():
            self._state_value(state, f"{prefix}{name}", value)

    def _state_value(self, state: Dict[str, np.ndarray], key: str, value) -> None:
        if isinstance(value, Parameter):
            state[key] = value.data.copy()
        elif isinstance(value, Module):
            value._state_into(state, prefix=f"{key}.")
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                self._state_value(state, f"{key}.{i}", item)
        elif isinstance(value, dict):
            for k, item in value.items():
                self._state_value(state, f"{key}.{k}", item)

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters previously produced by :meth:`state_dict`.

        Keys of an older parameter layout are first rewritten by each
        submodule's :meth:`upgrade_state`.
        """
        state = dict(state)
        self._upgrade_tree(state, prefix="")
        own = self.state_dict()
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)}")
        self._load_from(state, prefix="")

    def upgrade_state(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        """Rewrite this module's legacy keys in ``state`` in place.

        ``prefix`` is this module's key prefix.  Modules whose parameter
        layout changed override it; the default has nothing to rewrite.
        """

    def _upgrade_tree(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        self.upgrade_state(state, prefix)
        for name, value in self.__dict__.items():
            self._upgrade_value(state, f"{prefix}{name}", value)

    def _upgrade_value(self, state: Dict[str, np.ndarray], key: str,
                       value) -> None:
        if isinstance(value, Module):
            value._upgrade_tree(state, prefix=f"{key}.")
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                self._upgrade_value(state, f"{key}.{i}", item)
        elif isinstance(value, dict):
            for k, item in value.items():
                self._upgrade_value(state, f"{key}.{k}", item)

    def _load_from(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        for name, value in self.__dict__.items():
            self._load_value(state, f"{prefix}{name}", value)

    def _load_value(self, state: Dict[str, np.ndarray], key: str, value) -> None:
        if isinstance(value, Parameter):
            if key in state:
                incoming = np.asarray(state[key], dtype=np.float64)
                if incoming.shape != value.data.shape:
                    raise ValueError(
                        f"shape mismatch for {key}: saved {incoming.shape}, "
                        f"model expects {value.data.shape}")
                value.data[...] = incoming
        elif isinstance(value, Module):
            value._load_from(state, prefix=f"{key}.")
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                self._load_value(state, f"{key}.{i}", item)
        elif isinstance(value, dict):
            for k, item in value.items():
                self._load_value(state, f"{key}.{k}", item)

    # -- call protocol --------------------------------------------------
    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Linear(Module):
    """Affine map ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input / output dimensionality.
    rng:
        Random generator for weight init.
    bias:
        If ``False`` the layer is a pure linear map (used for the attention
        projections ``W_Q``, ``W_K``, ``W_V`` of Eq. 2/3, which the paper
        writes without bias terms).
    activation:
        ``None``, ``"relu"`` or ``"tanh"``; selects the init scheme.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True,
                 activation: Optional[str] = None) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        if activation == "relu":
            weight = kaiming_uniform((in_features, out_features), rng)
        else:
            weight = xavier_uniform((in_features, out_features), rng)
        self.weight = Parameter(weight)
        self.bias = Parameter(zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """``(b, n, in_features)`` to ``(b, n, out_features)``, as one op.

        Bitwise ``x @ weight + bias``: the stacked matmul stays, since a
        flattened 2-D GEMM would change the bits.
        """
        weight, bias = self.weight, self.bias
        out = x.data @ weight.data
        if bias is not None:
            out += bias.data

        def backward(grad: np.ndarray) -> None:
            if bias is not None:
                bias._accumulate(grad)
            if x.requires_grad:
                x._accumulate(grad @ np.swapaxes(weight.data, -1, -2))
            weight._accumulate(np.swapaxes(x.data, -1, -2) @ grad)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return fused_op(out, parents, backward, "linear")

    def __repr__(self) -> str:
        return (f"Linear(in={self.in_features}, out={self.out_features}, "
                f"bias={self.bias is not None})")


class MLP(Module):
    """Multilayer perceptron with ReLU hidden activations.

    This is the prediction head of the paper (Eq. 5 and Eq. 6): path
    representations in, scalar slew/delay out.
    """

    def __init__(self, in_features: int, hidden: Sequence[int], out_features: int,
                 rng: np.random.Generator, dropout: float = 0.0) -> None:
        super().__init__()
        dims = [in_features] + list(hidden) + [out_features]
        self.layers = [
            Linear(dims[i], dims[i + 1], rng,
                   activation="relu" if i + 1 < len(dims) - 1 else None)
            for i in range(len(dims) - 1)
        ]
        self.dropout = Dropout(dropout, rng) if dropout > 0.0 else None

    def forward(self, x: Tensor) -> Tensor:
        """``(b, n, in_features)`` to ``(b, n, out_features)``, as one op.

        Bitwise the chain of :class:`Linear` layers with ReLU, then
        dropout, between them.
        """
        layers, last = self.layers, len(self.layers) - 1
        inputs, gates = [], []
        h = x.data
        for i, layer in enumerate(layers):
            inputs.append(h)
            h = h @ layer.weight.data
            if layer.bias is not None:
                h += layer.bias.data
            if i < last:
                gate = h > 0.0
                h = np.maximum(h, 0.0)
                mask = None if self.dropout is None \
                    else self.dropout.mask(h.shape)
                if mask is not None:
                    h = h * mask
                gates.append((gate, mask))

        def backward(grad: np.ndarray) -> None:
            for i in range(last, -1, -1):
                layer = layers[i]
                if i < last:
                    gate, mask = gates[i]
                    if mask is not None:
                        grad = grad * mask
                    grad = grad * gate
                if layer.bias is not None:
                    layer.bias._accumulate(grad)
                layer.weight._accumulate(
                    np.swapaxes(inputs[i], -1, -2) @ grad)
                if i == 0 and not x.requires_grad:
                    return
                grad = grad @ np.swapaxes(layer.weight.data, -1, -2)
            x._accumulate(grad)

        parents = (x,) + tuple(p for layer in layers
                               for p in (layer.weight, layer.bias)
                               if p is not None)
        return fused_op(h, parents, backward, "mlp")


class LayerNorm(Module):
    """Layer normalization over the last axis.

    Stabilizes the deep (L1 + L2 up to 30-layer) stacks the paper trains;
    applied inside the transformer layers.
    """

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.features = features
        self.eps = eps
        self.gamma = Parameter(np.ones((features,)))
        self.beta = Parameter(zeros((features,)))

    def forward(self, x: Tensor) -> Tensor:
        """``(b, n, features)`` in, the same shape out, as one op.

        Bitwise the composition ``c = x - mean(x)``, ``c * (mean(c * c) +
        eps) ** -0.5 * gamma + beta``: the backward pass replays that
        chain's vector-Jacobian products in its tape order, including
        both terms of ``c * c`` and the two separate contributions to
        ``x``, first through ``c`` and then through the mean.
        """
        gamma, beta = self.gamma, self.beta
        inv_count = 1.0 / x.shape[-1]
        data = x.data
        mean = data.sum(axis=-1, keepdims=True) * inv_count
        centered = data - mean
        shifted = (centered * centered).sum(axis=-1, keepdims=True) \
            * inv_count + self.eps
        rstd = shifted ** -0.5
        normalized = centered * rstd
        out = normalized * gamma.data
        out += beta.data

        def backward(grad: np.ndarray) -> None:
            beta._accumulate(grad)
            grad_normalized = grad * gamma.data
            gamma._accumulate(grad * normalized)
            if not x.requires_grad:
                return
            grad_centered = grad_normalized * rstd
            grad_rstd = _unbroadcast(grad_normalized * centered, rstd.shape)
            grad_var = grad_rstd * -0.5 * shifted ** -1.5
            square_term = (grad_var * inv_count) * centered
            grad_centered += square_term
            grad_centered += square_term
            x._accumulate(grad_centered)
            grad_mean = _unbroadcast(-grad_centered, mean.shape)
            x._accumulate(np.broadcast_to(grad_mean * inv_count, data.shape))

        return fused_op(out, (x, gamma, beta), backward, "layer_norm")


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng

    def mask(self, shape: Sequence[int]) -> Optional[np.ndarray]:
        """A fresh scaled keep-mask, or ``None`` when dropout is off."""
        if not self.training or self.p == 0.0:
            return None
        return (self.rng.random(shape) >= self.p) / (1.0 - self.p)

    def forward(self, x: Tensor) -> Tensor:
        mask = self.mask(x.shape)
        return x if mask is None else x * Tensor(mask)


class Sequential(Module):
    """Apply sub-modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)
