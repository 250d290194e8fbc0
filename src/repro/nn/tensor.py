"""Array-valued reverse-mode automatic differentiation.

This module provides the :class:`Tensor` class, a thin wrapper around a
``numpy.ndarray`` that records the operations applied to it so gradients can
be propagated backwards with :meth:`Tensor.backward`.

The design follows the classic define-by-run tape: every operation returns a
new :class:`Tensor` holding references to its parent tensors and a closure
computing the local vector-Jacobian product.  A topological sort of that
graph drives back-propagation.

Only the operations needed by the GNNTrans model family are implemented, but
each is implemented with full broadcasting support so the framework is usable
for general small-scale deep learning on CPU.

Example
-------
>>> import numpy as np
>>> from repro.nn import Tensor
>>> w = Tensor(np.ones((2, 2)), requires_grad=True)
>>> x = Tensor(np.array([[1.0, 2.0]]))
>>> y = (x @ w).sum()
>>> y.backward()
>>> w.grad
array([[1., 2.],
       [1., 2.]])
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    When a forward op broadcast an operand from ``shape`` up to the output
    shape, the gradient flowing back must be reduced over the broadcast axes
    so that ``grad.shape == shape`` again.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array (or scalar / nested sequence) holding the value.  Always stored
        as ``float64`` for numerical robustness on small models.
    requires_grad:
        If ``True``, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        _op: str = "leaf",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._op = _op

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(other: Union["Tensor", ArrayLike]) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self._backward_fn is None:
            # A leaf owns its gradient, which callers may scale in place.
            if self.grad is None:
                self.grad = grad.copy()
            else:
                self.grad += grad
        elif self.grad is None:
            # An op's first gradient is kept as it is: no backward pass
            # writes into a gradient it was handed.
            self.grad = grad
        else:
            # Out of place, because the first array may be a view that
            # another node holds.
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return fused_op(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return fused_op(-self.data, (self,), backward, "neg")

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return fused_op(out_data, (self, other), backward, "sub")

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._wrap(other) - self

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return fused_op(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data ** 2))

        return fused_op(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._wrap(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return fused_op(out_data, (self,), backward, "pow")

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other._accumulate(grad * a)
            elif a.ndim == 1:
                self._accumulate(grad @ np.swapaxes(b, -1, -2))
                other._accumulate(np.outer(a, grad))
            elif b.ndim == 1:
                self._accumulate(np.outer(grad, b) if a.ndim == 2 else grad[..., None] * b)
                other._accumulate(np.swapaxes(a, -1, -2) @ grad if a.ndim == 2
                                  else _unbroadcast((np.swapaxes(a, -1, -2) @ grad[..., None])[..., 0], b.shape))
            else:
                ga = grad @ np.swapaxes(b, -1, -2)
                gb = np.swapaxes(a, -1, -2) @ grad
                self._accumulate(_unbroadcast(ga, a.shape))
                other._accumulate(_unbroadcast(gb, b.shape))

        return fused_op(out_data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return fused_op(out_data, (self,), backward, "reshape")

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            inverse = None if axes is None else np.argsort(axes)
            self._accumulate(grad.transpose(inverse))

        return fused_op(out_data, (self,), backward, "transpose")

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        input_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(input_shape, dtype=np.float64)
            # Basic indexing (ints, slices, ``...``, ``None``) reaches each
            # element at most once, so its gradient is assigned; only
            # advanced indexing, which may repeat an element, needs
            # ``np.add.at``.
            basic = all(
                (isinstance(item, (int, np.integer, slice))
                 and not isinstance(item, bool))
                or item is None or item is Ellipsis
                for item in (index if isinstance(index, tuple) else (index,)))
            if basic:
                full[index] = grad
            else:
                np.add.at(full, index, grad)
            self._accumulate(full)

        return fused_op(out_data, (self,), backward, "getitem")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        input_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % len(input_shape) for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, input_shape))

        return fused_op(out_data, (self,), backward, "sum")

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if axis is None:
                mask = (self.data == self.data.max()).astype(np.float64)
                mask /= mask.sum()
                self._accumulate(mask * grad)
            else:
                expanded = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == expanded).astype(np.float64)
                mask /= mask.sum(axis=axis, keepdims=True)
                g = grad if keepdims else np.expand_dims(grad, axis)
                self._accumulate(mask * g)

        return fused_op(out_data, (self,), backward, "max")

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0.0))

        return fused_op(out_data, (self,), backward, "relu")

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return fused_op(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return fused_op(out_data, (self,), backward, "log")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return fused_op(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return fused_op(out_data, (self,), backward, "sigmoid")

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return fused_op(out_data, (self,), backward, "abs")

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        out_data = np.where(self.data > 0.0, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.where(self.data > 0.0, 1.0, negative_slope))

        return fused_op(out_data, (self,), backward, "leaky_relu")

    def softmax(self, axis: int = -1, scale: float = 1.0,
                bias: Optional[np.ndarray] = None) -> "Tensor":
        """Softmax of ``self * scale + bias`` along ``axis``, as one op.

        ``bias`` is a constant, such as an attention mask holding
        ``-inf`` on keys that must get zero weight; every softmax row
        needs one finite entry.  Fusing the scale and the mask keeps one
        logits array on the tape instead of three.
        """
        out_data = softmax_data(self.data, axis, scale, bias)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(softmax_vjp(out_data, grad, axis, scale))

        return fused_op(out_data, (self,), backward, "softmax")

    # ------------------------------------------------------------------
    # Back-propagation driver
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate gradients from this tensor through the graph.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to ones (only valid starting from a
            scalar or when a full seed is intended).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient seed requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            # Leaves are left out: they have nothing to pass on, and an
            # op's node always requires grad.
            for parent in node._parents:
                if parent._backward_fn is not None \
                        and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node.grad is not None and node._backward_fn is not None:
                node._backward_fn(node.grad)
                # Only leaves keep their gradient; an intermediate one is
                # spent once it has been passed on.
                node.grad = None


def fused_op(data: np.ndarray, parents: Tuple[Tensor, ...],
             backward: Callable[[np.ndarray], None], op: str) -> Tensor:
    """One tape node: ``data`` with ``backward`` as its vector-Jacobian
    product, or a constant when no parent requires grad.

    Every op records itself through this, the primitives of
    :class:`Tensor` and the fused ops of the layers alike.  A fused op
    replaces a chain of primitives with one node whose hand-written
    ``backward`` evaluates the same numpy expressions, in the same order,
    as the chain's backward passes, so its gradients are bitwise the
    chain's.  ``backward`` hands each parent its gradient through
    ``_accumulate``, once per contribution the chain made, and never
    writes into the ``grad`` it is handed.
    """
    for parent in parents:
        if parent.requires_grad:
            return Tensor(data, requires_grad=True, _parents=parents,
                          _backward_fn=backward, _op=op)
    return Tensor(data)


def softmax_data(logits: np.ndarray, axis: int, scale: float = 1.0,
                 bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax of ``logits * scale + bias`` along ``axis``, a new array."""
    # One fresh array, updated in place: an attention pack's logits are
    # its largest arrays.
    out = logits * scale
    if bias is not None:
        out += bias
    out -= out.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax_vjp(out: np.ndarray, grad: np.ndarray, axis: int,
                scale: float = 1.0) -> np.ndarray:
    """Gradient of :func:`softmax_data`'s logits: ``out * (grad - sum(grad
    * out)) * scale``, given its output ``out``."""
    dot = (grad * out).sum(axis=axis, keepdims=True)
    local = out * (grad - dot)
    return local * scale if scale != 1.0 else local


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing.

    This is the operation written ``||`` in the GNNTrans paper (Eq. 3 and
    Eq. 4): multi-head outputs and path features are concatenated before the
    next linear map.
    """
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat() requires at least one tensor")
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)
    ax = axis % out_data.ndim

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * out_data.ndim
            slicer[ax] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])

    return fused_op(out_data, tuple(tensors), backward, "concat")


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("stack() requires at least one tensor")
    out_data = np.stack([t.data for t in tensors], axis=axis)
    ax = axis % out_data.ndim

    def backward(grad: np.ndarray) -> None:
        for i, tensor in enumerate(tensors):
            tensor._accumulate(np.take(grad, i, axis=ax))

    return fused_op(out_data, tuple(tensors), backward, "stack")


def matmul_const(matrix: np.ndarray, tensor: Tensor) -> Tensor:
    """Multiply a constant matrix by a tensor: ``matrix @ tensor``.

    Used for fixed aggregation operators such as the resistance-weighted
    adjacency matrix in the GNN module (Eq. 1), where the matrix carries no
    gradient but the node representations do.  ``matrix`` may be a stack
    ``(B, M, N)`` of per-net operators applied to ``tensor`` of shape
    ``(B, N, F)``; the backward pass transposes only its last two axes.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    out_data = matrix @ tensor.data

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(np.swapaxes(matrix, -1, -2) @ grad)

    return fused_op(out_data, (tensor,), backward, "matmul_const")
