"""The :class:`Tensor` class — reverse-mode autodiff over NumPy arrays.

The design follows the classic tape-less "define-by-run" approach: every
differentiable operation returns a new :class:`Tensor` holding references to
its parents and a closure that accumulates gradients into them.  Calling
:meth:`Tensor.backward` performs a topological sort of the recorded graph and
executes the closures in reverse order.

Only the operations required by the SAGDFN model, its baselines, and the
benchmark harness are implemented, but each of them supports full NumPy
broadcasting, arbitrary batch dimensions, and is verified against numerical
gradients in the test-suite.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.tensor.context import is_grad_enabled
from repro.tensor.dtype import get_default_dtype

ArrayLike = "Tensor | np.ndarray | float | int | list | tuple"


def _as_array(value, dtype=None) -> np.ndarray:
    """Coerce ``value`` to a NumPy array of the engine's default dtype.

    An explicit ``dtype`` overrides the policy; see
    :mod:`repro.tensor.dtype` for the engine-wide default.
    """
    if isinstance(value, Tensor):
        value = value.data
    array = np.asarray(value, dtype=dtype if dtype is not None else get_default_dtype())
    return array


def _wrap_operand(value, like: np.ndarray) -> "Tensor":
    """Wrap the non-Tensor operand of a binary op.

    Scalars (python numbers, NumPy scalars, 0-d arrays) follow the dtype of
    the Tensor operand — like ``torch`` — so ``x + 1.0`` or ``1.0 / x`` never
    silently promotes a float32 graph to the float64 policy default.  Arrays
    and nested lists go through the normal policy coercion.
    """
    if isinstance(value, Tensor):
        return value
    if np.isscalar(value) or (isinstance(value, np.ndarray) and value.ndim == 0):
        if np.issubdtype(like.dtype, np.floating):
            return Tensor(value, dtype=like.dtype)
    return Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``shape`` after broadcasting.

    Broadcasting in the forward pass implicitly replicates data; the backward
    pass must therefore *sum* gradients over the replicated axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An n-dimensional array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a NumPy array (nested lists, scalars, arrays,
        another :class:`Tensor`).
    requires_grad:
        When ``True`` the tensor participates in the autograd graph and, if
        it is a leaf (not the result of an operation), its ``grad``
        attribute is populated by :meth:`backward`.
    name:
        Optional human-readable label used in ``repr`` and error messages.
    dtype:
        Explicit dtype of the stored array.  ``None`` (the default) coerces
        to the engine-wide policy dtype (:func:`repro.tensor.get_default_dtype`).
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents")

    __array_priority__ = 100  # ensure Tensor.__rmul__ wins over np.ndarray

    def __init__(self, data, requires_grad: bool = False, name: str | None = None, dtype=None):
        self.data = _as_array(data, dtype=dtype)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self.name = name
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the single scalar value held by this tensor."""
        return float(self.data.item())

    def tolist(self):
        return self.data.tolist()

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def copy(self) -> "Tensor":
        """Return a graph-detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast; gradients are cast back on the way down."""
        data = self.data.astype(dtype, copy=False)

        def backward(grad):
            return (grad,)

        return Tensor._make(data, (self,), backward)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create the output tensor of an operation, wiring the graph.

        The result keeps the dtype NumPy produced for ``data`` (operations
        follow their operands) rather than re-coercing to the policy dtype,
        so mixed-precision graphs behave like plain NumPy promotion.
        """
        requires_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
        data = np.asarray(data)
        out = Tensor(data, requires_grad=requires_grad, dtype=data.dtype)
        if requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this leaf tensor's ``.grad`` buffer.

        Results of operations keep no ``.grad``: their gradient only flows
        through :meth:`backward`, and a retained copy per graph node doubled
        the peak memory of a training step.
        """
        if not self.requires_grad or self._backward is not None:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Back-propagate gradients from this tensor through the graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1.0``, which requires this tensor to be a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient is only valid for scalars; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        # Topological order of the graph reachable from ``self``.
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
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Seed and propagate.
        grads: dict[int, np.ndarray] = {id(self): grad}
        self._accumulate(grad)
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None or node._backward is None:
                continue
            contributions = node._backward(node_grad)
            for parent, contribution in zip(node._parents, contributions):
                if contribution is None or not parent.requires_grad:
                    continue
                contribution = _unbroadcast(
                    np.asarray(contribution, dtype=parent.data.dtype), parent.data.shape
                )
                parent._accumulate(contribution)
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + contribution
                else:
                    grads[id(parent)] = contribution

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = _wrap_operand(other, self.data)
        data = self.data + other.data

        def backward(grad):
            return grad, grad

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = _wrap_operand(other, self.data)
        data = self.data - other.data

        def backward(grad):
            return grad, -grad

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return _wrap_operand(other, self.data) - self

    def __mul__(self, other) -> "Tensor":
        other = _wrap_operand(other, self.data)
        data = self.data * other.data
        self_data, other_data = self.data, other.data

        def backward(grad):
            return grad * other_data, grad * self_data

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _wrap_operand(other, self.data)
        data = self.data / other.data
        self_data, other_data = self.data, other.data

        def backward(grad):
            grad_self = grad / other_data
            grad_other = -grad * self_data / (other_data**2)
            return grad_self, grad_other

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _wrap_operand(other, self.data) / self

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad):
            return (-grad,)

        return Tensor._make(data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            exponent = exponent.item() if exponent.size == 1 else exponent.data
        data = self.data**exponent
        self_data = self.data

        def backward(grad):
            return (grad * exponent * self_data ** (exponent - 1),)

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other) -> "Tensor":
        """Matrix product supporting batched operands (``np.matmul`` rules)."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data
        a, b = self.data, other.data

        def backward(grad):
            if a.ndim == 1 and b.ndim == 1:
                return grad * b, grad * a
            if a.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                grad_a = (grad[..., None, :] * b).sum(axis=-1)
                grad_a = _unbroadcast(grad_a, a.shape)
                grad_b = a[..., :, None] * grad[..., None, :]
                return grad_a, _unbroadcast(grad_b, b.shape)
            if b.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                grad_a = grad[..., :, None] * b
                grad_b = (a * grad[..., :, None]).sum(axis=tuple(range(a.ndim - 1)))
                return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)
            grad_a = grad @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ grad
            return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Element-wise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad):
            return (grad * data,)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)
        self_data = self.data

        def backward(grad):
            return (grad / self_data,)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad):
            return (grad * 0.5 / np.maximum(data, 1e-12),)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - data**2),)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad):
            return (grad * data * (1.0 - data),)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad):
            return (grad * sign,)

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float | None = None, high: float | None = None) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = np.ones_like(self.data)
        if low is not None:
            mask = mask * (self.data >= low)
        if high is not None:
            mask = mask * (self.data <= high)

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        input_shape = self.data.shape

        def backward(grad):
            grad = np.asarray(grad)
            if axis is None:
                return (np.broadcast_to(grad, input_shape).copy(),)
            axes = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                for ax in sorted(a % len(input_shape) for a in axes):
                    grad = np.expand_dims(grad, ax)
            return (np.broadcast_to(grad, input_shape).copy(),)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        input_shape = self.data.shape

        def backward(grad):
            grad = np.asarray(grad)
            if axis is None:
                mask = (self.data == self.data.max()).astype(self.data.dtype)
                mask /= mask.sum()
                return (mask * grad,)
            expanded = data if keepdims else np.expand_dims(data, axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            grad_expanded = grad if keepdims else np.expand_dims(grad, axis)
            return (mask * np.broadcast_to(grad_expanded, input_shape),)

        return Tensor._make(data, (self,), backward)

    def min(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad):
            return (grad.transpose(inverse),)

        return Tensor._make(data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    def squeeze(self, axis: int | None = None) -> "Tensor":
        original = self.data.shape
        data = self.data.squeeze(axis=axis)

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(data, (self,), backward)

    def unsqueeze(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis)
        original = self.data.shape

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(data, (self,), backward)

    def broadcast_to(self, shape: tuple[int, ...]) -> "Tensor":
        data = np.broadcast_to(self.data, shape).copy()
        original = self.data.shape

        def backward(grad):
            return (_unbroadcast(grad, original),)

        return Tensor._make(data, (self,), backward)

    def repeat(self, repeats: int, axis: int) -> "Tensor":
        """Tile the tensor ``repeats`` times along ``axis`` (like ``np.repeat``)."""
        data = np.repeat(self.data, repeats, axis=axis)
        original = self.data.shape

        def backward(grad):
            new_shape = list(original)
            new_shape.insert(axis + 1, repeats)
            grad = grad.reshape(new_shape).sum(axis=axis + 1)
            return (grad,)

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        original_shape = self.data.shape
        dtype = self.data.dtype

        def backward(grad):
            full = np.zeros(original_shape, dtype=dtype)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor._make(data, (self,), backward)

    def pad(self, pad_width: Sequence[tuple[int, int]]) -> "Tensor":
        """Zero-pad, ``pad_width`` following ``np.pad`` conventions."""
        data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(before, before + size)
            for (before, _), size in zip(pad_width, self.data.shape)
        )

        def backward(grad):
            return (grad[slices],)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Comparisons (non-differentiable, return plain arrays)
    # ------------------------------------------------------------------ #
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other


# ---------------------------------------------------------------------- #
# Free functions operating on several tensors
# ---------------------------------------------------------------------- #
def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(grad):
        grads = []
        start = 0
        for size in sizes:
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, start + size)
            grads.append(grad[tuple(index)])
            start += size
        return tuple(grads)

    return Tensor._make(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(data, tensors, backward)


def where(condition, a, b) -> Tensor:
    """Differentiable element-wise selection ``condition ? a : b``."""
    condition = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    data = np.where(condition, a.data, b.data)

    def backward(grad):
        return np.where(condition, grad, 0.0), np.where(condition, 0.0, grad)

    return Tensor._make(data, (a, b), backward)


def maximum(a, b) -> Tensor:
    """Differentiable element-wise maximum (ties send gradient to ``a``)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    mask = a.data >= b.data
    data = np.where(mask, a.data, b.data)

    def backward(grad):
        return np.where(mask, grad, 0.0), np.where(mask, 0.0, grad)

    return Tensor._make(data, (a, b), backward)


def minimum(a, b) -> Tensor:
    """Differentiable element-wise minimum (ties send gradient to ``a``)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    mask = a.data <= b.data
    data = np.where(mask, a.data, b.data)

    def backward(grad):
        return np.where(mask, grad, 0.0), np.where(mask, 0.0, grad)

    return Tensor._make(data, (a, b), backward)
