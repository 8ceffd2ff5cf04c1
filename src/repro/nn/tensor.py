"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the neural-network substrate used by the
LTE meta-learner.  It implements a small but complete autograd engine:
a :class:`Tensor` wraps a numpy array and records the operations applied to
it; calling :meth:`Tensor.backward` propagates gradients to every tensor
with ``requires_grad=True`` via a topological sort of the recorded graph.

The design mirrors the core of PyTorch's autograd (which the paper's
implementation relies on) at a fraction of the surface area, and is verified
against numerical differentiation in ``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

__all__ = ["Tensor", "Parameter", "no_grad", "is_grad_enabled",
           "stable_sigmoid"]


class _GradMode(threading.local):
    """How many ``no_grad()`` blocks the *current thread* is inside: a
    thread evaluating under ``no_grad()`` must not switch graph
    recording off for a thread training beside it."""

    depth = 0


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode) in
    the calling thread."""
    _GRAD_MODE.depth += 1
    try:
        yield
    finally:
        _GRAD_MODE.depth -= 1


def is_grad_enabled():
    """Return True when operations should record the autograd graph."""
    return _GRAD_MODE.depth == 0


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over the leading axes that broadcasting added.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def stable_sigmoid(data):
    """Logistic function of a raw array (exp of non-positive values
    only): the one formula behind :meth:`Tensor.sigmoid` and the
    Tensor-free inference path, so both give the same bits."""
    out = np.empty_like(data)
    pos = data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-data[pos]))
    exp_x = np.exp(data[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out


def _as_array(value):
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got Tensor")
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy array with reverse-mode autograd support.

    Parameters
    ----------
    data:
        Array-like payload; stored as ``float64`` for gradient-check accuracy.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        self._parents = ()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(other):
        return other if isinstance(other, Tensor) else Tensor(other)

    @staticmethod
    def _from_op(data, parents, backward):
        """Create a graph node. ``backward(grad)`` yields per-parent grads."""
        track = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=track)
        if track:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return "Tensor({!r}{})".format(self.data, grad_flag)

    def item(self):
        return float(self.data)

    def numpy(self):
        """Return the underlying numpy array (shared, not copied)."""
        return self.data

    def detach(self):
        """Return a new tensor sharing data but detached from the graph."""
        out = Tensor(self.data)
        return out

    def zero_grad(self):
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._wrap(other)

        def backward(grad):
            return (_unbroadcast(grad, self.shape),
                    _unbroadcast(grad, other.shape))

        return self._from_op(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            return (-grad,)

        return self._from_op(-self.data, (self,), backward)

    def __sub__(self, other):
        other = self._wrap(other)

        def backward(grad):
            return (_unbroadcast(grad, self.shape),
                    _unbroadcast(-grad, other.shape))

        return self._from_op(self.data - other.data, (self, other), backward)

    def __rsub__(self, other):
        return self._wrap(other).__sub__(self)

    def __mul__(self, other):
        other = self._wrap(other)

        def backward(grad):
            return (_unbroadcast(grad * other.data, self.shape),
                    _unbroadcast(grad * self.data, other.shape))

        return self._from_op(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)

        def backward(grad):
            ga = _unbroadcast(grad / other.data, self.shape)
            gb = _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
            return (ga, gb)

        return self._from_op(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._wrap(other).__truediv__(self)

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return self._from_op(self.data ** exponent, (self,), backward)

    def __matmul__(self, other):
        other = self._wrap(other)

        def backward(grad):
            a, b = self.data, other.data
            # Matmul backward is the hot path's most expensive op; skip
            # the gemm for a side that cannot receive gradient (e.g. the
            # constant input batch of a Linear layer).
            need_a = self.requires_grad or self._backward is not None
            need_b = other.requires_grad or other._backward is not None
            if a.ndim == 1 and b.ndim == 1:  # dot product -> scalar
                return (grad * b if need_a else None,
                        grad * a if need_b else None)
            if a.ndim == 1:  # (k,) @ (k, n) -> (n,)
                return (grad @ b.T if need_a else None,
                        np.outer(a, grad) if need_b else None)
            if b.ndim == 1:  # (m, k) @ (k,) -> (m,)
                return (np.outer(grad, b) if need_a else None,
                        a.T @ grad if need_b else None)
            ga = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape) \
                if need_a else None
            gb = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape) \
                if need_b else None
            return (ga, gb)

        return self._from_op(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def relu(self):
        mask = self.data > 0

        def backward(grad):
            return (grad * mask,)

        return self._from_op(self.data * mask, (self,), backward)

    def sigmoid(self):
        out_data = stable_sigmoid(self.data)

        def backward(grad):
            return (grad * out_data * (1.0 - out_data),)

        return self._from_op(out_data, (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - out_data ** 2),)

        return self._from_op(out_data, (self,), backward)

    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            return (grad * out_data,)

        return self._from_op(out_data, (self,), backward)

    def log(self):
        def backward(grad):
            return (grad / self.data,)

        return self._from_op(np.log(self.data), (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(grad):
            return (grad * 0.5 / out_data,)

        return self._from_op(out_data, (self,), backward)

    def abs(self):
        sign = np.sign(self.data)

        def backward(grad):
            return (grad * sign,)

        return self._from_op(np.abs(self.data), (self,), backward)

    def clip(self, low, high):
        mask = (self.data > low) & (self.data < high)

        def backward(grad):
            return (grad * mask,)

        return self._from_op(np.clip(self.data, low, high), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return self._from_op(self.data.sum(axis=axis, keepdims=keepdims),
                             (self,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]

        def backward(grad):
            g = np.asarray(grad) / count
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return self._from_op(self.data.mean(axis=axis, keepdims=keepdims),
                             (self,), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape

        def backward(grad):
            return (grad.reshape(old_shape),)

        return self._from_op(self.data.reshape(shape), (self,), backward)

    def flatten(self):
        return self.reshape(-1)

    def swapaxes(self, axis1, axis2):
        """Exchange two axes (the batched analogue of ``.T``).

        ``.T`` reverses *all* axes, which is wrong for stacked (K x m x n)
        parameter tensors where the batch axis must stay put; the serving
        hot path transposes per-task matrices with ``swapaxes(-1, -2)``.
        """
        def backward(grad):
            return (np.swapaxes(grad, axis1, axis2),)

        return self._from_op(np.swapaxes(self.data, axis1, axis2),
                             (self,), backward)

    @property
    def T(self):
        def backward(grad):
            return (grad.T,)

        return self._from_op(self.data.T, (self,), backward)

    def __getitem__(self, index):
        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return (full,)

        return self._from_op(self.data[index], (self,), backward)

    @staticmethod
    def concat(tensors, axis=-1):
        """Concatenate tensors along ``axis`` with gradient support."""
        tensors = [Tensor._wrap(t) for t in tensors]
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def backward(grad):
            return tuple(np.ascontiguousarray(g)
                         for g in np.split(grad, splits, axis=axis))

        data = np.concatenate([t.data for t in tensors], axis=axis)
        return Tensor._from_op(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors, axis=0):
        """Stack tensors along a new ``axis`` with gradient support."""
        tensors = [Tensor._wrap(t) for t in tensors]

        def backward(grad):
            moved = np.moveaxis(grad, axis, 0)
            return tuple(np.ascontiguousarray(moved[i])
                         for i in range(len(tensors)))

        data = np.stack([t.data for t in tensors], axis=axis)
        return Tensor._from_op(data, tuple(tensors), backward)

    # ------------------------------------------------------------------
    # Backpropagation
    # ------------------------------------------------------------------
    def backward(self, grad=None):
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        order = []
        seen = set()

        def visit(node):
            stack = [(node, False)]
            while stack:
                cur, processed = stack.pop()
                if processed:
                    order.append(cur)
                    continue
                if id(cur) in seen:
                    continue
                seen.add(id(cur))
                stack.append((cur, True))
                for parent in cur._parents:
                    if id(parent) not in seen:
                        stack.append((parent, False))

        visit(self)

        grads = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate.
                node.grad = node_grad if node.grad is None \
                    else node.grad + node_grad
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not (parent.requires_grad
                                         or parent._backward is not None):
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad


class Parameter(Tensor):
    """A tensor that is a trainable module parameter.

    Like every :class:`Tensor` it wraps a float64 array without copying
    it, and the optimizers update ``data`` in place: hand over a copy of
    any array that must survive training.
    """

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    def copy_(self, data):
        """In-place overwrite of the parameter value (keeps identity)."""
        array = data.data if isinstance(data, Tensor) else np.asarray(data)
        if array.shape != self.data.shape:
            raise ValueError("shape mismatch in copy_: {} vs {}".format(
                array.shape, self.data.shape))
        self.data = array.astype(np.float64).copy()
        return self

    # -- state dict protocol (mirrors Module, for standalone parameters) --
    def state_dict(self):
        """Deep copy of the parameter value (checkpointable leaf)."""
        return self.data.copy()

    def load_state_dict(self, state):
        """Inverse of :meth:`state_dict`; in-place, keeps identity."""
        return self.copy_(state)
