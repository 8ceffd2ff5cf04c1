"""Reverse-mode automatic differentiation on numpy arrays, as the oracle.

The paper implements its meta-learner on PyTorch; this small autograd
engine stood in for PyTorch's: a :class:`Tensor` wraps a numpy array
and records the operations applied to it, and :meth:`Tensor.backward`
propagates gradients to every tensor with ``requires_grad=True`` via a
topological sort of the recorded graph.  Until every stacked forward and
backward became one array program (:func:`repro.nn.batching.step_program`)
and every prediction the raw-array kernel
(:func:`repro.nn.batching.inference_logits`), ``src/`` trained and
scored through it.  The bodies below are that code, moved here verbatim
when ``src/`` stopped using it (``self`` became an argument where a
method left its class): the engine with the ops some oracle calls, the
graph losses, the conversion op, the layers' forwards as :func:`apply`
and ``UISClassifier.forward`` as :func:`forward`.  The gradient checks
(``tests/nn/test_gradcheck.py``) verify it against numerical
differentiation, and the parity suites hold ``src/`` to it.

A :class:`~repro.nn.Parameter` is a plain holder of ``data`` and
``grad``: the graph takes it as one leaf per forward (``Tensor._wrap``)
and leaves its gradient on ``param.grad``, so the oracles step
``repro.nn.Adam`` / ``SGD`` on real models.  Nothing in ``src/``
imports this module.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from repro.nn.batching import stable_sigmoid
from repro.nn.functional import (conversion_constant, conversion_grads,
                                 conversion_weight)
from repro.nn.layers import Linear, Module, Parameter, ReLU, Sequential


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


def _as_array(value):
    if isinstance(value, (Tensor, Parameter)):
        raise TypeError("expected raw data, got {}".format(
            type(value).__name__))
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
        if isinstance(other, Tensor):
            return other
        return _Leaf(other) if isinstance(other, Parameter) else Tensor(other)

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

    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            return (grad * out_data,)

        return self._from_op(out_data, (self,), backward)

    def log(self):
        def backward(grad):
            return (grad / self.data,)

        return self._from_op(np.log(self.data), (self,), backward)

    def abs(self):
        sign = np.sign(self.data)

        def backward(grad):
            return (grad * sign,)

        return self._from_op(np.abs(self.data), (self,), backward)

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

    def swapaxes(self, axis1, axis2):
        """Exchange two axes (the batched analogue of ``.T``).

        ``.T`` reverses *all* axes, which is wrong for stacked (K x m x n)
        parameter tensors where the batch axis must stay put.
        """
        def backward(grad):
            return (np.swapaxes(grad, axis1, axis2),)

        return self._from_op(np.swapaxes(self.data, axis1, axis2),
                             (self,), backward)

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


class _Leaf(Tensor):
    """A :class:`~repro.nn.Parameter` as a graph leaf: its array, not a
    copy, and its gradient accumulated on ``param.grad`` — what the
    ``Parameter`` that was a ``Tensor`` did itself."""

    __slots__ = ("param",)

    def __init__(self, param):
        self.param = param
        self.data = param.data
        self.requires_grad = True
        self._backward = None
        self._parents = ()

    @property
    def grad(self):
        return self.param.grad

    @grad.setter
    def grad(self, value):
        self.param.grad = value


# ----------------------------------------------------------------------
# Losses (``repro.nn.functional`` as it was)
# ----------------------------------------------------------------------
def binary_cross_entropy_with_logits(logits, targets, reduction="mean",
                                     pos_weight=None):
    """BCE loss on raw logits.

    Uses the standard stable formulation
    ``max(z, 0) - z*y + log(1 + exp(-|z|))`` so that no intermediate
    overflows for large magnitude logits.

    Parameters
    ----------
    logits:
        Tensor of raw classifier scores (any shape).
    targets:
        Array-like of 0/1 labels broadcastable to ``logits``.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    pos_weight:
        Optional scalar weight multiplying the positive-example terms —
        counteracts class imbalance in few-shot exploration, where an
        interest region often covers a small fraction of the labelled
        tuples.
    """
    logits = Tensor._wrap(logits)
    targets = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets,
        dtype=np.float64)
    # max(z,0) - z*y + log1p(exp(-|z|)), assembled from differentiable ops:
    # relu(z) - z*y + softplus(-|z|)
    softplus = (1.0 + (-logits.abs()).exp()).log()
    losses = logits.relu() - logits * targets + softplus
    if pos_weight is not None and pos_weight != 1.0:
        weights = np.where(targets == 1.0, float(pos_weight), 1.0)
        losses = losses * weights
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    if reduction == "none":
        return losses
    raise ValueError("unknown reduction: {!r}".format(reduction))


def balanced_pos_weight(targets, cap=10.0):
    """n_negative / n_positive, capped; 1.0 when a class is absent."""
    targets = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets,
        dtype=np.float64).ravel()
    n_pos = float((targets == 1).sum())
    n_neg = float((targets == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return 1.0
    return float(min(cap, n_neg / n_pos))


def batched_binary_cross_entropy_with_logits(logits, targets, pos_weight=None,
                                             reduction="mean"):
    """Per-task BCE over a stacked (K, n) logit batch.

    A stacked program trains K independent few-shot tasks at once; each
    task's loss must reduce over *its own* examples
    only, so the reduction runs along the last axis and returns a (K,)
    tensor (one loss per task).  Summing that vector and calling backward
    yields for every task exactly the gradient the sequential per-task
    ``binary_cross_entropy_with_logits(...).mean()`` would.

    Parameters
    ----------
    logits:
        Tensor of shape (K, n) — K tasks, n examples each.
    targets:
        0/1 array broadcastable to ``logits``.
    pos_weight:
        Optional per-task positive-class weights, shape (K, 1) (or a
        scalar applied to every task).
    reduction:
        ``"mean"`` / ``"sum"`` over each task's examples, or ``"none"``.
    """
    logits = Tensor._wrap(logits)
    targets = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets,
        dtype=np.float64)
    softplus = (1.0 + (-logits.abs()).exp()).log()
    losses = logits.relu() - logits * targets + softplus
    if pos_weight is not None:
        pos_weight = np.asarray(pos_weight, dtype=np.float64)
        weights = np.where(targets == 1.0,
                           np.broadcast_to(pos_weight, targets.shape), 1.0)
        losses = losses * weights
    if reduction == "mean":
        return losses.mean(axis=-1)
    if reduction == "sum":
        return losses.sum(axis=-1)
    if reduction == "none":
        return losses
    raise ValueError("unknown reduction: {!r}".format(reduction))


# ----------------------------------------------------------------------
# The conversion op (Eq. 9 plus the interaction term)
# ----------------------------------------------------------------------
def conversion_rows(emb_r, emb_tau, conversion, constant):
    """``[emb_R, emb_tau, emb_R * emb_tau] @ M_cp^T`` on raw arrays, by
    blocks, given ``constant`` = ``conversion_constant``; returns
    ``(z, W)``.

    ``emb_r`` is ONE row per task, (..., 1, Ne), so two of the three
    blocks of ``M_cp = [M1 | M2 | M3]`` multiply a per-task constant:
    with ``W`` = ``conversion_weight`` the product is ``emb_tau @
    W^T + emb_R @ M1^T`` — one
    (n, Ne) x (Ne, Ne) product a task where the combined row needs
    (n, 3Ne) x (3Ne, Ne), and that row is never built.  Rank-agnostic
    over leading task axes: (..., n, Ne) rows and a (..., Ne, 3Ne)
    matrix give (..., n, Ne), slice k the bits of the per-task call.
    """
    w = conversion_weight(emb_r, conversion)
    z = emb_tau @ np.swapaxes(w, -1, -2)
    z += constant
    return z, w


def convert_embeddings(emb_r, emb_tau, conversion):
    """Differentiable :func:`conversion_rows` (Eq. 9 plus the
    interaction term): (..., 1, Ne), (..., n, Ne), (..., Ne, 3Ne) ->
    (..., n, Ne), the operands' leading axes equal.

    Backward, with ``G`` the incoming gradient, ``dc = G.sum(rows)`` and
    ``dW = G^T @ emb_tau``: ``d emb_tau = G @ W``, ``d emb_R = dc @ M1 +
    (dW * M3).sum(rows)`` and ``dM = [dc^T emb_R | dW | dW * emb_R]``,
    written by slices into one C-contiguous array so the optimizer's
    flat blocks view it without a copy (the conversion matrix is half of
    all trained elements); ``conversion_grads`` spells it.  A side
    that takes no gradient is skipped — joint pretraining's conversion
    is a constant.
    """
    emb_r, emb_tau = Tensor._wrap(emb_r), Tensor._wrap(emb_tau)
    conversion = Tensor._wrap(conversion)
    lead = emb_tau.shape[:-2]
    if emb_r.shape[:-2] != lead or conversion.shape[:-2] != lead \
            or emb_r.shape[-2] != 1:
        raise ValueError(
            "convert_embeddings needs (..., 1, Ne), (..., n, Ne) and "
            "(..., Ne, 3Ne) over the same leading axes, got {}, {}, {}"
            .format(emb_r.shape, emb_tau.shape, conversion.shape))
    z, w = conversion_rows(emb_r.data, emb_tau.data, conversion.data,
                           conversion_constant(emb_r.data, conversion.data))

    def backward(grad):
        need_r, need_x, need_m = (t.requires_grad or t._backward is not None
                                  for t in (emb_r, emb_tau, conversion))
        return conversion_grads(grad, emb_r.data, emb_tau.data,
                                conversion.data, w, need_r, need_x, need_m)

    return Tensor._from_op(z, (emb_r, emb_tau, conversion), backward)


# ----------------------------------------------------------------------
# The modules' forwards
# ----------------------------------------------------------------------
class Sigmoid(Module):
    """Elementwise logistic activation."""

    def __repr__(self):
        return "Sigmoid()"


def apply(module, x):
    """``module(x)`` as the layers' ``forward`` methods computed it: a
    ``Linear`` is ``x @ weight + bias``, a ``ReLU`` and a
    :class:`Sigmoid` their activation, a ``Sequential`` its children in
    order.  A stack's leaves (``repro.nn.batching.stack_leaves``) run as
    the stacked layers they stand for: a ``(weight, bias)`` pair is
    ``x @ weight + bias``, a None the rectifier."""
    if isinstance(module, tuple):
        for leaf in module:
            x = Tensor._wrap(x).relu() if leaf is None else _affine(x, *leaf)
        return x
    if isinstance(module, Sequential):
        for child in module:
            x = apply(child, x)
        return x
    if isinstance(module, ReLU):
        return Tensor._wrap(x).relu()
    if isinstance(module, Sigmoid):
        return Tensor._wrap(x).sigmoid()
    if not isinstance(module, Linear):
        raise TypeError("no forward for module of type {}".format(
            type(module)))
    return _affine(x, module.weight, module.bias)


def _affine(x, weight, bias):
    x = Tensor._wrap(x)
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def forward(model, feature_vector, tuple_vectors, conversion=None):
    """``UISClassifier.forward``: interestingness logits for a batch of
    tuples.

    Parameters
    ----------
    feature_vector:
        The UIS feature vector ``v_R`` (length ku) for the current task.
    tuple_vectors:
        (n x input_width) preprocessed tuple representations.
    conversion:
        Optional (embed_size x 3*embed_size) task-wise conversion
        matrix ``M_cp`` (required iff ``use_conversion``).

    Returns
    -------
    Tensor of shape (n,) with raw logits.
    """
    if model.use_conversion and conversion is None:
        raise ValueError("use_conversion=True requires a conversion matrix")
    if not model.use_conversion and conversion is not None:
        raise ValueError("conversion given but use_conversion=False")
    v_r = Tensor._wrap(feature_vector)
    x = Tensor._wrap(tuple_vectors)
    if x.ndim == 1:
        x = x.reshape(1, -1)

    emb_r = apply(model.uis_block, v_r.reshape(1, model.ku))   # (1, Ne)
    emb_x = apply(model.tuple_block, x)                        # (n, Ne)
    if conversion is not None:
        combined = convert_embeddings(emb_r, emb_x, conversion)  # (n, Ne)
    else:
        # Differentiable broadcast of emb_R to every row.
        tiler = Tensor(np.ones((len(x), 1)))
        emb_r_rows = tiler @ emb_r                              # (n, Ne)
        combined = Tensor.concat([emb_r_rows, emb_x, emb_r_rows * emb_x],
                                 axis=1)                        # (n, 3Ne)
    logits = apply(model.clf_block, combined)                   # (n, 1)
    return logits.reshape(-1)
