"""Functional building blocks: losses, similarities, activations.

These operate on :class:`repro.nn.tensor.Tensor` values and are composed by
the LTE meta-learner (Section VI of the paper): binary cross-entropy for the
classification loss (Eq. 12/13), cosine similarity + softmax for the
memory attention (Eq. 7) and the embedding conversion of Eq. 9
(:func:`convert_embeddings`, applied by blocks).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "sigmoid", "relu", "softmax", "log_softmax",
    "binary_cross_entropy_with_logits", "balanced_pos_weight", "mse_loss",
    "batched_binary_cross_entropy_with_logits",
    "batched_binary_cross_entropy_grad", "batched_pos_weight",
    "cosine_similarity", "conversion_constant", "conversion_weight",
    "conversion_rows", "convert_embeddings", "conversion_grads",
]

_EPS = 1e-12


def sigmoid(x):
    """Numerically stable elementwise logistic function."""
    return Tensor._wrap(x).sigmoid()


def relu(x):
    return Tensor._wrap(x).relu()


def softmax(x, axis=-1):
    """Softmax along ``axis`` (shift-invariant, stable)."""
    x = Tensor._wrap(x)
    shifted = x - np.max(x.data, axis=axis, keepdims=True)
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x, axis=-1):
    x = Tensor._wrap(x)
    shifted = x - np.max(x.data, axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


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


def batched_binary_cross_entropy_grad(logits, targets, pos_weight=None):
    """:func:`batched_binary_cross_entropy_with_logits` (mean reduction)
    on raw arrays with its gradient: the (K,) per-task losses and the
    (K, n) gradient of their sum with respect to ``logits``.

    Every operation is one the Tensor function's graph runs, so both
    give the same bits.  With ``g0 = 1/n`` times each example's class
    weight, the gradient is ``(g0 [z > 0] - g0 y) + (-(g0 / (1 +
    e^-|z|)) e^-|z|) sign z``, summed in the order the graph accumulates
    its three paths into the logits.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    positive = z > 0
    exp = np.exp(-np.abs(z))
    one_plus = exp + 1.0
    losses = z * positive - z * y + np.log(one_plus)
    g0 = np.full(z.shape, 1.0 / z.shape[-1])
    if pos_weight is not None:
        pos_weight = np.asarray(pos_weight, dtype=np.float64)
        weights = np.where(y == 1.0, np.broadcast_to(pos_weight, y.shape),
                           1.0)
        losses *= weights
        g0 *= weights
    softplus = g0 / one_plus
    softplus *= exp
    np.negative(softplus, out=softplus)
    softplus *= np.sign(z)
    grad = g0 * positive
    grad -= g0 * y
    grad += softplus
    return losses.mean(axis=-1), grad


def batched_pos_weight(targets, cap=10.0):
    """Per-task :func:`balanced_pos_weight` over a (K, n) label batch.

    Returns a (K, 1) array suitable as the ``pos_weight`` of
    :func:`batched_binary_cross_entropy_with_logits`; tasks missing a
    class get weight 1.0, matching the sequential helper task by task.
    """
    targets = np.atleast_2d(np.asarray(
        targets.data if isinstance(targets, Tensor) else targets,
        dtype=np.float64))
    n_pos = (targets == 1).sum(axis=-1).astype(np.float64)
    n_neg = (targets == 0).sum(axis=-1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((n_pos > 0) & (n_neg > 0),
                         np.minimum(cap, n_neg / np.maximum(n_pos, 1.0)),
                         1.0)
    return ratio[:, None]


def mse_loss(pred, target, reduction="mean"):
    pred = Tensor._wrap(pred)
    target = np.asarray(
        target.data if isinstance(target, Tensor) else target,
        dtype=np.float64)
    losses = (pred - target) ** 2
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    if reduction == "none":
        return losses
    raise ValueError("unknown reduction: {!r}".format(reduction))


def cosine_similarity(vector, matrix):
    """Cosine similarity between a vector and each row of a matrix.

    This is the ``Sim`` function of Eq. 7: given a UIS feature vector
    ``v_R`` (length ku) and the memory matrix ``M_vR`` (m x ku), return the
    length-m vector of cosine similarities.  Differentiable in both inputs.
    """
    vector = Tensor._wrap(vector)
    matrix = Tensor._wrap(matrix)
    dot = matrix @ vector
    v_norm = ((vector * vector).sum() + _EPS).sqrt()
    m_norm = ((matrix * matrix).sum(axis=1) + _EPS).sqrt()
    return dot / (v_norm * m_norm)


def _conversion_blocks(conversion):
    """``M_cp = [M1 | M2 | M3]`` as three (..., Ne, Ne) views, no copy."""
    ne = conversion.shape[-2]
    if conversion.shape[-1] != 3 * ne:
        raise ValueError("conversion matrix must be (..., Ne, 3Ne), got {}"
                         .format(conversion.shape))
    return (conversion[..., :ne], conversion[..., ne:2 * ne],
            conversion[..., 2 * ne:])


def conversion_constant(emb_r, conversion):
    """``emb_R @ M1^T``, the per-task constant of the conversion: (..., 1,
    Ne) for an (..., 1, Ne) ``emb_r`` and an (..., Ne, 3Ne) ``M_cp``.
    Computed once per task and handed to :func:`conversion_rows`."""
    m1 = _conversion_blocks(conversion)[0]
    return emb_r @ np.swapaxes(m1, -1, -2)


def conversion_weight(emb_r, conversion):
    """``W = M2 + M3 * emb_R`` (row ``emb_R`` scaling the columns of
    ``M3``), the per-task weight of the conversion: (..., Ne, Ne) for an
    (..., 1, Ne) ``emb_r`` and an (..., Ne, 3Ne) ``M_cp``."""
    _, m2, m3 = _conversion_blocks(conversion)
    w = m3 * emb_r
    w += m2
    return w


def conversion_rows(emb_r, emb_tau, conversion, constant):
    """``[emb_R, emb_tau, emb_R * emb_tau] @ M_cp^T`` on raw arrays, by
    blocks, given ``constant`` = :func:`conversion_constant`; returns
    ``(z, W)``.

    ``emb_r`` is ONE row per task, (..., 1, Ne), so two of the three
    blocks of ``M_cp = [M1 | M2 | M3]`` multiply a per-task constant:
    with ``W`` = :func:`conversion_weight` the product is ``emb_tau @
    W^T + emb_R @ M1^T`` — one
    (n, Ne) x (Ne, Ne) product a task where the combined row needs
    (n, 3Ne) x (3Ne, Ne), and that row is never built.  Rank-agnostic
    over leading task axes: (..., n, Ne) rows and a (..., Ne, 3Ne)
    matrix give (..., n, Ne), slice k the bits of the per-task call.
    These three functions are the only place in ``src/`` that spells the
    formula: the autograd op below (hence ``UISClassifier.forward``),
    :func:`repro.nn.batching.inference_logits` and the stacked step
    program call them, which is what keeps stacked == per-task and
    inference == forward bit for bit.
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
    all trained elements); :func:`conversion_grads` spells it.  A side
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


def conversion_grads(grad, emb_r, emb_tau, conversion, weight, need_r=True,
                     need_x=True, need_m=True, out=None):
    """The backward of :func:`conversion_rows` on raw arrays, the one
    :func:`convert_embeddings` and the stacked step program
    (:func:`repro.nn.batching.step_program`) both run: ``(d emb_R, d
    emb_tau, dM)`` of the incoming gradient ``grad``, each None where
    its ``need_*`` is false, ``d emb_tau`` written into ``out`` when
    given.  ``weight`` is the forward's ``W``.
    """
    grad_r = grad_m = None
    if need_r or need_m:
        col = grad.sum(axis=-2, keepdims=True)                 # dc
        grad_t = np.swapaxes(grad, -1, -2)
        if need_m:
            grad_m = np.empty(conversion.shape)
            g1, d_w, g3 = _conversion_blocks(grad_m)
            np.multiply(np.swapaxes(col, -1, -2), emb_r, out=g1)
            np.matmul(grad_t, emb_tau, out=d_w)
            np.multiply(d_w, emb_r, out=g3)
        else:
            d_w = grad_t @ emb_tau
        if need_r:
            m1, _, m3 = _conversion_blocks(conversion)
            # (dW * M3).sum(rows) without the (..., Ne, Ne) product:
            # the same row-by-row accumulation, hence the same bits.
            grad_r = np.einsum("...ij,...ij->...j", d_w, m3)[..., None, :]
            grad_r += col @ m1
    grad_x = np.matmul(grad, weight, out=out) if need_x else None
    return grad_r, grad_x, grad_m
