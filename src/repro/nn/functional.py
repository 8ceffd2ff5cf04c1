"""Array functions of the training step: the loss gradient and the
embedding conversion.

The stacked step program (:func:`repro.nn.batching.step_program`)
calls them on raw arrays, and so does the inference kernel for the
conversion: the per-task BCE losses and their gradient (Eq. 12/13,
with class-balancing weights) and the embedding conversion of Eq. 9,
applied by blocks (:func:`conversion_constant`,
:func:`conversion_weight`, :func:`conversion_grads`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "batched_binary_cross_entropy_grad", "batched_pos_weight",
    "conversion_constant", "conversion_weight", "conversion_grads",
]


def batched_binary_cross_entropy_grad(logits, targets, pos_weight=None):
    """Per-task mean BCE over stacked (K, n) logits with its gradient:
    the (K,) per-task losses ``max(z, 0) - z y + log(1 + e^-|z|)``
    (the positive-class terms times ``pos_weight``, (K, 1) or None) and
    the (K, n) gradient of their sum with respect to ``logits``.

    Every operation is one the autograd graph of the stacked BCE ran
    (the oracle ``tests/nn/_autograd_oracle.py``), so both give the same
    bits.  With ``g0 = 1/n`` times each example's class
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
    """Per-task class-balancing weights over a (K, n) label batch:
    n_negative / n_positive, capped at ``cap``.

    Returns a (K, 1) array suitable as the ``pos_weight`` of
    :func:`batched_binary_cross_entropy_grad`; tasks missing a class
    get weight 1.0.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    n_pos = (targets == 1).sum(axis=-1).astype(np.float64)
    n_neg = (targets == 0).sum(axis=-1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((n_pos > 0) & (n_neg > 0),
                         np.minimum(cap, n_neg / np.maximum(n_pos, 1.0)),
                         1.0)
    return ratio[:, None]


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
    Computed once per task: with :func:`conversion_weight`'s ``W``,
    ``[emb_R, emb_tau, emb_R * emb_tau] @ M_cp^T = emb_tau @ W^T +
    emb_R @ M1^T``, one (n, Ne) x (Ne, Ne) product a task where the
    combined row needs (n, 3Ne) x (3Ne, Ne), and that row is never
    built.  These two functions are the only place in ``src/`` that
    spells the formula: the inference kernel and the stacked step
    program call them, which keeps stacked == per-task and inference ==
    training bit for bit."""
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


def conversion_grads(grad, emb_r, emb_tau, conversion, weight, need_r=True,
                     need_x=True, need_m=True, out=None):
    """The backward of the conversion on raw arrays, the one the
    stacked step program (:func:`repro.nn.batching.step_program`) runs:
    ``(d emb_R, d emb_tau, dM)`` of the incoming gradient ``grad``, each
    None where its ``need_*`` is false, ``d emb_tau`` written into
    ``out`` when given.  ``weight`` is the forward's ``W``.

    With ``dc = grad.sum(rows)`` and ``dW = grad^T @ emb_tau``: ``d
    emb_tau = grad @ W``, ``d emb_R = dc @ M1 + (dW * M3).sum(rows)``
    and ``dM = [dc^T emb_R | dW | dW * emb_R]``, written by slices into
    one C-contiguous array so the optimizer's flat blocks view it
    without a copy (the conversion matrix is half of all trained
    elements).
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
