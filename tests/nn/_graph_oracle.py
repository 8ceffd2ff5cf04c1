"""The stacked autograd program as the oracle: one ``Tensor`` graph per
forward and backward of a ``BatchedUISClassifier``.

Until every stacked forward and backward became one array program
(:func:`repro.nn.batching.step_program`), Basic's local phase,
meta-training's query pass and each joint-pretraining step built this
graph, and the training engine scored its query sets with
``stacked_predict``.  The bodies below are that code, moved here
verbatim when ``src/`` stopped using it (``BatchedUISClassifier.forward``
became :func:`forward` of a ``batched`` argument, and ``local_adapt`` is
the graph branch of the old ``fused_local_adapt``).  The suites hold the
array program to it, raw bytes equal.  Nothing in ``src/`` imports this
module.
"""

from functools import partial

import numpy as np

from repro.nn.functional import (batched_binary_cross_entropy_with_logits,
                                 batched_pos_weight, convert_embeddings)
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Parameter, Tensor, no_grad


def forward(batched, feature_vectors, tuple_vectors, conversion=None):
    """Stacked interestingness logits.

    Parameters
    ----------
    feature_vectors:
        (K, ku) UIS feature vectors, one per task.
    tuple_vectors:
        (K, n, input_width) preprocessed tuple batches.
    conversion:
        Optional (K, Ne, 3Ne) stacked conversion matrices.

    Returns
    -------
    Tensor of shape (K, n) with raw logits.
    """
    if batched.use_conversion and conversion is None:
        raise ValueError("use_conversion=True requires conversion")
    if not batched.use_conversion and conversion is not None:
        raise ValueError("conversion given but use_conversion=False")
    v_r = Tensor._wrap(feature_vectors)
    x = Tensor._wrap(tuple_vectors)
    n = x.shape[1]

    emb_r = batched.uis_block(v_r.reshape(batched.k, 1, batched.ku))
    emb_x = batched.tuple_block(x)                           # (K, n, Ne)
    if conversion is not None:
        combined = convert_embeddings(emb_r, emb_x,
                                      conversion)            # (K, n, Ne)
    else:
        # Differentiable broadcast of each task's emb_R to its n rows
        # — same tiler trick as the per-task forward, batched by
        # numpy's matmul broadcasting: (n, 1) @ (K, 1, Ne).
        tiler = Tensor(np.ones((n, 1)))
        emb_r_rows = tiler @ emb_r                           # (K, n, Ne)
        combined = Tensor.concat([emb_r_rows, emb_x, emb_r_rows * emb_x],
                                 axis=-1)                    # (K, n, 3Ne)
    logits = batched.clf_block(combined)                     # (K, n, 1)
    return logits.reshape(batched.k, n)


def stacked_loss_backward(batched, conversion, features, xs, ys, pos_weight):
    """One forward + backward of the summed per-task BCE loss.

    The sum of per-task mean losses is block-diagonal, so each task's
    parameters see exactly their own one-task gradient.  Zeroes the
    gradients of ``batched`` (and of ``conversion`` when it is a
    :class:`Parameter`; a plain array is a constant input), leaves the
    new gradients on them and returns the (K,) per-task loss vector.
    """
    params = list(batched.parameters())
    if isinstance(conversion, Parameter):
        params.append(conversion)
    return loss_backward(partial(forward, batched, features,
                                 conversion=conversion),
                         params, xs, ys, pos_weight)


def loss_backward(forward, params, xs, ys, pos_weight):
    """Zero ``params``' gradients, then one forward (``forward(xs)``, the
    (K, n) logits) and backward of the summed per-task BCE loss; the
    (K,) per-task loss vector."""
    for param in params:
        param.zero_grad()
    task_losses = batched_binary_cross_entropy_with_logits(
        forward(xs), ys, pos_weight=pos_weight)
    task_losses.sum().backward()
    return task_losses.data


def stacked_predict(batched, features, xs, conversion=None, threshold=0.5):
    """Fused no-grad 0/1 predictions of trained stacks, shape (K, n)."""
    if isinstance(conversion, Parameter):
        conversion = conversion.data
    with no_grad():
        logits = forward(batched, features, xs, conversion=conversion)
    proba = logits.sigmoid().numpy()
    return (proba >= threshold).astype(np.int64)


def local_adapt(batched, features, xs, ys, conversion=None, steps=1,
                lr=0.01, optimizer_kind="adam", balance_classes=True,
                forward=forward):
    """The graph branch of ``fused_local_adapt``: ``steps`` steps of
    every block of ``batched`` and of ``conversion`` (a (K, Ne, 3Ne)
    array, trained as a copy, or None); ``(conversion Parameter | None,
    the last step's (K,) losses)``."""
    conversion = None if conversion is None \
        else Parameter(np.array(conversion, dtype=np.float64))
    features = np.asarray(features, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    pos_weight = batched_pos_weight(ys) if balance_classes else None
    trainable = list(batched.parameters())
    if conversion is not None:
        trainable.append(conversion)
    step = partial(loss_backward,
                   partial(forward, batched, features, conversion=conversion),
                   trainable, xs, ys, pos_weight)
    optimizer = (Adam if optimizer_kind == "adam" else SGD)(trainable, lr=lr)
    task_losses = None
    for _ in range(steps):
        task_losses = step()
        optimizer.step()
    return conversion, task_losses
