"""The stacked autograd program as the oracle: one ``Tensor`` graph per
forward and backward of a stack of K classifiers (``{block name:
repro.nn.batching.stack_leaves(...)}``, built from models by
:func:`stack_models`).

Until every stacked forward and backward became one array program
(:func:`repro.nn.batching.step_program`), Basic's local phase,
meta-training's query pass and each joint-pretraining step built this
graph, and the training engine scored its query sets with
``stacked_predict``.  The bodies below are that code, moved here
verbatim when ``src/`` stopped using it (``BatchedUISClassifier.forward``
became :func:`forward` of a ``batched`` argument, and ``local_adapt`` is
the graph branch of the old ``fused_local_adapt``), on the graph of
``_autograd_oracle.py``; since the stacked layers left ``src/`` for
leaf stacks, ``batched`` is a model ``config`` and a stack.  The suites
hold the array program to it, raw bytes equal.  Nothing in ``src/``
imports this module.
"""

from functools import partial

import numpy as np

from _autograd_oracle import (Tensor, apply,
                              batched_binary_cross_entropy_with_logits,
                              convert_embeddings, no_grad)
from repro.nn import Parameter
from repro.nn.batching import (BLOCKS, block_leaves, stack_leaves,
                               stack_parameters)
from repro.nn.functional import batched_pos_weight
from repro.nn.optim import SGD, Adam


def stack_models(models):
    """K models' three blocks stacked as the step program trains them,
    each slice a copy of its model's."""
    return {name: stack_leaves([block_leaves(getattr(model, name))
                                for model in models]) for name in BLOCKS}


def named_stack(stack):
    """``(name, stacked Parameter)`` pairs of a stack in parameter order,
    named ``<block>.<leaf index>.weight`` or ``.bias``."""
    return [("{}.{}.{}".format(name, i, part), param)
            for name in BLOCKS if name in stack
            for i, leaf in enumerate(stack[name]) if leaf is not None
            for part, param in zip(("weight", "bias"), leaf)
            if param is not None]


def unstack_into(stack, models):
    """Copy slice s of every stacked parameter back into model s."""
    for s, model in enumerate(models):
        for param, stacked in zip(model.parameters(),
                                  stack_parameters(stack)):
            param.copy_(stacked.data[s].reshape(param.shape))


def forward(config, stack, feature_vectors, tuple_vectors, conversion=None):
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
    if config["use_conversion"] and conversion is None:
        raise ValueError("use_conversion=True requires conversion")
    if not config["use_conversion"] and conversion is not None:
        raise ValueError("conversion given but use_conversion=False")
    v_r = Tensor._wrap(feature_vectors)
    x = Tensor._wrap(tuple_vectors)
    k, n = x.shape[:2]

    emb_r = apply(stack["uis_block"], v_r.reshape(k, 1, config["ku"]))
    emb_x = apply(stack["tuple_block"], x)                   # (K, n, Ne)
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
    logits = apply(stack["clf_block"], combined)             # (K, n, 1)
    return logits.reshape(k, n)


def stacked_loss_backward(config, stack, conversion, features, xs, ys,
                          pos_weight):
    """One forward + backward of the summed per-task BCE loss.

    The sum of per-task mean losses is block-diagonal, so each task's
    parameters see exactly their own one-task gradient.  Zeroes the
    gradients of ``stack`` (and of ``conversion`` when it is a
    :class:`Parameter`; a plain array is a constant input), leaves the
    new gradients on them and returns the (K,) per-task loss vector.
    """
    params = stack_parameters(stack)
    if isinstance(conversion, Parameter):
        params.append(conversion)
    return loss_backward(partial(forward, config, stack, features,
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


def stacked_predict(config, stack, features, xs, conversion=None,
                    threshold=0.5):
    """Fused no-grad 0/1 predictions of trained stacks, shape (K, n)."""
    if isinstance(conversion, Parameter):
        conversion = conversion.data
    with no_grad():
        logits = forward(config, stack, features, xs, conversion=conversion)
    proba = logits.sigmoid().numpy()
    return (proba >= threshold).astype(np.int64)


def local_adapt(config, stack, features, xs, ys, conversion=None, steps=1,
                lr=0.01, optimizer_kind="adam", balance_classes=True,
                forward=forward):
    """The graph branch of ``fused_local_adapt``: ``steps`` steps of
    every block of ``stack`` and of ``conversion`` (a (K, Ne, 3Ne)
    array, trained as a copy, or None); ``(conversion Parameter | None,
    the last step's (K,) losses)``."""
    conversion = None if conversion is None \
        else Parameter(np.array(conversion, dtype=np.float64))
    features = np.asarray(features, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    pos_weight = batched_pos_weight(ys) if balance_classes else None
    trainable = stack_parameters(stack)
    if conversion is not None:
        trainable.append(conversion)
    step = partial(loss_backward,
                   partial(forward, config, stack, features,
                           conversion=conversion),
                   trainable, xs, ys, pos_weight)
    optimizer = (Adam if optimizer_kind == "adam" else SGD)(trainable, lr=lr)
    task_losses = None
    for _ in range(steps):
        task_losses = step()
        optimizer.step()
    return conversion, task_losses
