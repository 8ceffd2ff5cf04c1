"""Shared task-stacking substrate for fused multi-task training.

One few-shot UIS-classifier task is far too small to saturate anything —
its cost is Python overhead.  Both the *online* serving hot path
(:func:`repro.core.framework.run_adapt_requests`) and the *offline*
meta-training engine (:mod:`repro.train.engine`) therefore stack K
structurally identical tasks into fused ``(K, ...)`` arrays and train
them as ONE array program — K = 1 included: a lone task is a stack of
one, not a second code path.  This module is the shared substrate both
layers build on:

* :func:`stack_leaves` — K per-task copies of a block's leaf arrays
  (:func:`block_leaves`) stacked into (K, ...) :class:`~repro.nn.Parameter`
  leaves; a *stack* maps block names to these;
* :func:`step_program` — the one stacked forward and backward of the
  summed per-task BCE loss, with no autograd graph: each call's
  forward and explicit backward run into buffers allocated once (the
  conversion matrices applied by blocks, through
  :func:`~repro.nn.functional.conversion_weight`,
  :func:`~repro.nn.functional.conversion_constant` and
  :func:`~repro.nn.functional.conversion_grads`).  Every stacked step
  runs it: the local phase of every variant, meta-training's query
  pass and each joint-pretraining step;
* :func:`fused_local_adapt` — the fused few-shot optimization loop
  (per-task-reduced BCE + pos-weight, one Adam/SGD over the stacks).
  For Meta and Meta*, online and in meta-training's inner loop alike,
  it trains the tuple and classification blocks only, fed the
  retrieval's ``emb_R``, ``W`` and ``c`` (:class:`Retrieval`); Basic
  trains all of its classifier;
* :func:`inference_logits` — the forward of ONE classifier as plain
  ``np.matmul`` products, through :func:`constant_logits` over the
  classifier's leaf arrays (:func:`block_leaves`) and its
  :class:`Retrieval` — ``emb_R``,
  ``W = M2 + M3 * emb_R`` and ``c = emb_R @ M1^T``, computed once a
  task (:func:`retrieval_constants`).  Every prediction outside
  training goes through it: serving scores each session over the rows
  *its* hulls left open, so nothing is stacked.

Because the stacked computation is block-diagonal across tasks, every
task receives exactly the gradients and optimizer updates an eager
one-task loop would give it — bit for bit, at any K.  The parity suites
in ``tests/serve`` and ``tests/train`` verify this end to end against
the eager loops they keep as oracles; ``tests/nn`` holds the step
program to the stacked autograd graph it replaced, which lives on only
there (``tests/nn/_autograd_oracle.py``).

The module is deliberately duck-typed: it touches only the
``uis_block`` / ``tuple_block`` / ``clf_block`` / ``config`` surface of
the models it reads, so :mod:`repro.nn` does not import
:mod:`repro.core`.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .functional import (batched_binary_cross_entropy_grad,
                         batched_pos_weight, conversion_constant,
                         conversion_grads, conversion_weight)
from .layers import Linear, Parameter, ReLU, Sequential
from .optim import SGD, Adam

__all__ = ["BLOCKS", "fused_local_adapt", "step_program",
           "inference_logits", "inference_constants",
           "constant_logits", "stable_sigmoid", "Retrieval",
           "retrieval_constants", "stack_retrievals", "block_leaves",
           "flat_leaves", "stack_leaves", "stack_parameters",
           "stack_arrays"]

#: A classifier's blocks in the order of its parameters.
BLOCKS = ("uis_block", "tuple_block", "clf_block")

#: What a task's fixed retrieval gives every row, one task's or a (K,
#: ...) stack of them: ``emb_r`` = the UIS block of ``v_R``, (..., 1, Ne);
#: with a conversion matrix ``M_cp = [M1 | M2 | M3]``, ``weight`` = ``W =
#: M2 + M3 * emb_R``, (..., Ne, Ne), and ``constant`` = ``emb_R @ M1^T``,
#: (..., 1, Ne) — both None without one.  Read-only once computed.
Retrieval = namedtuple("Retrieval", ["emb_r", "weight", "constant"])


def fused_local_adapt(config, stack, features, xs, ys, *, steps, lr,
                      optimizer_kind="adam", balance_classes=True,
                      retrieved=None):
    """Fused few-shot optimization of K stacked tasks (the local phase).

    Runs ``steps`` iterations of per-task-reduced BCE descent on
    ``stack`` (``{block name: stack_leaves(...)}`` of classifiers of
    ``config``), in place: the loss is the *sum of per-task mean
    losses*, which is block-diagonal, so each task's parameters see
    exactly their own sequential gradient and one Adam/SGD instance
    updates all K tasks at once.  Each step is one call of the
    :func:`step_program` built here.

    Given ``retrieved``, the stack's :class:`Retrieval` -- what the UIS
    block (theta_R = phi_R - sigma * omega_R, Eq. 6) and the conversion
    matrices (M_cp, Eq. 10) give every row -- those keep their values
    and the optimizer steps the tuple and classification blocks only:
    the local phase of Meta and Meta*, online and in meta-training's
    inner loop.  Serving stacks its classifiers' (:func:`stack_retrievals`),
    meta-training computes it from its stack
    (:func:`retrieval_constants`); the stack then needs no UIS block.
    Without it (Basic, which retrieved nothing and has no conversion)
    every block of the stack trains.

    ``features`` / ``xs`` / ``ys`` are the (K, ku) feature vectors, (K,
    n, width) labelled tuples and (K, n) 0/1 targets.  Returns the (K,)
    per-task loss vector of the *last* step (None when ``steps`` is 0).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    pos_weight = batched_pos_weight(ys) if balance_classes else None
    trainable = stack_parameters(
        stack, BLOCKS if retrieved is None else BLOCKS[1:])
    loss_backward = step_program(config, stack, xs.shape,
                                 retrieved=retrieved)
    optimizer = (Adam if optimizer_kind == "adam" else SGD)(trainable, lr=lr)
    task_losses = None
    for _ in range(steps):
        task_losses = loss_backward(features, xs, ys, pos_weight)
        optimizer.step()
    return task_losses


def step_program(config, stack, shape, retrieved=None, conversion=None):
    """Every stacked training forward and backward, as one array program
    with no autograd graph: a function ``loss_backward(features, xs, ys,
    pos_weight)`` of (K, ku), (K, n, width), (K, n) and (K, 1) or None
    inputs of ``shape`` = (K, n, width), new on each call, that sets the
    trained blocks' ``.grad`` and returns the (K,) per-task losses of
    the summed per-task BCE loss.

    ``stack`` maps block names to :func:`stack_leaves` of classifiers of
    ``config``.  Given ``retrieved`` (the stack's :class:`Retrieval`,
    the local phase of Meta and Meta*), ``emb_R``, ``W`` and ``c`` are
    constants and the tuple and classification blocks train;
    ``features`` is not read.  Otherwise the UIS block trains too, and
    ``conversion`` is the stack's M_cp: None for the combined row
    ``[emb_R, emb_tau, emb_R * emb_tau]`` (Basic, and Meta without
    memories), a (K, Ne, 3Ne) array for a constant (joint pretraining's),
    or a :class:`Parameter`, which gets its gradient (meta-training's
    query pass, Eqs. 15-16).

    A call walks the blocks' stacked leaves into buffers allocated here.
    Each operation is the one the autograd graph of the stacked forward
    ran on the same operands -- the conversion's backward is
    :func:`~repro.nn.functional.conversion_grads`, which its autograd op
    ran -- so losses and gradients keep that graph's bits
    (``tests/nn/test_step_program.py``, against the graph kept as
    ``tests/nn/_graph_oracle.py``).
    """
    k, n, width = shape
    ku, ne = config["ku"], config["embed_size"]
    trains_r, trains_m = retrieved is None, isinstance(conversion, Parameter)
    if trains_r:
        uis_plan = _step_plan(stack["uis_block"], k, 1, ku, False)
        blocked = conversion is not None
    else:
        blocked = retrieved.weight is not None
    if blocked != config["use_conversion"]:
        raise ValueError("use_conversion={} but {} conversion given".format(
            config["use_conversion"], "a" if blocked else "no"))
    tuple_plan = _step_plan(stack["tuple_block"], k, n, width, False)
    combined = np.empty((k, n, ne if blocked else 3 * ne))
    clf_plan = _step_plan(stack["clf_block"], k, n, combined.shape[-1], True)
    grad_x = np.empty((k, n, ne))
    grad_rows = np.empty((k, n, ne)) if trains_r and not blocked else None
    tiler = np.ones((n, 1))

    def retrieve(features):
        """``emb_R``, ``W``, ``c`` and, without a conversion, emb_R's
        rows: the graph's broadcast ``(n, 1) @ (K, 1, Ne)``."""
        if retrieved is not None:
            emb_r, w, constant = retrieved
        else:
            emb_r = _step_forward(uis_plan, np.asarray(
                features, dtype=np.float64).reshape(k, 1, ku))
            w = constant = None
            if blocked:
                matrix = conversion.data if trains_m else conversion
                w = conversion_weight(emb_r, matrix)
                constant = conversion_constant(emb_r, matrix)
        return emb_r, w, constant, None if blocked else tiler @ emb_r

    fixed = None if trains_r else retrieve(None)

    def loss_backward(features, xs, ys, pos_weight):
        emb_r, w, constant, rows = fixed or retrieve(features)
        emb_x = _step_forward(tuple_plan, xs)                # (K, n, Ne)
        if blocked:
            np.add(np.matmul(emb_x, np.swapaxes(w, -1, -2), out=combined),
                   constant, out=combined)
        else:
            combined[..., :ne] = rows
            combined[..., ne:2 * ne] = emb_x
            np.multiply(rows, emb_x, out=combined[..., 2 * ne:])
        logits = _step_forward(clf_plan, combined)           # (K, n, 1)
        task_losses, grad = batched_binary_cross_entropy_grad(
            logits.reshape(k, n), ys, pos_weight)
        grad = _step_backward(clf_plan, grad.reshape(k, n, 1))
        if blocked:
            grad_r, _, grad_m = conversion_grads(
                grad, emb_r, emb_x, conversion.data if trains_m
                else conversion, w, trains_r, True, trains_m, out=grad_x)
            if trains_m:
                conversion.grad = grad_m
        else:
            np.add(grad[..., ne:2 * ne],
                   np.multiply(grad[..., 2 * ne:], rows, out=grad_x),
                   out=grad_x)
            if trains_r:
                np.add(grad[..., :ne],
                       np.multiply(grad[..., 2 * ne:], emb_x, out=grad_rows),
                       out=grad_rows)
                grad_r = np.swapaxes(tiler, -1, -2) @ grad_rows
        _step_backward(tuple_plan, grad_x)
        if trains_r:
            _step_backward(uis_plan, grad_r)
        return task_losses

    return loss_backward


def _step_plan(leaves, k, n, width, input_grad):
    """The buffers of :func:`step_program` for one block's stacked leaves
    over (K, n, ``width``) inputs, one entry per leaf: a Linear's
    ``[(weight, bias), input, output, weight grad, bias grad, input
    grad]`` (the input grad None where nothing below it trains and
    ``input_grad`` is false, the bias grad None without a bias), a
    ReLU's ``[None, mask]``.
    """
    plan, below = [], input_grad
    for leaf in leaves:
        if leaf is None:
            plan.append([None, np.empty((k, n, width), dtype=bool)])
            continue
        out = leaf[0].shape[-1]
        plan.append([leaf, None, np.empty((k, n, out)),
                     np.empty((k, width, out)),
                     None if leaf[1] is None else np.empty((k, 1, out)),
                     np.empty((k, n, width)) if below else None])
        width, below = out, True
    return plan


def _step_forward(plan, x):
    """A block's forward over ``x`` into ``plan``'s buffers: each Linear
    keeps its input, each ReLU its mask (and rectifies in place what the
    block owns, as :func:`_infer_layers` does)."""
    for i, entry in enumerate(plan):
        if entry[0] is None:
            mask = np.greater(x, 0, out=entry[1])
            x = np.multiply(x, mask, out=x if i else None)
        else:
            weight, bias = entry[0]
            entry[1] = x
            x = np.matmul(x, weight.data, out=entry[2])
            if bias is not None:
                x += bias.data
    return x


def _step_backward(plan, grad):
    """A block's backward from ``grad``, the gradient of its output
    (which this may overwrite): sets each Linear's ``.grad`` and returns
    the gradient of the block's input, or None when it is not needed."""
    for entry in reversed(plan):
        if entry[0] is None:
            grad = np.multiply(grad, entry[1], out=grad)
            continue
        (weight, bias), x, _, grad_w, grad_b, grad_in = entry
        if grad_b is not None:
            # Over one row the graph sums nothing: the bias takes the
            # gradient as it is, a -0.0 included.
            if grad.shape[1] == 1:
                np.copyto(grad_b, grad)
            else:
                np.sum(grad, axis=1, keepdims=True, out=grad_b)
            bias.grad = grad_b
        weight.grad = np.matmul(np.swapaxes(x, -1, -2), grad, out=grad_w)
        if grad_in is None:
            return None
        grad = np.matmul(grad, np.swapaxes(weight.data, -1, -2),
                         out=grad_in)
    return grad


def _leaf_layers(module):
    """The non-container layers of a module tree, in application order."""
    if isinstance(module, Sequential):
        for child in module:
            yield from _leaf_layers(child)
    else:
        yield module


def _infer_layers(leaves, x):
    """A block's :func:`block_leaves` applied to ``x``, on raw arrays:
    ``x @ W + b`` per Linear, in place on the running activation (the
    input is never written); the rectifier is ``x * (x > 0)``, not
    ``maximum``, which keeps the ``-0.0`` and NaN the training step's
    rectifier yields.
    """
    owned = False
    for leaf in leaves:
        if leaf is None:
            x = np.multiply(x, x > 0, out=x if owned else None)
        else:
            weight, bias = leaf
            x = np.matmul(x, weight)
            if bias is not None:
                np.add(x, bias, out=x)
        owned = True
    return x


def block_leaves(module):
    """A block's leaf layers as plain arrays, in application order: a
    ``(weight, bias)`` pair per Linear (the bias a (1, out) row, None
    without one) and None per ReLU; anything else is a ``TypeError``."""
    leaves = []
    for layer in _leaf_layers(module):
        if isinstance(layer, ReLU):
            leaves.append(None)
            continue
        if not isinstance(layer, Linear):
            raise TypeError("cannot infer through module of type {}".format(
                type(layer)))
        leaves.append((layer.weight.data, None if layer.bias is None
                       else layer.bias.data.reshape(1, -1)))
    return tuple(leaves)


def flat_leaves(module, flat):
    """The :func:`block_leaves` of ``module`` with its parameters read
    from ``flat`` (``Module.flat_parameters``'s layout) instead, as
    views: a retrieved theta_R without a model to load it into."""
    leaves, offset = [], 0
    for layer in _leaf_layers(module):
        if isinstance(layer, ReLU):
            leaves.append(None)
            continue
        arrays = []
        for param in (layer.weight, layer.bias):
            if param is None:
                arrays.append(None)
                continue
            arrays.append(flat[offset:offset + param.size].reshape(
                -1, layer.out_features))
            offset += param.size
        leaves.append(tuple(arrays))
    if offset != flat.size:
        raise ValueError("flat vector size mismatch: {} != {}".format(
            flat.size, offset))
    return tuple(leaves)


def stack_leaves(per_task):
    """K tasks' :func:`block_leaves` of one block stacked for training,
    each slice a copy: :func:`block_leaves`' layout with a leading K
    axis, a Linear's ``(weight, bias)`` :class:`Parameter` pair of
    shapes (K, in, out) and (K, 1, out) (the bias None without one) and
    None per ReLU.  Tasks whose blocks differ in depth, in a layer's kind
    or in a Linear's bias are a ``ValueError``, as are differing shapes
    (``np.stack``'s)."""
    if len({len(leaves) for leaves in per_task}) > 1:
        raise ValueError("cannot stack blocks of different depths")
    stacked = []
    for leaves in zip(*per_task):
        if len({None if leaf is None else leaf[1] is None
                for leaf in leaves}) > 1:
            raise ValueError("cannot stack a ReLU with a Linear or a Linear "
                             "with a bias with one without")
        if leaves[0] is None:
            stacked.append(None)
            continue
        stacked.append((Parameter(np.stack([leaf[0] for leaf in leaves])),
                        None if leaves[0][1] is None else Parameter(np.stack(
                            [leaf[1].reshape(1, -1) for leaf in leaves]))))
    return tuple(stacked)


def stack_parameters(stack, names=BLOCKS):
    """The :class:`Parameter` objects of ``stack``'s blocks ``names``, in
    block order, each weight before its bias: the order of the per-task
    model's ``parameters()``."""
    return [param for name in names for leaf in stack[name]
            if leaf is not None for param in leaf if param is not None]


def stack_arrays(leaves, k=None):
    """Stacked leaves as arrays in :func:`block_leaves`' layout: the whole
    (K, ...) stacks or, with ``k``, copies of slice k -- what an adapted
    classifier keeps of what it trained."""
    return tuple(None if leaf is None else tuple(
        None if param is None else param.data if k is None
        else param.data[k].copy() for param in leaf) for leaf in leaves)


def retrieval_constants(uis_leaves, feature_vectors, conversion=None):
    """The :class:`Retrieval` of a UIS block's leaves (theta_R, Eq. 6)
    over ``feature_vectors`` (..., 1, ku) and of ``conversion`` (M_cp,
    Eq. 10, (..., Ne, 3Ne)) or None: one task's or, rank-agnostic, a
    stack's — slice k the bits of task k's (``tests/serve``)."""
    emb_r = _infer_layers(uis_leaves, feature_vectors)          # (..., 1, Ne)
    if conversion is None:
        return Retrieval(emb_r, None, None)
    conversion = np.asarray(conversion, dtype=np.float64)
    return Retrieval(emb_r, conversion_weight(emb_r, conversion),
                     conversion_constant(emb_r, conversion))


def stack_retrievals(retrievals):
    """K tasks' :class:`Retrieval` as one (K, ...) stack."""
    return Retrieval(*(None if parts[0] is None else np.stack(parts)
                       for parts in zip(*retrievals)))


def inference_constants(model, feature_vector, conversion=None):
    """What :func:`constant_logits` reads of one classifier: its tuple and
    classification blocks' :func:`block_leaves` and the
    :class:`Retrieval` of its UIS block and ``conversion``."""
    if model.use_conversion and conversion is None:
        raise ValueError("use_conversion=True requires a conversion matrix")
    if not model.use_conversion and conversion is not None:
        raise ValueError("conversion given but use_conversion=False")
    v_r = np.asarray(feature_vector, dtype=np.float64).reshape(1, model.ku)
    return (block_leaves(model.tuple_block), block_leaves(model.clf_block),
            retrieval_constants(block_leaves(model.uis_block), v_r,
                                conversion))


def constant_logits(constants, tuple_vectors):
    """No-grad logits over ``tuple_vectors`` of the classifier whose
    :func:`inference_constants` are ``constants``: the tuple block, then
    ``emb_tau @ W^T + c`` with the kept ``W`` and ``c`` (or the combined
    row ``[emb_R, emb_tau, emb_R * emb_tau]`` without a conversion
    matrix), then the classification block."""
    tuple_leaves, clf_leaves, (emb_r, weight, constant) = constants
    x = np.asarray(tuple_vectors, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    emb_x = _infer_layers(tuple_leaves, x)                       # (n, Ne)
    if weight is not None:
        combined = emb_x @ weight.T
        combined += constant
    else:
        ne = emb_r.shape[1]
        combined = np.empty((len(x), 3 * ne))
        combined[:, :ne] = emb_r
        combined[:, ne:2 * ne] = emb_x
        np.multiply(emb_r, emb_x, out=combined[:, 2 * ne:])
    return _infer_layers(clf_leaves, combined).reshape(-1)


def stable_sigmoid(data):
    """Logistic function of a raw array (exp of non-positive values
    only): the interest probability of a logit."""
    out = np.empty_like(data)
    pos = data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-data[pos]))
    exp_x = np.exp(data[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out


def inference_logits(model, feature_vector, tuple_vectors, conversion=None):
    """Logits of one UIS classifier over a row set, shape (n,): its one
    forward.

    The two embedding blocks, then — with a conversion matrix —
    ``emb_tau @ (M2 + M3 * emb_R)^T + emb_R @ M1^T`` (no 3Ne-wide
    row), then the classification block.  Without one, ``[emb_R,
    emb_tau, emb_R * emb_tau]`` is written straight into one ``(n,
    3Ne)`` array, the block's input.  These are the products of the
    autograd forward that trained and scored before the array program
    (``tests/nn/_autograd_oracle.forward``), in the same order, hence
    its bits for the same rows in one call.
    A logit may differ in the last place between calls of different row
    counts (BLAS picks its kernel by shape), so callers compare
    *answers* across row sets, not logits.  ``model`` is anything with
    the ``uis_block`` / ``tuple_block`` / ``clf_block`` / ``ku`` /
    ``use_conversion`` surface; ``feature_vector`` is ``v_R`` (length
    ku), ``tuple_vectors`` (n, width) and ``conversion`` the (Ne, 3Ne)
    ``M_cp`` (required iff ``use_conversion``).
    """
    return constant_logits(
        inference_constants(model, feature_vector, conversion=conversion),
        tuple_vectors)
