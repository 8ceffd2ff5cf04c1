"""Shared task-stacking substrate for fused multi-task training.

One few-shot UIS-classifier task is far too small to saturate anything —
its cost is Python/autograd overhead.  Both the *online* serving hot path
(:func:`repro.core.framework.run_adapt_requests`) and the *offline*
meta-training engine (:mod:`repro.train.engine`) therefore stack K
structurally identical tasks into fused ``(K, ...)`` tensors and train
them as ONE autograd program — K = 1 included: a lone task is a stack
of one, not a second code path.  This module is the shared substrate
both layers build on:

* :class:`BatchedUISClassifier` — K per-task classifier copies fused
  into stacked :class:`~repro.nn.BatchedLinear` blocks, mirroring
  ``UISClassifier.forward`` over a leading batch axis (the conversion
  matrices applied by blocks through the same
  :func:`~repro.nn.functional.convert_embeddings`: no (K, n, 3Ne)
  combined row exists, in the forward or the backward);
* :func:`fused_local_adapt` — the fused few-shot optimization loop
  (per-task-reduced BCE + pos-weight, one Adam/SGD over the stacks).
  For Meta and Meta*, online and in meta-training's inner loop alike,
  it trains the tuple and classification blocks only, and its steps are
  one array program with no autograd graph
  (:func:`_fixed_retrieval_steps`): the UIS block and the conversion's
  ``W`` and ``c`` once per stack, then each step's forward and explicit
  backward into buffers allocated once, with the graph's bits.  Basic
  trains all of its classifier through the graph;
* :func:`grad_stacks` — per-task gradient slices out of the stacked
  parameters, in the exact layout of the corresponding per-task model
  (the meta-training global phase and the parameter memory's EMA
  update consume these);
* :func:`stacked_loss_backward` — one forward + backward of the summed
  per-task BCE loss (the meta-training global phase and the pooled
  pretraining step);
* :func:`stacked_predict` — fused 0/1 predictions of the stacks just
  trained (the training engine's query accuracy only);
* :func:`inference_logits` — the no-grad forward of ONE classifier as
  plain ``np.matmul`` products, no :class:`Tensor` nodes, the conversion
  through :func:`~repro.nn.functional.conversion_rows` — the array
  kernel under ``convert_embeddings``.  Every prediction outside
  training goes through it: serving scores each session over the rows
  *its* hulls left open, so nothing is stacked.

Because the stacked computation is block-diagonal across tasks, every
task receives exactly the gradients and optimizer updates an eager
one-task loop would give it — bit for bit, at any K.  The parity suites
in ``tests/serve`` and ``tests/train`` verify this end to end against
the eager loops they keep as oracles.

The module is deliberately duck-typed: it touches only the
``uis_block`` / ``tuple_block`` / ``clf_block`` / ``config`` surface of
the models it stacks, so :mod:`repro.nn` does not import
:mod:`repro.core`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .functional import (batched_binary_cross_entropy_grad,
                         batched_binary_cross_entropy_with_logits,
                         batched_pos_weight, conversion_constant,
                         conversion_rows, conversion_weight,
                         convert_embeddings)
from .layers import (BatchedLinear, Linear, Module, ReLU, Sequential,
                     batch_modules, unstack_modules)
from .optim import SGD, Adam
from .tensor import Parameter, Tensor, no_grad

__all__ = ["BatchedUISClassifier", "fused_local_adapt", "stack_conversions",
           "load_flat_stack", "grad_stacks", "stacked_loss_backward",
           "stacked_predict", "inference_logits", "inference_constants",
           "constant_logits"]


class BatchedUISClassifier(Module):
    """K structurally identical UIS classifiers fused into stacked blocks.

    Mirrors ``UISClassifier.forward`` over a leading batch axis:
    features (K, ku) and tuples (K, n, width) map to logits (K, n).
    Built from per-task model instances (whose parameters seed the
    stacks) and unstacked back into them after training.  It exists to
    *train* K tasks as one autograd program; nothing is stacked to
    predict (:func:`inference_logits`).
    """

    def __init__(self, models):
        super().__init__()
        first = models[0]
        for model in models:
            if model.config != first.config:
                raise ValueError("cannot batch UISClassifiers of mixed "
                                 "configuration")
        self.k = len(models)
        self.ku = first.ku
        self.embed_size = first.embed_size
        self.use_conversion = first.use_conversion
        self.uis_block = batch_modules([m.uis_block for m in models])
        self.tuple_block = batch_modules([m.tuple_block for m in models])
        self.clf_block = batch_modules([m.clf_block for m in models])

    def unstack_into(self, models):
        """Copy the adapted per-slice parameters back into K models."""
        unstack_modules(self.uis_block, [m.uis_block for m in models])
        unstack_modules(self.tuple_block, [m.tuple_block for m in models])
        unstack_modules(self.clf_block, [m.clf_block for m in models])

    def forward(self, feature_vectors, tuple_vectors, conversion=None):
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
        if self.use_conversion and conversion is None:
            raise ValueError("use_conversion=True requires conversion")
        if not self.use_conversion and conversion is not None:
            raise ValueError("conversion given but use_conversion=False")
        v_r = Tensor._wrap(feature_vectors)
        x = Tensor._wrap(tuple_vectors)
        n = x.shape[1]

        emb_r = self.uis_block(v_r.reshape(self.k, 1, self.ku))  # (K, 1, Ne)
        emb_x = self.tuple_block(x)                              # (K, n, Ne)
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
        logits = self.clf_block(combined)                        # (K, n, 1)
        return logits.reshape(self.k, n)


def stack_conversions(conversions):
    """Stack per-task conversion matrices into one (K, Ne, 3Ne) Parameter.

    ``conversions`` may be ``None`` or a list of matrices; a list must be
    all-``None`` (returns ``None``) or all-present — mixed tasks cannot
    share one fused program.
    """
    if conversions is None:
        return None
    present = [c is not None for c in conversions]
    if not any(present):
        return None
    if not all(present):
        raise ValueError("cannot fuse tasks with and without conversion "
                         "matrices into one program")
    return Parameter(np.stack(conversions))


def load_flat_stack(module, flat_stack):
    """Write (K, S) per-slice flat parameter vectors into a batched module.

    The inverse relationship to ``Module.load_flat_parameters`` applied
    slice-wise: row k lands in slice k of every stacked parameter, in
    declaration order — so stacking K flat vectors produced by the
    per-task rule gives every slice exactly the parameters the per-task
    ``load_flat_parameters`` would.
    """
    flat_stack = np.asarray(flat_stack, dtype=np.float64)
    k = flat_stack.shape[0]
    offset = 0
    for param in module.parameters():
        if param.data.shape[0] != k:
            raise ValueError("parameter stack height {} != {} rows".format(
                param.data.shape[0], k))
        size = param.size // k
        param.copy_(flat_stack[:, offset:offset + size].reshape(
            param.data.shape))
        offset += size
    if offset != flat_stack.shape[1]:
        raise ValueError("flat stack width mismatch: {} != {}".format(
            flat_stack.shape[1], offset))


def fused_local_adapt(models, features, xs, ys, *, conversions=None,
                      steps=1, lr=0.01, optimizer_kind="adam",
                      balance_classes=True, batched=None,
                      keep_retrieved=False):
    """Fused few-shot optimization of K stacked tasks (the local phase).

    Stacks ``models`` (and their task-wise conversion matrices, if any)
    and runs ``steps`` iterations of per-task-reduced BCE descent: the
    loss is the *sum of per-task mean losses*, which is block-diagonal,
    so each task's parameters see exactly their own sequential gradient
    and one Adam/SGD instance updates all K tasks at once.

    With ``keep_retrieved`` the task-wise initialization the memories
    retrieved -- the UIS block (theta_R = phi_R - sigma * omega_R, Eq. 6)
    and the conversion matrices (M_cp, Eq. 10) -- keeps its values and
    the optimizer steps the tuple and classification blocks only: the
    local phase of Meta and Meta*, online and in meta-training's inner
    loop.  Its steps build no autograd graph: they are one array program
    (:func:`_fixed_retrieval_steps`) that runs the UIS block and the
    conversion's ``W`` and ``c`` once per stack and each step's forward
    and backward into buffers allocated once, with the autograd graph's
    bits.  Basic, which retrieved nothing, trains all of its classifier
    through the graph.

    Parameters
    ----------
    models:
        K per-task classifier instances (already task-wise initialized);
        their parameters seed the stacks and are **not** written back —
        call ``batched.unstack_into(models)`` for that.
    features / xs / ys:
        (K, ku) feature vectors, (K, n, width) labelled tuples, (K, n)
        0/1 targets.
    conversions:
        Optional per-task (Ne, 3Ne) matrices (see
        :func:`stack_conversions`), or an already stacked (K, Ne, 3Ne)
        array; either way the trained stack is a copy.
    batched:
        Optional pre-built :class:`BatchedUISClassifier` whose stacks
        already hold the task-wise initializations (``models`` is then
        ignored); the offline engine uses this to stack straight off the
        meta-learned template without constructing K model copies.
    keep_retrieved:
        Whether the UIS block and the conversion matrices keep their
        retrieved values (above); False trains every block.

    Returns
    -------
    ``(batched, conversion, task_losses)`` — the trained
    :class:`BatchedUISClassifier`, the stacked conversion
    :class:`Parameter` (or ``None``) and the (K,) per-task loss vector
    of the *last* step (``None`` when ``steps`` is 0).
    """
    if batched is None:
        batched = BatchedUISClassifier(models)
    if isinstance(conversions, np.ndarray):
        # The optimizer updates parameters in place: never train the
        # caller's buffer.
        conversion = Parameter(conversions.copy())
    else:
        conversion = stack_conversions(conversions)

    features = np.asarray(features, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    pos_weight = batched_pos_weight(ys) if balance_classes else None

    if keep_retrieved:
        trainable = [*batched.tuple_block.parameters(),
                     *batched.clf_block.parameters()]
        loss_backward = _fixed_retrieval_steps(batched, conversion, features,
                                               xs, ys, pos_weight)
    else:
        trainable = list(batched.parameters())
        if conversion is not None:
            trainable.append(conversion)
        loss_backward = partial(
            _loss_backward,
            partial(batched.forward, features, conversion=conversion),
            trainable, xs, ys, pos_weight)
    optimizer = (Adam if optimizer_kind == "adam" else SGD)(trainable, lr=lr)
    task_losses = None
    for _ in range(steps):
        task_losses = loss_backward()
        optimizer.step()
    return batched, conversion, task_losses


def _fixed_retrieval_steps(batched, conversion, features, xs, ys,
                           pos_weight):
    """The online local phase's step without an autograd graph: a
    function that runs one forward and backward of the summed per-task
    BCE loss, sets the tuple and classification blocks' ``.grad`` and
    returns the (K,) per-task losses.

    ``emb_R``, ``W`` and ``c`` (the helpers of
    :func:`~repro.nn.functional.conversion_rows`) are computed once per
    stack, since the UIS block and ``conversion`` do not train.  A step
    walks the blocks' leaf layers, stacked Linear or ReLU (anything else
    is a ``TypeError``), into buffers allocated here.  Each operation is
    the one the Tensor graph of :meth:`BatchedUISClassifier.forward`
    runs on the same operands, so losses, gradients and parameters keep
    its bits (``tests/nn/test_fixed_retrieval_steps.py``).
    """
    k, n, _ = xs.shape
    emb_r = _infer_layers(_leaf_layers(batched.uis_block),
                          features.reshape(k, 1, batched.ku))   # (K, 1, Ne)
    ne = emb_r.shape[-1]
    tuple_plan = _step_plan(batched.tuple_block, k, n, xs.shape[-1], False)
    if conversion is not None:
        w = conversion_weight(emb_r, conversion.data)            # (K, Ne, Ne)
        w_t = np.swapaxes(w, -1, -2)
        constant = conversion_constant(emb_r, conversion.data)   # (K, 1, Ne)
        combined = np.empty((k, n, ne))
    else:
        combined = np.empty((k, n, 3 * ne))
        combined[..., :ne] = emb_r
    clf_plan = _step_plan(batched.clf_block, k, n, combined.shape[-1], True)
    grad_x = np.empty((k, n, ne))

    def loss_backward():
        emb_x = _step_forward(tuple_plan, xs)                    # (K, n, Ne)
        if conversion is not None:
            np.add(np.matmul(emb_x, w_t, out=combined), constant,
                   out=combined)
        else:
            combined[..., ne:2 * ne] = emb_x
            np.multiply(emb_r, emb_x, out=combined[..., 2 * ne:])
        logits = _step_forward(clf_plan, combined)               # (K, n, 1)
        task_losses, grad = batched_binary_cross_entropy_grad(
            logits.reshape(k, n), ys, pos_weight)
        grad = _step_backward(clf_plan, grad.reshape(k, n, 1))
        if conversion is not None:
            np.matmul(grad, w, out=grad_x)
        else:
            np.add(grad[..., ne:2 * ne],
                   np.multiply(grad[..., 2 * ne:], emb_r, out=grad_x),
                   out=grad_x)
        _step_backward(tuple_plan, grad_x)
        return task_losses

    return loss_backward


def _step_plan(module, k, n, width, input_grad):
    """The buffers of :func:`_fixed_retrieval_steps` for one block over
    (K, n, ``width``) inputs, one entry per leaf layer: a Linear's
    ``[layer, input, output, weight grad, bias grad, input grad]`` (the
    input grad None where nothing below it trains and ``input_grad`` is
    false, the bias grad None without a bias), a ReLU's ``[layer, mask]``.
    """
    plan, below = [], input_grad
    for layer in _leaf_layers(module):
        if isinstance(layer, BatchedLinear):
            out = layer.out_features
            plan.append([layer, None, np.empty((k, n, out)),
                         np.empty((k, width, out)),
                         None if layer.bias is None
                         else np.empty((k, 1, out)),
                         np.empty((k, n, width)) if below else None])
            width, below = out, True
        elif isinstance(layer, ReLU):
            plan.append([layer, np.empty((k, n, width), dtype=bool)])
        else:
            raise TypeError("cannot step through module of type {}".format(
                type(layer)))
    return plan


def _step_forward(plan, x):
    """A block's forward over ``x`` into ``plan``'s buffers: each Linear
    keeps its input, each ReLU its mask (and rectifies in place what the
    block owns, as :func:`_infer_layers` does)."""
    for i, entry in enumerate(plan):
        if isinstance(entry[0], ReLU):
            mask = np.greater(x, 0, out=entry[1])
            x = np.multiply(x, mask, out=x if i else None)
        else:
            layer = entry[0]
            entry[1] = x
            x = np.matmul(x, layer.weight.data, out=entry[2])
            if layer.bias is not None:
                x += layer.bias.data
    return x


def _step_backward(plan, grad):
    """A block's backward from ``grad``, the gradient of its output
    (which this may overwrite): sets each Linear's ``.grad`` and returns
    the gradient of the block's input, or None when it is not needed."""
    for entry in reversed(plan):
        if isinstance(entry[0], ReLU):
            grad = np.multiply(grad, entry[1], out=grad)
            continue
        layer, x, _, grad_w, grad_b, grad_in = entry
        if grad_b is not None:
            layer.bias.grad = np.sum(grad, axis=1, keepdims=True, out=grad_b)
        layer.weight.grad = np.matmul(np.swapaxes(x, -1, -2), grad,
                                      out=grad_w)
        if grad_in is None:
            return None
        grad = np.matmul(grad, np.swapaxes(layer.weight.data, -1, -2),
                         out=grad_in)
    return grad


def grad_stacks(batched):
    """``{dotted_name: (K, ...) gradient}`` over the three stacked blocks.

    The dotted names equal those of the per-task model
    (``uis_block.m0.weight`` ...), so slice k reshaped to the per-task
    parameter shape is exactly the gradient a one-task global phase
    accumulates for task k.
    """
    return {name: param.grad for name, param in batched.named_parameters()}


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
    return _loss_backward(partial(batched.forward, features,
                                  conversion=conversion),
                          params, xs, ys, pos_weight)


def _loss_backward(forward, params, xs, ys, pos_weight):
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
        logits = batched.forward(features, xs, conversion=conversion)
    proba = logits.sigmoid().numpy()
    return (proba >= threshold).astype(np.int64)


def _leaf_layers(module):
    """The non-container layers of a module tree, in application order."""
    if isinstance(module, Sequential):
        for child in module:
            yield from _leaf_layers(child)
    else:
        yield module


def _infer_layers(layers, x):
    """The leaf ``layers`` of a ``Sequential`` tree of ``Linear`` (or
    ``BatchedLinear``) / ``ReLU`` layers of any depth applied to ``x``,
    on raw arrays.  Each step is
    the array operation the layer's ``forward`` performs, in place on
    the running activation (the input is never written); the rectifier
    is ``x * (x > 0)``, not ``maximum``, which keeps the ``-0.0`` and
    NaN the autograd op yields.
    """
    owned = False
    for layer in layers:
        if isinstance(layer, (Linear, BatchedLinear)):
            x = np.matmul(x, layer.weight.data)
            if layer.bias is not None:
                np.add(x, layer.bias.data, out=x)
        elif isinstance(layer, ReLU):
            x = np.multiply(x, x > 0, out=x if owned else None)
        else:
            raise TypeError("cannot infer through module of type {}".format(
                type(layer)))
        owned = True
    return x


def inference_constants(model, feature_vector, conversion=None):
    """What :func:`inference_logits` needs that no row changes, for
    :func:`constant_logits`: the tuple and classification blocks' leaf
    layers, ``emb_R`` and ``emb_R @ M1^T``.  ``W = M2 + M3 * emb_R``
    stays per call, so no Ne x Ne array is kept per classifier."""
    if model.use_conversion and conversion is None:
        raise ValueError("use_conversion=True requires a conversion matrix")
    if not model.use_conversion and conversion is not None:
        raise ValueError("conversion given but use_conversion=False")
    v_r = np.asarray(feature_vector, dtype=np.float64).reshape(1, model.ku)
    emb_r = _infer_layers(_leaf_layers(model.uis_block), v_r)    # (1, Ne)
    if conversion is not None:
        conversion = np.asarray(conversion, dtype=np.float64)
    return (list(_leaf_layers(model.tuple_block)),
            list(_leaf_layers(model.clf_block)), emb_r, conversion,
            None if conversion is None
            else conversion_constant(emb_r, conversion))


def constant_logits(constants, tuple_vectors):
    """:func:`inference_logits` over ``tuple_vectors`` from the
    classifier's :func:`inference_constants`, bit for bit."""
    tuple_layers, clf_layers, emb_r, conversion, constant = constants
    x = np.asarray(tuple_vectors, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    emb_x = _infer_layers(tuple_layers, x)                   # (n, Ne)
    if conversion is not None:
        combined, _ = conversion_rows(emb_r, emb_x, conversion, constant)
    else:
        ne = emb_r.shape[1]
        combined = np.empty((len(x), 3 * ne))
        combined[:, :ne] = emb_r
        combined[:, ne:2 * ne] = emb_x
        np.multiply(emb_r, emb_x, out=combined[:, 2 * ne:])
    return _infer_layers(clf_layers, combined).reshape(-1)


def inference_logits(model, feature_vector, tuple_vectors, conversion=None):
    """No-grad logits of one UIS classifier over a row set, shape (n,).

    The products of ``UISClassifier.forward`` in the same order (hence
    the same bits for the same rows in one call): the two embedding
    blocks, then — with a conversion matrix —
    :func:`~repro.nn.functional.conversion_rows`, the very function
    under the autograd op (``emb_tau @ (M2 + M3 * emb_R)^T + emb_R @
    M1^T``; no 3Ne-wide row), then the classification block.  Without
    one, ``[emb_R, emb_tau, emb_R * emb_tau]`` is written straight into
    one ``(n, 3Ne)`` array, the block's input.  No ``Tensor`` node, no
    concatenation, no parameter stack.
    A logit may differ in the last place between calls of different row
    counts (BLAS picks its kernel by shape), so callers compare
    *answers* across row sets, not logits.  ``model`` is anything with
    the ``uis_block`` / ``tuple_block`` / ``clf_block`` / ``ku`` /
    ``use_conversion`` surface; the arguments are those of ``forward``.
    """
    return constant_logits(
        inference_constants(model, feature_vector, conversion=conversion),
        tuple_vectors)
