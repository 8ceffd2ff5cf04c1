"""Shared task-stacking substrate for fused multi-task training.

One few-shot UIS-classifier task is far too small to saturate anything —
its cost is Python overhead.  Both the *online* serving hot path
(:func:`repro.core.framework.run_adapt_requests`) and the *offline*
meta-training engine (:mod:`repro.train.engine`) therefore stack K
structurally identical tasks into fused ``(K, ...)`` arrays and train
them as ONE array program — K = 1 included: a lone task is a stack of
one, not a second code path.  This module is the shared substrate both
layers build on:

* :class:`BatchedUISClassifier` — K per-task classifier copies fused
  into stacked :class:`~repro.nn.BatchedLinear` blocks;
* :func:`step_program` — the one stacked forward and backward of the
  summed per-task BCE loss, with no autograd graph: each call's
  forward and explicit backward run into buffers allocated once, with
  the bits of the ``Tensor`` graph that ``UISClassifier.forward`` spells
  (the conversion matrices applied by blocks, through the same
  :func:`~repro.nn.functional.conversion_rows` and
  :func:`~repro.nn.functional.conversion_grads`).  Every stacked step
  runs it: the local phase of every variant, meta-training's query
  pass and each joint-pretraining step;
* :func:`fused_local_adapt` — the fused few-shot optimization loop
  (per-task-reduced BCE + pos-weight, one Adam/SGD over the stacks).
  For Meta and Meta*, online and in meta-training's inner loop alike,
  it trains the tuple and classification blocks only, fed the
  retrieval's ``emb_R``, ``W`` and ``c`` (:class:`Retrieval`); Basic
  trains all of its classifier;
* :func:`grad_stacks` — per-task gradient slices out of the stacked
  parameters, in the exact layout of the corresponding per-task model
  (the meta-training global phase and the parameter memory's EMA
  update consume these);
* :func:`inference_logits` — the no-grad forward of ONE classifier as
  plain ``np.matmul`` products, no :class:`~repro.nn.tensor.Tensor`
  nodes, through :func:`constant_logits` over the classifier's leaf
  arrays (:func:`block_leaves`) and its :class:`Retrieval` — ``emb_R``,
  ``W = M2 + M3 * emb_R`` and ``c = emb_R @ M1^T``, computed once a
  task (:func:`retrieval_constants`).  Every prediction outside
  training goes through it: serving scores each session over the rows
  *its* hulls left open, so nothing is stacked.

Because the stacked computation is block-diagonal across tasks, every
task receives exactly the gradients and optimizer updates an eager
one-task loop would give it — bit for bit, at any K.  The parity suites
in ``tests/serve`` and ``tests/train`` verify this end to end against
the eager loops they keep as oracles; ``tests/nn`` holds the step
program to the stacked ``Tensor`` graph it replaced.

The module is deliberately duck-typed: it touches only the
``uis_block`` / ``tuple_block`` / ``clf_block`` / ``config`` surface of
the models it stacks, so :mod:`repro.nn` does not import
:mod:`repro.core`.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .functional import (batched_binary_cross_entropy_grad,
                         batched_pos_weight, conversion_constant,
                         conversion_grads, conversion_weight)
from .layers import (BatchedLinear, Linear, Module, ReLU, Sequential,
                     batch_modules, unstack_modules)
from .optim import SGD, Adam
from .tensor import Parameter

__all__ = ["BatchedUISClassifier", "fused_local_adapt", "step_program",
           "stack_conversions", "load_flat_stack", "grad_stacks",
           "inference_logits", "inference_constants",
           "constant_logits", "Retrieval", "retrieval_constants",
           "stack_retrievals", "block_leaves", "flat_leaves",
           "stack_leaves"]

#: What a task's fixed retrieval gives every row, one task's or a (K,
#: ...) stack of them: ``emb_r`` = the UIS block of ``v_R``, (..., 1, Ne);
#: with a conversion matrix ``M_cp = [M1 | M2 | M3]``, ``weight`` = ``W =
#: M2 + M3 * emb_R``, (..., Ne, Ne), and ``constant`` = ``emb_R @ M1^T``,
#: (..., 1, Ne) — both None without one.  Read-only once computed.
Retrieval = namedtuple("Retrieval", ["emb_r", "weight", "constant"])


class BatchedUISClassifier(Module):
    """K structurally identical UIS classifiers fused into stacked blocks.

    Features (K, ku) and tuples (K, n, width) map to logits (K, n)
    through :func:`step_program`, ``UISClassifier.forward`` over a
    leading batch axis.  Built from per-task model instances (whose
    parameters seed the stacks) and unstacked back into them after
    training.  It exists to *train* K tasks as one array program;
    nothing is stacked to predict (:func:`inference_logits`).
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

    @classmethod
    def from_blocks(cls, config, k, blocks):
        """K tasks whose blocks are already stacked: ``blocks`` maps some
        of ``uis_block`` / ``tuple_block`` / ``clf_block`` to a
        :func:`stack_leaves` module.  The online local phase of Meta and
        Meta* stacks only the two blocks it trains."""
        out = cls.__new__(cls)
        Module.__init__(out)
        out.k = int(k)
        out.ku = config["ku"]
        out.embed_size = config["embed_size"]
        out.use_conversion = config["use_conversion"]
        for name, block in blocks.items():
            setattr(out, name, block)
        return out

    def unstack_into(self, models):
        """Copy the adapted per-slice parameters back into K models."""
        unstack_modules(self.uis_block, [m.uis_block for m in models])
        unstack_modules(self.tuple_block, [m.tuple_block for m in models])
        unstack_modules(self.clf_block, [m.clf_block for m in models])


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


def fused_local_adapt(batched, features, xs, ys, *, steps, lr,
                      optimizer_kind="adam", balance_classes=True,
                      retrieved=None):
    """Fused few-shot optimization of K stacked tasks (the local phase).

    Runs ``steps`` iterations of per-task-reduced BCE descent on the
    stacks of ``batched``, in place: the loss is the *sum of per-task
    mean losses*, which is block-diagonal, so each task's parameters see
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
    blocks = [batched.tuple_block, batched.clf_block]
    if retrieved is None:
        blocks.insert(0, batched.uis_block)
    trainable = [param for block in blocks for param in block.parameters()]
    loss_backward = step_program(batched, xs.shape, retrieved=retrieved)
    optimizer = (Adam if optimizer_kind == "adam" else SGD)(trainable, lr=lr)
    task_losses = None
    for _ in range(steps):
        task_losses = loss_backward(features, xs, ys, pos_weight)
        optimizer.step()
    return task_losses


def step_program(batched, shape, retrieved=None, conversion=None):
    """Every stacked training forward and backward, as one array program
    with no autograd graph: a function ``loss_backward(features, xs, ys,
    pos_weight)`` of (K, ku), (K, n, width), (K, n) and (K, 1) or None
    inputs of ``shape`` = (K, n, width), new on each call, that sets the
    trained blocks' ``.grad`` and returns the (K,) per-task losses of
    the summed per-task BCE loss.

    Given ``retrieved`` (the stack's :class:`Retrieval`, the local phase
    of Meta and Meta*), ``emb_R``, ``W`` and ``c`` (the helpers of
    :func:`~repro.nn.functional.conversion_rows`) are constants and the
    tuple and classification blocks train; ``features`` is not read.
    Otherwise the UIS block trains too, and ``conversion`` is the stack's
    M_cp: None for the combined row ``[emb_R, emb_tau, emb_R * emb_tau]``
    (Basic, and Meta without memories), a (K, Ne, 3Ne) array for a
    constant (joint pretraining's), or a :class:`Parameter`, which gets
    its gradient (meta-training's query pass, Eqs. 15-16).

    A call walks the blocks' leaf layers, stacked Linear or ReLU
    (anything else is a ``TypeError``), into buffers allocated here.
    Each operation is the one the Tensor graph of the stacked forward
    runs on the same operands -- the conversion's backward is
    :func:`~repro.nn.functional.conversion_grads`, which its autograd op
    runs -- so losses and gradients keep that graph's bits
    (``tests/nn/test_step_program.py``, against the graph kept as
    ``tests/nn/_graph_oracle.py``).
    """
    k, n, width = shape
    ne = batched.embed_size
    trains_r, trains_m = retrieved is None, isinstance(conversion, Parameter)
    if trains_r:
        uis_plan = _step_plan(batched.uis_block, k, 1, batched.ku, False)
        blocked = conversion is not None
    else:
        blocked = retrieved.weight is not None
    if blocked != batched.use_conversion:
        raise ValueError("use_conversion={} but {} conversion given".format(
            batched.use_conversion, "a" if blocked else "no"))
    tuple_plan = _step_plan(batched.tuple_block, k, n, width, False)
    combined = np.empty((k, n, ne if blocked else 3 * ne))
    clf_plan = _step_plan(batched.clf_block, k, n, combined.shape[-1], True)
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
                features, dtype=np.float64).reshape(k, 1, batched.ku))
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


def _step_plan(module, k, n, width, input_grad):
    """The buffers of :func:`step_program` for one block over
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
            # Over one row the graph sums nothing: the bias takes the
            # gradient as it is, a -0.0 included.
            if grad.shape[1] == 1:
                np.copyto(grad_b, grad)
            else:
                np.sum(grad, axis=1, keepdims=True, out=grad_b)
            layer.bias.grad = grad_b
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


def _leaf_layers(module):
    """The non-container layers of a module tree, in application order."""
    if isinstance(module, Sequential):
        for child in module:
            yield from _leaf_layers(child)
    else:
        yield module


def _infer_layers(leaves, x):
    """A block's :func:`block_leaves` applied to ``x``, on raw arrays.
    Each step is the array operation the layer's ``forward`` performs,
    in place on the running activation (the input is never written);
    the rectifier is ``x * (x > 0)``, not ``maximum``, which keeps the
    ``-0.0`` and NaN the autograd op yields.
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


def block_leaves(module, k=None):
    """A block's leaf layers as plain arrays, in application order: a
    ``(weight, bias)`` pair per Linear (the bias a (1, out) row, None
    without one) and None per ReLU; anything else is a ``TypeError``.
    Of a stacked block, the whole (K, ...) stacks, or with ``k`` copies
    of slice k — what an adapted classifier keeps of what it trained."""
    leaves = []
    for layer in _leaf_layers(module):
        if isinstance(layer, ReLU):
            leaves.append(None)
            continue
        if not isinstance(layer, (Linear, BatchedLinear)):
            raise TypeError("cannot infer through module of type {}".format(
                type(layer)))
        weight = layer.weight.data
        bias = None if layer.bias is None else layer.bias.data
        if isinstance(layer, Linear) and bias is not None:
            bias = bias.reshape(1, -1)
        if k is not None:
            weight = weight[k].copy()
            bias = None if bias is None else bias[k].copy()
        leaves.append((weight, bias))
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
    """K tasks' :func:`block_leaves` of one block stacked into a trainable
    ``Sequential`` of :class:`BatchedLinear` / :class:`ReLU` layers (each
    slice a copy)."""
    layers = []
    for leaves in zip(*per_task):
        if leaves[0] is None:
            layers.append(ReLU())
            continue
        layer = BatchedLinear.__new__(BatchedLinear)
        Module.__init__(layer)
        layer.k = len(leaves)
        layer.in_features, layer.out_features = leaves[0][0].shape
        layer.weight = Parameter(np.stack([leaf[0] for leaf in leaves]))
        layer.bias = None if leaves[0][1] is None else Parameter(np.stack(
            [leaf[1].reshape(1, -1) for leaf in leaves]))
        layers.append(layer)
    return Sequential(*layers)


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


def inference_logits(model, feature_vector, tuple_vectors, conversion=None):
    """No-grad logits of one UIS classifier over a row set, shape (n,).

    The products of ``UISClassifier.forward`` in the same order (hence
    the same bits for the same rows in one call): the two embedding
    blocks, then — with a conversion matrix — ``emb_tau @ (M2 + M3 *
    emb_R)^T + emb_R @ M1^T`` (the sums of
    :func:`~repro.nn.functional.conversion_rows`, the very function
    under the autograd op; no 3Ne-wide row), then the classification
    block.  Without one, ``[emb_R, emb_tau, emb_R * emb_tau]`` is
    written straight into one ``(n, 3Ne)`` array, the block's input.
    No ``Tensor`` node, no concatenation, no parameter stack.
    A logit may differ in the last place between calls of different row
    counts (BLAS picks its kernel by shape), so callers compare
    *answers* across row sets, not logits.  ``model`` is anything with
    the ``uis_block`` / ``tuple_block`` / ``clf_block`` / ``ku`` /
    ``use_conversion`` surface; the arguments are those of ``forward``.
    """
    return constant_logits(
        inference_constants(model, feature_vector, conversion=conversion),
        tuple_vectors)
