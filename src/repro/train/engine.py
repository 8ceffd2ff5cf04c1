"""Fused batched execution of offline meta-training (Algorithm 2).

The paper's offline phase dominates end-to-end cost (Fig. 8b): |TM|
meta-tasks per meta-subspace, each adapted for ``local_steps`` and
meta-stepped through its query loss.  One task is tiny — all Python
overhead — but the tasks inside one Eq. 13 batch are mutually
independent, and so are entire *meta-subspaces*.  This module therefore
runs:

* the **local + global phase of a whole meta-batch** over ``(K, ...)``
  parameter stacks (:func:`run_meta_batch_fused`), where K pools the
  batches of every shape-compatible subspace trained this round: the
  local phase is serving's, the global phase one stacked forward and
  backward of the same array program
  (:func:`repro.nn.batching.step_program`);
* one **joint-pretraining step of S subspaces** as one call of that
  program (:func:`run_pretrain_epoch_pooled`) — the pretrain *task*
  loop shares phi and is inherently sequential, but the S per-subspace
  models are independent slices.

Everything rides :mod:`repro.nn.batching` (the substrate shared with the
online serving path).  These are the only executors: a batch of one task
or a fusion group of one subspace is the same program at K = 1.  The
stacked computation is block-diagonal, so every task sees exactly the
gradients and optimizer updates of a task-at-a-time loop — the loop
itself lives on as the oracle ``tests/train/_sequential_oracle.py``,
against which ``tests/train`` property-fuzzes these executors bit for
bit.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from ..nn.batching import (BatchedUISClassifier, block_leaves,
                           fused_local_adapt, grad_stacks, load_flat_stack,
                           retrieval_constants, stack_conversions,
                           step_program)
from ..nn.cores import run_stack, step_macs
from ..nn.functional import batched_pos_weight
from ..nn.optim import Adam

__all__ = ["encode_task_sets", "MetaBatchSlot", "MetaBatchInputs",
           "MetaBatchResult", "build_meta_batch_inputs",
           "slice_meta_batch_inputs", "compute_meta_batch",
           "concat_meta_batch_results", "apply_meta_batch",
           "run_meta_batch_fused", "run_pretrain_group",
           "run_pretrain_epoch_pooled"]


def encode_task_sets(tasks, encode, rows_per_block=8192, spill=None):
    """Pre-encode meta-task support/query sets, block-wise.

    Returns ``[(feature_vector, enc_support_x, support_y, enc_query_x,
    query_y), ...]`` — the working representation training runs on.
    Tuples from consecutive tasks are concatenated into blocks of up to
    ``rows_per_block`` rows so the preprocessor transforms run over a
    few large matrices instead of 2x|TM| tiny ones; the store-backed
    offline path rides this too, keeping peak encode memory bounded by
    the block size rather than the task count.

    With ``spill`` (a directory path) the encoded rows stream into an
    on-disk :class:`~repro.store.ChunkStore` as they are produced and an
    :class:`~repro.train.stream.EncodedTaskSet` view is returned instead
    of a list: peak resident memory stays bounded by the encode block /
    store chunk size rather than ``|TM| x (k_u + k_q)``.  The spilled
    path reuses the exact same encode-block boundaries (BLAS results
    depend on operand shapes), so the bits read back are identical to
    the materialized list.

    A task set has one shape: every task's feature vector, support set
    and query set must have task 0's shapes (``MetaTaskGenerator``
    emits such sets), or a ``ValueError`` names the first that does
    not.  An empty set encodes to an empty list.
    """
    tasks = list(tasks)
    _require_one_shape(tasks)
    if spill is not None:
        from .stream import spill_encoded_tasks
        return spill_encoded_tasks(tasks, encode, rows_per_block, spill)
    encoded_arrays = list(_iter_encoded_arrays(tasks, encode,
                                               rows_per_block))
    out = []
    for i, task in enumerate(tasks):
        out.append((np.asarray(task.feature_vector, dtype=np.float64),
                    encoded_arrays[2 * i], task.support_y,
                    encoded_arrays[2 * i + 1], task.query_y))
    return out


def _require_one_shape(tasks):
    """Raise ``ValueError`` naming the first task whose feature, support
    or query shape differs from task 0's."""
    def shapes(task):
        return (np.shape(task.feature_vector),
                np.atleast_2d(np.asarray(task.support_x)).shape,
                np.atleast_2d(np.asarray(task.query_x)).shape)

    first = shapes(tasks[0]) if tasks else None
    for index, task in enumerate(tasks):
        if shapes(task) != first:
            raise ValueError(
                "meta-task {} has (feature, support, query) shapes {} but "
                "task 0 has {}: a task set has one shape".format(
                    index, shapes(task), first))


def _iter_encoded_arrays(tasks, encode, rows_per_block):
    """Yield each task's encoded support then query array, in order.

    The blocking policy — accumulate interleaved ``[sx0, qx0, sx1, ...]``
    arrays and flush once ``rows_per_block`` rows have gathered — is the
    bit-identity contract between the materialized and spilled paths:
    both must hand ``encode`` the same matrices.
    """
    block, block_rows = [], 0
    for task in tasks:
        for array in (np.atleast_2d(np.asarray(task.support_x,
                                               dtype=np.float64)),
                      np.atleast_2d(np.asarray(task.query_x,
                                               dtype=np.float64))):
            block.append(array)
            block_rows += len(array)
            if block_rows >= rows_per_block:
                yield from _encode_block(block, encode)
                block, block_rows = [], 0
    if block:
        yield from _encode_block(block, encode)


def _encode_block(block, encode):
    """Encode a list of row blocks in one transform call; split back."""
    stacked = encode(np.vstack(block))
    lengths = [len(array) for array in block]
    offsets = np.cumsum([0] + lengths)
    return [np.ascontiguousarray(stacked[offsets[i]:offsets[i + 1]])
            for i in range(len(block))]


#: One trainer's share of a fused meta-batch: its encoded task set and
#: the task indices (in order) it contributes this round.
MetaBatchSlot = namedtuple("MetaBatchSlot", ["trainer", "encoded", "indices"])

#: The per-task arrays of one fused meta-batch, K tasks deep.
#: ``features`` is the ``(K, ku)`` stack and ``shifts`` the
#: ``(K, theta_r_size)`` memory-retrieved theta_R start stack (or None
#: without memories); ``sx`` / ``sy`` / ``qx`` / ``qy`` /
#: ``conversions`` / ``attentions`` are per-task lists (stacked by
#: :func:`compute_meta_batch`; without memories ``conversions`` and
#: ``attentions`` entries are None).
MetaBatchInputs = namedtuple("MetaBatchInputs", [
    "features", "sx", "sy", "qx", "qy",
    "shifts", "conversions", "attentions"])

#: The pure-compute products of one fused meta-batch (or a contiguous
#: task span of one — a half): per-task query losses, per-parameter
#: query gradient stacks (the ``uis_block.*`` entries are theta_R's, which
#: the parameter memory reads, Eq. 15) and the (K, Ne, 3 Ne) M_cp stack
#: the conversion memory reads (Eq. 16), or None without memories.
MetaBatchResult = namedtuple("MetaBatchResult", [
    "losses", "grad_stacks", "conversion_data"])


def build_meta_batch_inputs(slots):
    """Stack one meta-batch's per-task arrays; returns (models, inputs).

    Task-wise initialization (Eqs. 6/10/11), stacked straight off each
    trainer's meta-learned template: the K slices start as copies of phi
    (no per-task model construction), then the memory-retrieved theta_R
    (:meth:`~repro.core.meta_training.MetaTrainer.retrieved_init`) lands
    row-wise in the stacked UIS block.
    """
    models = []
    attentions, conversions, shifts = [], [], []
    v_rs, sxs, sys_, qxs, qys = [], [], [], [], []
    for slot in slots:
        trainer = slot.trainer
        models.extend([trainer.model] * len(slot.indices))
        for idx in slot.indices:
            v_r, sx, sy, qx, qy = slot.encoded[idx]
            conversion = attention = None
            if trainer.use_memories:
                theta_r, conversion, attention = trainer.retrieved_init(v_r)
                shifts.append(theta_r)
            attentions.append(attention)
            conversions.append(conversion)
            v_rs.append(v_r)
            sxs.append(sx)
            sys_.append(np.asarray(sy, dtype=np.float64).ravel())
            qxs.append(qx)
            qys.append(np.asarray(qy, dtype=np.float64).ravel())
    return models, MetaBatchInputs(
        np.stack(v_rs), sxs, sys_, qxs, qys,
        np.stack(shifts) if shifts else None, conversions, attentions)


def slice_meta_batch_inputs(inputs, start, stop):
    """The contiguous task span ``[start, stop)`` of a batch's inputs."""
    return MetaBatchInputs(
        inputs.features[start:stop], inputs.sx[start:stop],
        inputs.sy[start:stop], inputs.qx[start:stop],
        inputs.qy[start:stop],
        None if inputs.shifts is None else inputs.shifts[start:stop],
        inputs.conversions[start:stop], inputs.attentions[start:stop])


def compute_meta_batch(models, params, inputs):
    """The pure compute of one fused meta-batch: adapt + query backward.

    ``models`` and ``inputs`` may cover a whole batch or any contiguous
    task span of one: the stacked program is block-diagonal, so every
    task's losses and gradients are bit-identical at any stack size —
    which is what lets a batch train as two halves on two threads
    (:func:`repro.nn.cores.run_stack`), stitched back in task order,
    without perturbing a single bit.

    Mutates nothing: phi, memories, and optimizer state are untouched
    (apply the result with :func:`apply_meta_batch`).
    """
    def compute(tasks):
        start, stop = tasks[0], tasks[-1] + 1
        return _compute_stack(models[start:stop], params,
                              slice_meta_batch_inputs(inputs, start, stop))

    macs = step_macs(models[0].config, len(models), len(inputs.sx[0]),
                     keep_retrieved=True)
    return concat_meta_batch_results(
        run_stack(compute, range(len(models)), macs))


def _compute_stack(models, params, inputs):
    """:func:`compute_meta_batch` on one stack, whole or a half.

    The local phase (Eq. 12) is the online one: the UIS block holds the
    retrieved theta_R and the conversion the retrieved M_cp, and
    ``local_steps`` steps train the tuple and classification blocks
    (``fused_local_adapt(..., retrieved=...)``).  The global phase (Eq.
    13) is one stacked query forward/backward of the same step program:
    it yields every block's gradient, theta_R's included, and M_cp's, by
    which the retrieved M_cp takes one ``rho`` step for the conversion
    memory.
    """
    batched = BatchedUISClassifier(models)
    if inputs.shifts is not None:
        load_flat_stack(batched.uis_block, np.asarray(inputs.shifts))
    features = np.asarray(inputs.features)
    conversion, retrieved = _stack_retrieval(batched, features,
                                             inputs.conversions)
    fused_local_adapt(
        batched, features, np.stack(inputs.sx), np.stack(inputs.sy),
        steps=params.local_steps, lr=params.rho,
        optimizer_kind=params.local_optimizer,
        balance_classes=params.balance_classes, retrieved=retrieved)

    # Global phase (Eq. 13): all K query losses in one forward/backward.
    qx_stack, qy_stack = np.stack(inputs.qx), np.stack(inputs.qy)
    pos_weight = batched_pos_weight(qy_stack) \
        if params.balance_classes else None
    task_losses = step_program(batched, qx_stack.shape,
                               conversion=conversion)(
        features, qx_stack, qy_stack, pos_weight)
    return MetaBatchResult(
        [float(value) for value in task_losses], grad_stacks(batched),
        None if conversion is None
        else conversion.data - params.rho * conversion.grad)


def _stack_retrieval(batched, features, conversions):
    """The stacked M_cp :class:`~repro.nn.tensor.Parameter` (None
    without memories) and the :class:`~repro.nn.batching.Retrieval` of a
    stack whose UIS block holds each task's retrieved theta_R."""
    conversion = stack_conversions(list(conversions))
    return conversion, retrieval_constants(
        block_leaves(batched.uis_block),
        features.reshape(batched.k, 1, batched.ku),
        None if conversion is None else conversion.data)


def concat_meta_batch_results(parts):
    """Stitch span results back into one batch-wide result, in order.

    The spans (the halves of a batch) must be the contiguous partition
    of the batch's task list, given in task order
    — concatenation then reproduces exactly the arrays a single
    whole-batch :func:`compute_meta_batch` returns.
    """
    if len(parts) == 1:
        return parts[0]
    losses = [value for part in parts for value in part.losses]
    stacks = {name: np.concatenate([part.grad_stacks[name]
                                    for part in parts])
              for name in parts[0].grad_stacks}
    conversion_data = None if parts[0].conversion_data is None \
        else np.concatenate([part.conversion_data for part in parts])
    return MetaBatchResult(losses, stacks, conversion_data)


def apply_meta_batch(slots, inputs, result):
    """The ordered reduction tail of one fused meta-batch.

    Per slot: per-trainer gradient accumulation as a **fixed left-fold
    in task order** (float addition is non-associative — a pairwise
    tree would diverge from the task-at-a-time oracle in the last
    bits), deferred memory EMA updates (Eqs. 14-16) in task order, then
    one Eq. 13 step on each trainer's phi.  The parameter memory reads
    theta_R's query gradient (Eq. 15), the conversion memory the
    retrieved M_cp moved by one query-gradient step (Eq. 16; see
    :class:`~repro.core.memory.MetaMemories`).  Because
    :func:`compute_meta_batch` is partition-invariant and this fold is
    fixed, the update is the same whether a run trained whole or as
    two halves.

    Returns the per-slot lists of query losses, in slot order.
    """
    stacks = result.grad_stacks
    out = []
    offset = 0
    for slot in slots:
        trainer = slot.trainer
        params = trainer.params
        k = len(slot.indices)
        phi_params = dict(trainer.model.named_parameters())
        accum = {name: np.zeros_like(p.data)
                 for name, p in phi_params.items()}
        for j in range(offset, offset + k):
            for name, phi in phi_params.items():
                accum[name] += stacks[name][j].reshape(phi.data.shape)
        if trainer.use_memories:
            theta_r = [name for name, _ in
                       trainer.model.uis_block.named_parameters("uis_block.")]
            for pos in range(k):
                j = offset + pos
                v_r = slot.encoded[slot.indices[pos]][0]
                trainer.memories.update_feature_patterns(
                    inputs.attentions[j], v_r, params.eta)
                trainer.memories.update_parameter_memory(
                    inputs.attentions[j],
                    np.concatenate([stacks[name][j].ravel()
                                    for name in theta_r]), params.beta)
                trainer.memories.update_conversion_memory(
                    inputs.attentions[j], result.conversion_data[j],
                    params.gamma)
        scale = params.lam / k
        for name, phi in phi_params.items():
            phi.data = phi.data - scale * accum[name]
        out.append(result.losses[offset:offset + k])
        offset += k
    return out


def run_meta_batch_fused(slots):
    """Execute one pooled Eq. 12/13 meta-batch as a fused program.

    ``slots`` carries one entry per participating trainer; every task
    across all slots must share the model configuration and local
    hyper-parameters (the pooled scheduler groups accordingly).  Per
    slot: task-wise retrieval from the batch-start memories,
    ``local_steps`` of fused adaptation, one fused query backward,
    per-trainer gradient accumulation in task order, deferred memory EMA
    updates in task order, one Eq. 13 step on each trainer's phi.  The
    three phases are :func:`build_meta_batch_inputs` ->
    :func:`compute_meta_batch` -> :func:`apply_meta_batch`; only the
    middle one, pure compute, fans out over threads.

    Returns the per-slot lists of query losses, in slot order.
    """
    models, inputs = build_meta_batch_inputs(slots)
    result = compute_meta_batch(models, slots[0].trainer.params, inputs)
    return apply_meta_batch(slots, inputs, result)


# ----------------------------------------------------------------------
# Joint pretraining epochs (phi-level, Adam state carried via schedules)
# ----------------------------------------------------------------------
def run_pretrain_group(schedules):
    """A fusion group's pretrain epoch: :func:`run_pretrain_epoch_pooled`
    as one stack, or as two halves on two threads
    (:func:`repro.nn.cores.run_stack`) — the epoch of a subset of the
    group is that subset's slice of the whole group's.  Every schedule's
    task order is drawn here, in schedule order, before either half
    starts."""
    schedules = list(schedules)
    orders = [schedule.next_pretrain_order() for schedule in schedules]

    def train(span):
        run_pretrain_epoch_pooled([schedules[s] for s in span],
                                  [orders[s] for s in span])

    sets = schedules[0].pretrain_sets
    rows = len(sets[0][1]) if len(sets) else 0
    run_stack(train, range(len(schedules)),
              step_macs(schedules[0].trainer.model.config, len(schedules),
                        rows))


def run_pretrain_epoch_pooled(schedules, orders=None):
    """One joint-pretraining epoch of S trainers, fused across them.

    Each trainer's task loop is sequential (consecutive steps share its
    phi), but the S per-subspace models are independent: step t trains
    every trainer's t-th task (per its own shuffle) in one call of a
    stacked :func:`~repro.nn.batching.step_program`, built once an epoch,
    and one stacked Adam step.  Slice s is bit-identical
    to a task-at-a-time epoch of trainer s alone — at ANY subset of
    trainers, S = 1 included, which is why :func:`run_pretrain_group`
    can split a group into halves.  ``orders`` (optional) supplies the
    per-schedule task permutations instead of drawing them from the
    schedules' RNGs: a group's orders are drawn before it splits, so
    the draws do not depend on which half runs first.
    """
    trainers = [schedule.trainer for schedule in schedules]
    models = [trainer.model for trainer in trainers]
    batched = BatchedUISClassifier(models)
    params = trainers[0].params
    optimizer = Adam(batched.parameters(), lr=params.pretrain_lr)
    _load_stacked_adam(optimizer, schedules, batched)

    conversions = [trainer.pretrain_conversion() for trainer in trainers]
    conversion = None if conversions[0] is None else np.stack(conversions)
    if orders is None:
        orders = [schedule.next_pretrain_order() for schedule in schedules]
    loss_backward = None
    for t in range(len(schedules[0].pretrain_sets)):
        picks = [schedule.pretrain_sets[orders[s][t]]
                 for s, schedule in enumerate(schedules)]
        features = np.stack([pick[0] for pick in picks])
        xs = np.stack([pick[1] for pick in picks])
        ys = np.stack([pick[2] for pick in picks])
        pos_weight = batched_pos_weight(ys) \
            if params.balance_classes else None
        # One stacked forward/backward (it sets the parameter
        # gradients), then the persistent stacked Adam consumes them.
        if loss_backward is None:
            loss_backward = step_program(batched, xs.shape,
                                         conversion=conversion)
        loss_backward(features, xs, ys, pos_weight)
        optimizer.step()

    batched.unstack_into(models)
    _store_stacked_adam(optimizer, schedules, models)


def _load_stacked_adam(optimizer, schedules, batched):
    """Stack the per-schedule Adam moment slices into the fused optimizer."""
    states = [schedule.pretrain_opt_state for schedule in schedules]
    if all(state is None for state in states):
        return
    if any(state is None for state in states):
        raise ValueError("cannot pool trainers with and without pretrain "
                         "optimizer state")
    steps = {int(state["step"]) for state in states}
    if len(steps) > 1:
        raise ValueError("cannot pool pretrain optimizers at different "
                         "step counts: {}".format(sorted(steps)))
    batched_params = list(batched.parameters())
    stacked = dict(states[0])
    for key in ("m", "v"):
        stacked[key] = [
            np.stack([np.asarray(state[key][i]).reshape(p.data.shape[1:])
                      for state in states])
            for i, p in enumerate(batched_params)]
    optimizer.load_state_dict(stacked)


def _store_stacked_adam(optimizer, schedules, models):
    """Slice the fused Adam state back into per-schedule states."""
    stacked = optimizer.state_dict()
    for s, (schedule, model) in enumerate(zip(schedules, models)):
        state = dict(stacked)
        for key in ("m", "v"):
            state[key] = [
                np.ascontiguousarray(
                    np.asarray(stacked[key][i])[s].reshape(p.data.shape))
                for i, p in enumerate(model.parameters())]
        schedule.pretrain_opt_state = state
