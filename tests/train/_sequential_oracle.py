"""The task-at-a-time executors as the oracle of the stacked ones.

Until the stacked program became the only executor in ``src/``, the
local phase of Algorithm 2 was written three times and the pretrain
step, the meta-batch, the evaluation loop and the epoch driver twice.
The bodies below are the eager copies, moved here verbatim (``self`` is
now the ``trainer`` argument) from ``MetaTrainer.adapt`` /
``pretrain_step`` / ``train_batch_sequential`` / ``_update_memories`` /
``evaluate`` and ``repro.train.engine.run_pretrain_epoch_sequential``
when ``engine=`` went away: one task, one ``UISClassifier``, one
optimizer at a time, each forward and backward the autograd graph of
``tests/nn/_autograd_oracle.py``.  The parity suites compare every
stacked executor against them bit for bit, at K = 1 as well as K > 1.
Nothing in ``src/`` imports this module.

:func:`train_sequential` / :func:`fit_offline_sequential` are what
``MetaTrainer.train(engine="sequential")`` and
``LTE.fit_offline(engine="sequential")`` ran: every epoch order is drawn
from the :class:`~repro.train.TrainerSchedule`'s RNG, in the order the
pooled driver draws them.
"""

import os
import sys

import numpy as np

from repro.core.meta_learner import UISClassifier
from repro.core.meta_training import AdaptedClassifier, retrieval_digest
from repro.nn import Adam, SGD, Parameter
from repro.nn.batching import (_leaf_layers, block_leaves,
                               retrieval_constants)
from repro.train import TrainerSchedule, encode_task_sets

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "nn"))
from _autograd_oracle import (balanced_pos_weight,  # noqa: E402
                              binary_cross_entropy_with_logits, forward)


def retrieved_model(trainer, feature_vector):
    """``MetaTrainer.task_retrieval`` as it was: a clone of phi with the
    retrieved theta_R (Eq. 6), the retrieved M_cp (Eq. 10, None without
    memories) and the attention."""
    theta_r, conversion, attention = trainer.retrieved_init(
        np.asarray(feature_vector, dtype=np.float64))
    local = trainer.model.clone()
    local.set_theta_r_flat(theta_r)
    return local, conversion, attention


def adapted_of(model, feature_vector, conversion=None, trains_uis=False):
    """The :class:`AdaptedClassifier` of a whole trained model: its tuple
    and classification blocks (and its UIS block, for Basic, which
    trains it) and the retrieval of its UIS block and ``conversion``."""
    feature_vector = np.asarray(feature_vector, dtype=np.float64)
    names = ("uis_block", "tuple_block", "clf_block") if trains_uis \
        else ("tuple_block", "clf_block")
    if isinstance(conversion, Parameter):
        conversion = conversion.data
    retrieval = None if trains_uis else retrieval_constants(
        block_leaves(model.uis_block), feature_vector.reshape(1, -1),
        conversion)
    return AdaptedClassifier(
        model.config, feature_vector,
        {name: block_leaves(getattr(model, name)) for name in names},
        retrieval)


def whole_model(adapted, trainer=None):
    """``(model, conversion | None)``: a whole ``UISClassifier`` holding
    an adapted classifier's blocks and its retrieval's theta_R, with its
    M_cp — what the classifier held before it kept only what its labels
    moved.  A Meta / Meta* classifier's theta_R and M_cp are recomputed
    from the meta-learner it adapted under (``retrieved_init``, to which
    the classifier's constants are pinned in
    ``tests/serve/test_fixed_retrieval.py``): ``trainer``, or the first
    of a list of candidates whose retrieval is the classifier's."""
    if "uis_block" not in adapted.blocks and isinstance(trainer, list):
        digest = retrieval_digest(adapted.retrieval)
        trainer = next(candidate for candidate in trainer
                       if candidate is not None
                       and retrieval_digest(candidate.task_retrieval(
                           adapted.feature_vector)[0]) == digest)
    model = UISClassifier.from_config(adapted.config)
    for name, leaves in adapted.blocks.items():
        for layer, leaf in zip(_leaf_layers(getattr(model, name)), leaves):
            if leaf is not None:
                layer.weight.copy_(leaf[0])
                layer.bias.copy_(leaf[1].reshape(-1))
    if "uis_block" in adapted.blocks:
        return model, None
    theta_r, conversion, _ = trainer.retrieved_init(adapted.feature_vector)
    model.set_theta_r_flat(theta_r)
    return model, None if conversion is None else np.array(conversion)


def classifier_arrays(adapted):
    """Every array an adapted classifier holds, in one fixed order: v_R,
    its blocks' leaf arrays by block name, then its retrieval."""
    arrays = [adapted.feature_vector]
    for name in sorted(adapted.blocks):
        for leaf in adapted.blocks[name]:
            arrays.extend(array for array in leaf or () if array is not None)
    arrays.extend(array for array in adapted.retrieval if array is not None)
    return arrays


def assert_same_classifier(got, want):
    """Same blocks and retrieval, array for array and bit for bit."""
    assert sorted(got.blocks) == sorted(want.blocks)
    mine, theirs = classifier_arrays(got), classifier_arrays(want)
    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        assert np.array_equal(a, b)


def adapt(trainer, feature_vector, support_x, support_y, local_steps=None,
          local_lr=None):
    """``MetaTrainer.adapt`` as it was: the eager local phase of one
    task, online and in meta-training's inner loop.  Returns
    ``(AdaptedClassifier, info)``; ``info["model"]`` and
    ``info["conversion"]`` are the trained model and the conversion
    :class:`Parameter` (or None).  The optimizer steps the tuple and
    classification blocks only, so theta_R and M_cp keep their retrieved
    values (the forward and backward still run through them, every
    step)."""
    params = trainer.params
    steps = params.local_steps if local_steps is None else int(local_steps)
    lr = params.rho if local_lr is None else float(local_lr)
    feature_vector = np.asarray(feature_vector, dtype=np.float64)
    support_x = np.atleast_2d(np.asarray(support_x, dtype=np.float64))
    support_y = np.asarray(support_y, dtype=np.float64).ravel()

    local, conversion, attention = retrieved_model(trainer, feature_vector)
    if conversion is not None:
        conversion = Parameter(conversion)

    trainable = [*local.tuple_block.parameters(),
                 *local.clf_block.parameters()]
    if params.local_optimizer == "adam":
        optimizer = Adam(trainable, lr=lr)
    else:
        optimizer = SGD(trainable, lr=lr)

    loss_value = float("nan")
    pos_weight = balanced_pos_weight(support_y) \
        if params.balance_classes else None
    for _ in range(steps):
        optimizer.zero_grad()
        logits = forward(local, feature_vector, support_x,
                         conversion=conversion)
        loss = binary_cross_entropy_with_logits(logits, support_y,
                                                pos_weight=pos_weight)
        loss.backward()
        optimizer.step()
        loss_value = loss.item()

    adapted = adapted_of(local, feature_vector, conversion)
    info = {"attention": attention, "support_loss": loss_value,
            "model": local, "conversion": conversion}
    return adapted, info


def pretrain_step(trainer, optimizer, conversion, feature_vector, x, y):
    """One task of joint multi-task pretraining: a single Adam step
    of the *unadapted* meta-learner's loss on the task's labelled
    tuples (support + query pooled).

    Joint pretraining minimizes the query loss of phi itself across
    all meta-tasks before the MAML loop; at the reproduction's task
    counts this supplies the bulk of the zero-shot quality that the
    paper obtains from |TM|=5000 tasks of pure meta-gradients (set
    ``pretrain_epochs=0`` for the literal Algorithm 2).  Unlike the
    meta-batches, consecutive steps share phi, so the *task* loop is
    inherently sequential — the pooled offline engine instead fuses
    this step across meta-subspaces (:mod:`repro.train.engine`).
    """
    pos_weight = balanced_pos_weight(y) \
        if trainer.params.balance_classes else None
    optimizer.zero_grad()
    logits = forward(trainer.model, feature_vector, x, conversion=conversion)
    loss = binary_cross_entropy_with_logits(
        logits, y, pos_weight=pos_weight)
    loss.backward()
    optimizer.step()


def train_batch_sequential(trainer, encoded, batch):
    """One Eq. 12/13 meta-batch on the sequential reference executor.

    Adapts every task of the batch from the batch-start memory
    state (:func:`adapt`: theta_R and M_cp keep their retrieved values),
    backpropagates each query loss, applies the deferred memory EMA
    updates (Eqs. 14-16: theta_R's query gradient, and M_cp moved by one
    query-gradient step) in task order and takes the one aggregated
    Eq. 13 step on phi.  Returns the per-task query losses in task
    order.
    """
    params = trainer.params
    phi_params = dict(trainer.model.named_parameters())
    accum = {name: np.zeros_like(p.data)
             for name, p in phi_params.items()}
    memory_updates = []
    losses = []
    for task_idx in batch:
        v_r, sx, sy, qx, qy = encoded[task_idx]
        _, info = adapt(trainer, v_r, sx, sy)
        local = info["model"]
        conversion = info["conversion"]
        # Global phase: query loss through adapted parameters
        # (first-order meta-gradient).
        local.zero_grad()
        if conversion is not None:
            conversion.zero_grad()
        logits = forward(local, v_r, qx, conversion=conversion)
        query_pos_weight = balanced_pos_weight(qy) \
            if params.balance_classes else None
        query_loss = binary_cross_entropy_with_logits(
            logits, qy, pos_weight=query_pos_weight)
        query_loss.backward()
        losses.append(query_loss.item())
        for name, local_param in local.named_parameters():
            if local_param.grad is not None:
                accum[name] += local_param.grad
        if trainer.use_memories:
            theta_r_grad = np.concatenate(
                [p.grad.ravel() for p in local.uis_block.parameters()])
            memory_updates.append((
                v_r, info["attention"], theta_r_grad,
                conversion.data - params.rho * conversion.grad))
    for update in memory_updates:
        _update_memories(trainer, *update)
    # Eq. 13: one aggregated step on phi.  The accumulated gradient
    # is averaged over the batch so the step size is invariant to
    # batch_size.
    scale = params.lam / len(batch)
    for name, phi in phi_params.items():
        phi.data = phi.data - scale * accum[name]
    return losses


def _update_memories(trainer, feature_vector, attention, theta_r_grad,
                     conversion):
    params = trainer.params
    trainer.memories.update_feature_patterns(attention, feature_vector,
                                             params.eta)
    trainer.memories.update_parameter_memory(attention, theta_r_grad,
                                             params.beta)
    trainer.memories.update_conversion_memory(attention, conversion,
                                              params.gamma)


def run_pretrain_epoch_sequential(schedule):
    """One joint-pretraining epoch of a single trainer, task at a time."""
    trainer = schedule.trainer
    optimizer = Adam(trainer.model.parameters(),
                     lr=trainer.params.pretrain_lr)
    if schedule.pretrain_opt_state is not None:
        optimizer.load_state_dict(schedule.pretrain_opt_state)
    conversion = trainer.pretrain_conversion()
    for idx in schedule.next_pretrain_order():
        v_r, x, y = schedule.pretrain_sets[idx]
        pretrain_step(trainer, optimizer, conversion, v_r, x, y)
    schedule.pretrain_opt_state = optimizer.state_dict()


def evaluate(trainer, tasks, encode, local_steps=None):
    """``MetaTrainer.evaluate``'s task loop: mean query-set accuracy
    after one eager online :func:`adapt` per task."""
    scores = []
    for task in tasks:
        adapted, _ = adapt(trainer, task.feature_vector,
                           encode(task.support_x), task.support_y,
                           local_steps=local_steps)
        pred = adapted.predict(encode(task.query_x))
        scores.append(float(np.mean(pred == task.query_y)))
    return float(np.mean(scores)) if scores else 0.0


# ----------------------------------------------------------------------
# Drivers: what engine="sequential" ran, one schedule to completion
# ----------------------------------------------------------------------
def run_schedule_sequential(schedule):
    """Every remaining epoch of ``schedule``, task at a time: the
    pretrain epochs, then the meta epochs in batches of
    ``params.batch_size`` over the schedule's shuffled order, the mean
    query loss of each appended to ``trainer.history``.  Trainers are
    independent (own phi, memories and RNG stream), so running one to
    completion equals any interleaving with others."""
    trainer = schedule.trainer
    while schedule.phase == "pretrain":
        run_pretrain_epoch_sequential(schedule)
        schedule.pretrain_done += 1
    batch_size = int(trainer.params.batch_size)
    while schedule.phase == "meta":
        order = schedule.next_meta_order()
        losses = []
        for start in range(0, len(order), batch_size):
            losses.extend(train_batch_sequential(
                trainer, schedule.encoded,
                list(order[start:start + batch_size])))
        trainer.history.append(float(np.mean(losses)) if losses else 0.0)
        schedule.meta_done += 1
    return schedule


def train_sequential(trainer, tasks, encode):
    """``MetaTrainer.train(tasks, encode)`` on the executors above."""
    run_schedule_sequential(TrainerSchedule(
        trainer, encode_task_sets(tasks, encode)))
    return trainer


def fit_offline_sequential(lte, table, subspaces=None):
    """``LTE.fit_offline(table, subspaces)`` with every subspace's
    meta-learner trained by :func:`train_sequential`."""
    lte.fit_offline(table, subspaces=subspaces, train=False)
    for state in lte.states.values():
        tasks = state.task_generator.generate(lte.config.n_tasks)
        state.trainer = train_sequential(lte.build_trainer(state), tasks,
                                         state.encode_scaled)
    return lte
