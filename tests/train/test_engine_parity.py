"""Stacked-vs-oracle parity of the offline meta-training engine.

The stacked executors in ``repro.train.engine`` are the only ones in
``src/``; they must be **bit-identical** to the task-at-a-time loops
they replaced, kept verbatim in ``_sequential_oracle.py``: same phi,
same memories, same per-epoch history, same evaluation scores — at
K = 1 (a batch, a fusion group, an adapt of one) as well as K > 1.
Fuzzed over the axes that change the stacked program's shape and math:
memories on/off, Adam vs SGD local steps, class balancing, uneven final
batches, single-task batches, pretraining on/off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _sequential_oracle as oracle
from repro.core.meta_training import MetaHyperParams, MetaTrainer
from repro.train import (MetaBatchSlot, OfflineRun, TrainerSchedule,
                         encode_task_sets, run_meta_batch_fused,
                         run_pretrain_epoch_pooled)

pytestmark = pytest.mark.train


def build_trainer(task_generator, preprocessor, use_memories=True, seed=0,
                  **overrides):
    params = dict(epochs=2, local_steps=3, batch_size=4, pretrain_epochs=1,
                  rho=0.02, lam=1e-3)
    params.update(overrides)
    return MetaTrainer(ku=task_generator.summary.ku,
                       input_width=preprocessor.width,
                       embed_size=12, hidden_size=8,
                       params=MetaHyperParams(**params),
                       use_memories=use_memories, seed=seed)


def assert_trainers_identical(a, b):
    assert np.array_equal(a.model.flat_parameters(),
                          b.model.flat_parameters())
    assert a.history == b.history
    if a.memories is not None:
        sa, sb = a.memories.state_dict(), b.memories.state_dict()
        for key in ("M_vR", "M_R", "M_CP"):
            assert np.array_equal(sa[key], sb[key]), key


def train_both(tasks, preprocessor, make_trainer):
    """(oracle-trained, ``MetaTrainer.train``-trained) twins."""
    reference = oracle.train_sequential(make_trainer(), tasks,
                                        preprocessor.transform)
    return reference, make_trainer().train(tasks, preprocessor.transform)


# Fuzz axes: (use_memories, local_optimizer, balance, batch_size,
#             n_tasks, pretrain_epochs, epochs) — n_tasks=7/batch=3 and
# n_tasks=5/batch=4 end on a tail batch of ONE task, batch_size=1 makes
# every batch a stack of one, n_tasks=1 is the lone-batch run — all of
# them the stacked program at K = 1.  Together the
# cases cover every {adam, sgd} x {balanced, not} x {conversion
# (memories), none} cell of the stacked adapt / loss-backward programs.
FUZZ_CASES = [
    (True, "adam", True, 4, 12, 1, 2),
    (True, "adam", True, 3, 7, 0, 2),
    (True, "sgd", True, 4, 5, 1, 1),
    (True, "sgd", False, 5, 9, 0, 2),
    (False, "adam", True, 3, 7, 1, 2),
    (False, "sgd", True, 4, 6, 0, 1),
    (True, "adam", False, 1, 4, 0, 1),
    (True, "adam", True, 10, 6, 1, 1),
    (False, "adam", True, 2, 1, 1, 2),
    (False, "adam", False, 3, 5, 1, 1),
    (False, "sgd", False, 4, 6, 1, 1),
]


@pytest.mark.parametrize(
    "use_memories,optimizer,balance,batch_size,n_tasks,pretrain,epochs",
    FUZZ_CASES)
def test_train_parity_fuzz(task_generator, preprocessor, meta_tasks,
                           use_memories, optimizer, balance, batch_size,
                           n_tasks, pretrain, epochs):
    assert_trainers_identical(*train_both(
        meta_tasks[:n_tasks], preprocessor, lambda: build_trainer(
            task_generator, preprocessor, use_memories=use_memories,
            local_optimizer=optimizer, balance_classes=balance,
            batch_size=batch_size, pretrain_epochs=pretrain,
            epochs=epochs)))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.integers(1, 12),          # n_tasks
       st.integers(1, 6),           # batch_size (often uneven tails)
       st.sampled_from(["adam", "sgd"]),
       st.booleans(),               # use_memories
       st.booleans(),               # balance_classes
       st.integers(0, 1))           # pretrain_epochs
def test_train_parity_property(task_generator, preprocessor, meta_tasks,
                               seed, n_tasks, batch_size, optimizer,
                               use_memories, balance, pretrain):
    assert_trainers_identical(*train_both(
        meta_tasks[:n_tasks], preprocessor, lambda: build_trainer(
            task_generator, preprocessor, use_memories=use_memories,
            seed=seed, local_optimizer=optimizer, balance_classes=balance,
            batch_size=batch_size, pretrain_epochs=pretrain, epochs=1,
            local_steps=2)))


@pytest.mark.parametrize("use_memories", [True, False])
@pytest.mark.parametrize("local_steps", [None, 1, 6])
def test_evaluate_parity(task_generator, preprocessor, meta_tasks,
                         use_memories, local_steps):
    trainer = build_trainer(task_generator, preprocessor,
                            use_memories=use_memories)
    trainer.train(meta_tasks[:6], preprocessor.transform)
    sequential = oracle.evaluate(trainer, meta_tasks[6:],
                                 preprocessor.transform,
                                 local_steps=local_steps)
    batched = trainer.evaluate(meta_tasks[6:], preprocessor.transform,
                               local_steps=local_steps)
    assert sequential == batched


def test_epoch_callback_matches_history(task_generator, preprocessor,
                                        meta_tasks):
    """``OfflineRun``'s per-epoch callback (what ``fit_offline``'s
    progress events ride) reports each epoch's mean query loss."""
    trainer = build_trainer(task_generator, preprocessor)
    seen = []
    schedule = TrainerSchedule(trainer, _encoded(meta_tasks, preprocessor,
                                                 len(meta_tasks)))
    OfflineRun([schedule], on_epoch=lambda s, kind, epoch, loss:
               seen.append((s, kind, epoch, loss))).run()
    assert [(s, kind, epoch) for s, kind, epoch, _ in seen] == [
        (schedule, "pretrain", 0), (schedule, "meta", 0),
        (schedule, "meta", 1)]
    assert [loss for _, kind, _, loss in seen if kind == "meta"] == \
        trainer.history


def _encoded(meta_tasks, preprocessor, n):
    return encode_task_sets(meta_tasks[:n], preprocessor.transform)


def assert_pretrain_state_identical(a, b):
    """phi and the carried pretrain-Adam state of two schedules."""
    assert np.array_equal(a.trainer.model.flat_parameters(),
                          b.trainer.model.flat_parameters())
    assert a.pretrain_opt_state["step"] == b.pretrain_opt_state["step"]
    for key in ("m", "v"):
        for x, y in zip(a.pretrain_opt_state[key],
                        b.pretrain_opt_state[key]):
            assert np.array_equal(x, y)


class TestPooledAcrossTrainers:
    """Fusing several trainers into shared programs must keep every
    trainer bit-identical to training it alone."""

    def test_pooled_run_matches_solo_runs(self, task_generator, preprocessor,
                                          meta_tasks):
        encoded = _encoded(meta_tasks, preprocessor, 9)
        solo = []
        for seed in (0, 1, 2):
            trainer = build_trainer(task_generator, preprocessor, seed=seed)
            OfflineRun([TrainerSchedule(trainer, encoded)]).run()
            solo.append(trainer)
        pooled = [build_trainer(task_generator, preprocessor, seed=seed)
                  for seed in (0, 1, 2)]
        OfflineRun([TrainerSchedule(t, encoded) for t in pooled]).run()
        for a, b in zip(solo, pooled):
            assert_trainers_identical(a, b)

    def test_pooled_pretrain_epoch_matches_sequential(
            self, task_generator, preprocessor, meta_tasks):
        encoded = _encoded(meta_tasks, preprocessor, 8)
        # Two pooled epochs (carrying Adam moments across the epoch
        # boundary through the per-schedule slices) vs two sequential.
        pooled = [TrainerSchedule(
            build_trainer(task_generator, preprocessor, seed=s), encoded)
            for s in (3, 4)]
        solo = [TrainerSchedule(
            build_trainer(task_generator, preprocessor, seed=s), encoded)
            for s in (3, 4)]
        for _ in range(2):
            run_pretrain_epoch_pooled(pooled)
            for schedule in solo:
                oracle.run_pretrain_epoch_sequential(schedule)
        for a, b in zip(pooled, solo):
            assert_pretrain_state_identical(a, b)

    @pytest.mark.parametrize("use_memories", [True, False])
    def test_fusion_group_of_one_matches_sequential(
            self, task_generator, preprocessor, meta_tasks, use_memories):
        """S = 1 is the pooled epoch too: two epochs of one schedule
        (Adam moments carried across the boundary) vs the oracle's."""
        encoded = _encoded(meta_tasks, preprocessor, 8)
        pooled, solo = (TrainerSchedule(
            build_trainer(task_generator, preprocessor, seed=5,
                          use_memories=use_memories), encoded)
            for _ in range(2))
        for _ in range(2):
            run_pretrain_epoch_pooled([pooled])
            oracle.run_pretrain_epoch_sequential(solo)
        assert_pretrain_state_identical(pooled, solo)

    def test_mixed_shapes_group_separately(self, task_generator,
                                           preprocessor, meta_tasks):
        """Trainers over different task counts / epochs still pool."""
        enc_a = _encoded(meta_tasks, preprocessor, 9)
        enc_b = _encoded(meta_tasks, preprocessor, 5)
        mk = lambda s, e: build_trainer(task_generator, preprocessor,
                                        seed=s, epochs=e)
        solo = [mk(0, 2), mk(1, 1)]
        OfflineRun([TrainerSchedule(solo[0], enc_a)]).run()
        OfflineRun([TrainerSchedule(solo[1], enc_b)]).run()
        pooled = [mk(0, 2), mk(1, 1)]
        OfflineRun([TrainerSchedule(pooled[0], enc_a),
                    TrainerSchedule(pooled[1], enc_b)]).run()
        for a, b in zip(solo, pooled):
            assert_trainers_identical(a, b)


def _two_shapes(meta_tasks, n, odd):
    """``n`` tasks, task ``odd`` one support row short of the others
    (hand-built: the generator only emits uniform sets)."""
    from dataclasses import replace

    tasks = list(meta_tasks[:n])
    tasks[odd] = replace(tasks[odd], support_x=tasks[odd].support_x[:-1],
                         support_y=tasks[odd].support_y[:-1])
    return tasks


@pytest.mark.parametrize("odd", [1, 4])
def test_a_task_set_of_two_shapes_is_refused(task_generator, preprocessor,
                                             meta_tasks, odd):
    """Training and evaluation raise ``ValueError`` naming the first
    task whose shape differs from task 0's, before any weight moves
    (the spilled encode: ``test_stream.py``)."""
    tasks = _two_shapes(meta_tasks, 6, odd)
    trainer = build_trainer(task_generator, preprocessor)
    phi = trainer.model.flat_parameters().copy()
    named = "meta-task {} ".format(odd)
    with pytest.raises(ValueError, match=named):
        trainer.train(tasks, preprocessor.transform)
    with pytest.raises(ValueError, match=named):
        trainer.evaluate(tasks, preprocessor.transform)
    assert np.array_equal(trainer.model.flat_parameters(), phi)
    assert encode_task_sets([], preprocessor.transform) == []


@pytest.mark.parametrize("field", ["feature_vector", "support_x",
                                   "query_x"])
def test_encode_refuses_a_task_set_of_two_shapes(preprocessor, meta_tasks,
                                                 field):
    """The materialized encode names the first task whose feature,
    support or query shape differs from task 0's, before it encodes a
    row (the spilled encode: ``test_stream.py``)."""
    from dataclasses import replace

    tasks = list(meta_tasks[:5])
    tasks[3] = replace(tasks[3], **{field: getattr(tasks[3], field)[:-1]})
    blocks = []

    def encode(block):
        blocks.append(block)
        return preprocessor.transform(block)

    with pytest.raises(ValueError, match="meta-task 3 "):
        encode_task_sets(tasks, encode)
    assert blocks == []


def _one_batch_both(task_generator, preprocessor, encoded, batch, **kwargs):
    """One meta-batch on the oracle and on the stacked executor, from
    identical fresh trainers: ((trainer, losses), (trainer, losses))."""
    reference = build_trainer(task_generator, preprocessor, **kwargs)
    candidate = build_trainer(task_generator, preprocessor, **kwargs)
    want = oracle.train_batch_sequential(reference, encoded, batch)
    got, = run_meta_batch_fused([MetaBatchSlot(candidate, encoded, batch)])
    return (reference, want), (candidate, got)


@pytest.mark.parametrize("use_memories", [True, False])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_meta_batch_of_one_matches_sequential(task_generator, preprocessor,
                                              meta_tasks, optimizer,
                                              use_memories):
    """A tail batch of one task is the stacked program at K = 1."""
    encoded = _encoded(meta_tasks, preprocessor, 4)
    (reference, want), (candidate, got) = _one_batch_both(
        task_generator, preprocessor, encoded, [3],
        use_memories=use_memories, local_optimizer=optimizer)
    assert got == want
    assert_trainers_identical(reference, candidate)


@pytest.mark.parametrize("local_steps", [1, 10])
@pytest.mark.parametrize("use_memories", [True, False])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_adapt_matches_sequential(task_generator, preprocessor, meta_tasks,
                                  optimizer, use_memories, local_steps):
    """``MetaTrainer.adapt`` — a stack of one — returns the eager
    online loop's bits: weights, M_cp, attention, loss."""
    trainer = build_trainer(task_generator, preprocessor,
                            use_memories=use_memories,
                            local_optimizer=optimizer)
    trainer.train(meta_tasks[:4], preprocessor.transform)
    task = meta_tasks[5]
    args = (task.feature_vector, preprocessor.transform(task.support_x),
            task.support_y)
    want, want_info = oracle.adapt(trainer, *args, local_steps=local_steps,
                                   local_lr=0.03)
    got, got_info = trainer.adapt(*args, local_steps=local_steps,
                                  local_lr=0.03)
    assert np.array_equal(got.model.flat_parameters(),
                          want.model.flat_parameters())
    assert np.array_equal(got.feature_vector, want.feature_vector)
    assert got_info["support_loss"] == want_info["support_loss"]
    if use_memories:
        assert np.array_equal(got.conversion.data, want.conversion.data)
        assert np.array_equal(got_info["attention"], want_info["attention"])
    else:
        assert got.conversion is None and want.conversion is None
        assert got_info["attention"] is None


def test_fit_offline_accepts_subspace_iterator():
    """A generator of subspaces must survive the prepare+train passes."""
    from repro.core import LTE, LTEConfig
    from repro.core.meta_training import MetaHyperParams
    from repro.data import make_car
    from repro.data.subspaces import random_decomposition

    table = make_car(n_rows=1200, seed=3)
    config = LTEConfig(budget=20, ku=20, kq=20, n_tasks=3,
                       meta=MetaHyperParams(epochs=1, local_steps=1,
                                            batch_size=2,
                                            pretrain_epochs=0),
                       basic_steps=5, online_steps=2)
    subspaces = random_decomposition(table, dim=2, seed=7)[:2]
    lte = LTE(config)
    lte.fit_offline(table, subspaces=iter(subspaces))
    assert all(state.trainer is not None for state in lte.states.values())


def test_refresh_pools_its_targets_bit_identically():
    """A refresh of several subspaces meta-trains them in one pooled run
    (``run_offline_training``); each trainer equals the one
    ``train_subspace`` trains alone."""
    import copy

    from repro.core import LTE, LTEConfig
    from repro.data import make_car

    table = make_car(n_rows=1200, seed=3)
    lte = LTE(LTEConfig(budget=20, ku=20, kq=20, n_tasks=5,
                        meta=MetaHyperParams(epochs=2, local_steps=2,
                                             batch_size=2,
                                             pretrain_epochs=1),
                        basic_steps=5, online_steps=2))
    lte.fit_offline(table, train=False)
    targets = list(lte.states)[:2]
    alone = copy.deepcopy(lte)
    lte._refresh_subspaces(table, targets, train=True)
    alone._refresh_subspaces(table, targets, train=False)
    for subspace in targets:
        assert_trainers_identical(alone.train_subspace(subspace),
                                  lte.states[subspace].trainer)


def test_encode_task_sets_matches_per_task_encode(preprocessor, meta_tasks):
    encoded = encode_task_sets(meta_tasks, preprocessor.transform,
                               rows_per_block=64)
    for task, (v_r, sx, sy, qx, qy) in zip(meta_tasks, encoded):
        assert np.array_equal(v_r, task.feature_vector)
        assert np.array_equal(sx, preprocessor.transform(task.support_x))
        assert np.array_equal(qx, preprocessor.transform(task.query_x))
        assert np.array_equal(sy, task.support_y)
        assert np.array_equal(qy, task.query_y)
