"""Batched-vs-sequential parity of the offline meta-training engine.

The fused executors in ``repro.train.engine`` must be **bit-identical**
to the sequential reference (``MetaTrainer.train_batch_sequential`` /
per-task ``adapt``): same phi, same memories, same per-epoch history,
same evaluation scores.  Fuzzed over the axes that change the stacked
program's shape and math: memories on/off, Adam vs SGD local steps,
class balancing, uneven final batches, single-task batches, pretraining
on/off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.meta_training import MetaHyperParams, MetaTrainer
from repro.train import (OfflineRun, TrainerSchedule, encode_task_sets,
                         run_pretrain_epoch_pooled,
                         run_pretrain_epoch_sequential)

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


# Fuzz axes: (use_memories, local_optimizer, balance, batch_size,
#             n_tasks, pretrain_epochs, epochs) — n_tasks=7/batch=3 and
# n_tasks=5/batch=4 exercise uneven final batches, batch_size=1 the
# single-task fused path, n_tasks=1 the lone-batch path.  Together the
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
    tasks = meta_tasks[:n_tasks]
    results = []
    for engine in ("sequential", "batched"):
        trainer = build_trainer(
            task_generator, preprocessor, use_memories=use_memories,
            local_optimizer=optimizer, balance_classes=balance,
            batch_size=batch_size, pretrain_epochs=pretrain, epochs=epochs)
        trainer.train(tasks, preprocessor.transform, engine=engine)
        results.append(trainer)
    assert_trainers_identical(*results)


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
    tasks = meta_tasks[:n_tasks]
    results = []
    for engine in ("sequential", "batched"):
        trainer = build_trainer(
            task_generator, preprocessor, use_memories=use_memories,
            seed=seed, local_optimizer=optimizer, balance_classes=balance,
            batch_size=batch_size, pretrain_epochs=pretrain, epochs=1,
            local_steps=2)
        trainer.train(tasks, preprocessor.transform, engine=engine)
        results.append(trainer)
    assert_trainers_identical(*results)


def test_train_rejects_unknown_engine(task_generator, preprocessor,
                                      meta_tasks):
    trainer = build_trainer(task_generator, preprocessor)
    with pytest.raises(ValueError):
        trainer.train(meta_tasks[:2], preprocessor.transform,
                      engine="turbo")


@pytest.mark.parametrize("use_memories", [True, False])
@pytest.mark.parametrize("local_steps", [None, 1, 6])
def test_evaluate_parity(task_generator, preprocessor, meta_tasks,
                         use_memories, local_steps):
    trainer = build_trainer(task_generator, preprocessor,
                            use_memories=use_memories)
    trainer.train(meta_tasks[:6], preprocessor.transform)
    sequential = trainer.evaluate(meta_tasks[6:], preprocessor.transform,
                                  local_steps=local_steps,
                                  engine="sequential")
    batched = trainer.evaluate(meta_tasks[6:], preprocessor.transform,
                               local_steps=local_steps)
    assert sequential == batched


def test_progress_callback_matches_history(task_generator, preprocessor,
                                           meta_tasks):
    trainer = build_trainer(task_generator, preprocessor)
    seen = []
    trainer.train(meta_tasks, preprocessor.transform,
                  progress=lambda e, loss: seen.append((e, loss)))
    assert [loss for _, loss in seen] == trainer.history
    assert [epoch for epoch, _ in seen] == [0, 1]


def _encoded(meta_tasks, preprocessor, n):
    return encode_task_sets(meta_tasks[:n], preprocessor.transform)


class TestPooledAcrossTrainers:
    """Fusing several trainers into shared programs must keep every
    trainer bit-identical to training it alone."""

    def test_pooled_run_matches_solo_runs(self, task_generator, preprocessor,
                                          meta_tasks):
        encoded = _encoded(meta_tasks, preprocessor, 9)
        solo = []
        for seed in (0, 1, 2):
            trainer = build_trainer(task_generator, preprocessor, seed=seed)
            OfflineRun([TrainerSchedule(trainer, encoded)],
                       engine="batched").run()
            solo.append(trainer)
        pooled = [build_trainer(task_generator, preprocessor, seed=seed)
                  for seed in (0, 1, 2)]
        OfflineRun([TrainerSchedule(t, encoded) for t in pooled],
                   engine="batched").run()
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
                run_pretrain_epoch_sequential(schedule)
        for a, b in zip(pooled, solo):
            assert np.array_equal(a.trainer.model.flat_parameters(),
                                  b.trainer.model.flat_parameters())
            assert a.pretrain_opt_state["step"] == \
                b.pretrain_opt_state["step"]
            for key in ("m", "v"):
                for x, y in zip(a.pretrain_opt_state[key],
                                b.pretrain_opt_state[key]):
                    assert np.array_equal(x, y)

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


def test_mixed_shape_task_sets_train_and_match(task_generator, preprocessor,
                                               meta_tasks):
    """Task sets with non-uniform support/query sizes cannot stack into
    one fused program; the default engine must fall back to the
    sequential executor for them — same semantics, no crash."""
    from dataclasses import replace

    tasks = [replace(task,
                     support_x=task.support_x[:len(task.support_x) - (i % 3)],
                     support_y=task.support_y[:len(task.support_y) - (i % 3)])
             for i, task in enumerate(meta_tasks[:6])]
    results = []
    for engine in ("sequential", "batched"):
        trainer = build_trainer(task_generator, preprocessor)
        trainer.train(tasks, preprocessor.transform, engine=engine)
        results.append(trainer)
    assert_trainers_identical(*results)
    # evaluate buckets odd shapes on its own and stays bit-equal too
    assert results[0].evaluate(tasks, preprocessor.transform) == \
        results[1].evaluate(tasks, preprocessor.transform,
                            engine="sequential")


def test_evaluate_rejects_unknown_engine(task_generator, preprocessor,
                                         meta_tasks):
    trainer = build_trainer(task_generator, preprocessor)
    with pytest.raises(ValueError):
        trainer.evaluate(meta_tasks[:2], preprocessor.transform,
                         engine="batchd")


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


def test_encode_task_sets_matches_per_task_encode(preprocessor, meta_tasks):
    encoded = encode_task_sets(meta_tasks, preprocessor.transform,
                               rows_per_block=64)
    for task, (v_r, sx, sy, qx, qy) in zip(meta_tasks, encoded):
        assert np.array_equal(v_r, task.feature_vector)
        assert np.array_equal(sx, preprocessor.transform(task.support_x))
        assert np.array_equal(qx, preprocessor.transform(task.query_x))
        assert np.array_equal(sy, task.support_y)
        assert np.array_equal(qy, task.query_y)
