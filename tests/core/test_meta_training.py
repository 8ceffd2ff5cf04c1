"""Tests for the meta-training loop (Algorithm 2)."""

import numpy as np
import pytest

from repro.core import LTEConfig
from repro.core.meta_training import (AdaptedClassifier, MetaHyperParams,
                                      MetaTrainer)


def small_params(**overrides):
    defaults = dict(epochs=1, local_steps=3, batch_size=4,
                    pretrain_epochs=1, rho=0.02, lam=1e-3)
    defaults.update(overrides)
    return MetaHyperParams(**defaults)


def make_trainer(preprocessor, task_generator, use_memories=True, **overrides):
    return MetaTrainer(ku=task_generator.summary.ku,
                       input_width=preprocessor.width,
                       embed_size=16, hidden_size=8,
                       params=small_params(**overrides),
                       use_memories=use_memories, seed=0)


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MetaHyperParams(eta=2.0)
        with pytest.raises(ValueError):
            MetaHyperParams(rho=0.0)
        with pytest.raises(ValueError):
            MetaHyperParams(lam=-1.0)
        with pytest.raises(ValueError):
            MetaHyperParams(local_optimizer="rmsprop")

    @pytest.mark.parametrize("field,build", [
        ("local_steps", lambda: MetaHyperParams(local_steps=0)),
        ("local_steps", lambda: MetaHyperParams(local_steps=-3)),
        ("batch_size", lambda: MetaHyperParams(batch_size=0)),
        ("m", lambda: MetaHyperParams(m=0)),
        ("epochs", lambda: MetaHyperParams(epochs=-1)),
        ("pretrain_epochs", lambda: MetaHyperParams(pretrain_epochs=-1)),
        ("online_steps", lambda: LTEConfig(online_steps=0)),
        ("basic_steps", lambda: LTEConfig(basic_steps=-1)),
        ("online_steps", lambda: setattr(LTEConfig(), "online_steps", 0)),
        ("batch_size", lambda: setattr(MetaHyperParams(), "batch_size", 0)),
        ("pretrain_epochs",
         lambda: setattr(MetaHyperParams(), "pretrain_epochs", -1)),
        ("local_steps", lambda: MetaTrainer(ku=3, input_width=2).adapt(
            np.ones(3), np.ones((2, 2)), [0, 1], local_steps=0)),
        ("local_steps", lambda: MetaTrainer(ku=3, input_width=2).evaluate(
            [], None, local_steps=0)),
    ])
    def test_step_and_epoch_counts_are_refused(self, field, build):
        """A count the loops cannot run raises ``ValueError`` naming its
        field, at construction, on a later assignment or at the call;
        zero epochs stay legal."""
        with pytest.raises(ValueError, match=field):
            build()

    def test_defaults_paper_like(self):
        p = MetaHyperParams()
        assert p.m == 4
        assert p.local_optimizer == "adam"


class TestAdapt:
    def test_adapt_reduces_support_loss(self, preprocessor, meta_tasks,
                                        task_generator):
        trainer = make_trainer(preprocessor, task_generator)
        task = meta_tasks[0]
        encoded = preprocessor.transform(task.support_x)
        _, info_few = trainer.adapt(task.feature_vector, encoded,
                                    task.support_y, local_steps=1)
        _, info_many = trainer.adapt(task.feature_vector, encoded,
                                     task.support_y, local_steps=25)
        assert info_many["support_loss"] < info_few["support_loss"]

    def test_adapt_does_not_mutate_meta_model(self, preprocessor, meta_tasks,
                                              task_generator):
        trainer = make_trainer(preprocessor, task_generator)
        task = meta_tasks[0]
        before = trainer.model.flat_parameters().copy()
        trainer.adapt(task.feature_vector,
                      preprocessor.transform(task.support_x),
                      task.support_y, local_steps=5)
        assert np.allclose(trainer.model.flat_parameters(), before)

    def test_adapt_returns_memory_info(self, preprocessor, meta_tasks,
                                       task_generator):
        trainer = make_trainer(preprocessor, task_generator)
        task = meta_tasks[0]
        adapted, info = trainer.adapt(
            task.feature_vector, preprocessor.transform(task.support_x),
            task.support_y)
        assert info["attention"].shape == (trainer.params.m,)
        assert np.isfinite(info["support_loss"])
        assert adapted.retrieval.weight is not None

    def test_adapt_without_memories(self, preprocessor, meta_tasks,
                                    task_generator):
        trainer = make_trainer(preprocessor, task_generator,
                               use_memories=False)
        task = meta_tasks[0]
        adapted, info = trainer.adapt(
            task.feature_vector, preprocessor.transform(task.support_x),
            task.support_y)
        assert info["attention"] is None
        assert adapted.retrieval.weight is None
        assert trainer.memories is None

    def test_sgd_local_optimizer_path(self, preprocessor, meta_tasks,
                                      task_generator):
        trainer = make_trainer(preprocessor, task_generator,
                               local_optimizer="sgd")
        task = meta_tasks[0]
        adapted, _ = trainer.adapt(
            task.feature_vector, preprocessor.transform(task.support_x),
            task.support_y)
        assert isinstance(adapted, AdaptedClassifier)


class TestTrain:
    def test_train_changes_phi_and_memories(self, preprocessor, meta_tasks,
                                            task_generator):
        trainer = make_trainer(preprocessor, task_generator)
        phi_before = trainer.model.flat_parameters().copy()
        mvr_before = trainer.memories.M_vR.copy()
        trainer.train(meta_tasks, preprocessor.transform)
        assert not np.allclose(trainer.model.flat_parameters(), phi_before)
        assert not np.allclose(trainer.memories.M_vR, mvr_before)

    def test_history_length_matches_epochs(self, preprocessor, meta_tasks,
                                           task_generator):
        trainer = make_trainer(preprocessor, task_generator, epochs=2)
        trainer.train(meta_tasks, preprocessor.transform)
        assert len(trainer.history) == 2

    def test_pretraining_alone_learns(self, preprocessor, meta_tasks,
                                      task_generator):
        """Joint pretraining should beat a random model on query accuracy."""
        untrained = make_trainer(preprocessor, task_generator,
                                 pretrain_epochs=0, epochs=0)
        trained = make_trainer(preprocessor, task_generator,
                               pretrain_epochs=4, epochs=0)
        # epochs=0 forbidden by train loop range, use epochs=1 w/ lam tiny
        untrained.params.epochs = 1
        trained.params.epochs = 1
        acc_untrained = _query_accuracy(untrained, meta_tasks, preprocessor)
        trained.train(meta_tasks, preprocessor.transform)
        acc_trained = _query_accuracy(trained, meta_tasks, preprocessor)
        assert acc_trained >= acc_untrained - 0.05

    def test_evaluate_returns_unit_interval(self, preprocessor, meta_tasks,
                                            task_generator):
        trainer = make_trainer(preprocessor, task_generator)
        trainer.train(meta_tasks[:6], preprocessor.transform)
        acc = trainer.evaluate(meta_tasks[6:9], preprocessor.transform)
        assert 0.0 <= acc <= 1.0


def _query_accuracy(trainer, tasks, preprocessor):
    scores = []
    for task in tasks[:5]:
        adapted, _ = trainer.adapt(
            task.feature_vector, preprocessor.transform(task.support_x),
            task.support_y, local_steps=3)
        pred = adapted.predict(preprocessor.transform(task.query_x))
        scores.append(float(np.mean(pred == task.query_y)))
    return float(np.mean(scores))
