"""The online local phase's array program against the eager oracle.

``fused_local_adapt(..., keep_retrieved=True)`` -- every local phase
of Meta and Meta*, online and in meta-training's inner loop -- builds
no autograd graph: its steps are the plain array operations of
``repro.nn.batching._fixed_retrieval_steps``.  This suite holds them to
the eager per-task loop of ``tests/train/_sequential_oracle.adapt`` bit
for bit (trained parameters, the unchanged conversion and the last
step's losses), the first step's gradients to the stacked autograd
graph, and walks the edges of the arithmetic: a one-class label set,
dead tuple-block ReLUs and logits that are exactly 0.
"""

import itertools
import os
import sys

import numpy as np
import pytest

from repro.core.meta_training import MetaHyperParams, MetaTrainer
from repro.nn import (BatchedUISClassifier, Linear, Sequential, Sigmoid,
                      fused_local_adapt)
from repro.nn.batching import stacked_loss_backward
from repro.nn.functional import batched_pos_weight

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "train"))
import _sequential_oracle as oracle  # noqa: E402

pytestmark = pytest.mark.train

#: (ku, input width, Ne, hidden) of the paper's nets and of small ones.
NETS = {"paper": (25, 20, 100, 64), "small": (6, 5, 12, 8)}


def make_trainer(nets, conversion, optimizer="adam", balance=True,
                 steps=3, lr=0.02, seed=0):
    ku, width, ne, hidden = NETS[nets]
    return MetaTrainer(ku=ku, input_width=width, embed_size=ne,
                       hidden_size=hidden, use_memories=conversion,
                       params=MetaHyperParams(
                           local_optimizer=optimizer, balance_classes=balance,
                           local_steps=steps, rho=lr),
                       seed=seed)


def make_tasks(trainer, k, seed=0):
    """(K, ku) distinct feature vectors, (K, n, width) rows and (K, n)
    labels holding both classes, n in 30-41."""
    rng = np.random.default_rng(seed)
    n = 30 + seed % 12
    features = (rng.random((k, trainer.model.ku)) < 0.5).astype(np.float64)
    xs = rng.normal(size=(k, n, trainer.model.input_width))
    ys = (rng.random((k, n)) < 0.3).astype(np.float64)
    ys[:, 0], ys[:, 1] = 1.0, 0.0
    return features, xs, ys


def array_phase(trainer, features, xs, ys, steps=None):
    """Each task's retrieval, then the stacked array program: the adapted
    models, the returned conversion stack and the last step's losses."""
    params = trainer.params
    models, conversions = [], []
    for feature in features:
        model, conversion, _ = trainer.task_retrieval(feature)
        models.append(model)
        conversions.append(conversion)
    batched, conversion, losses = fused_local_adapt(
        models, features, xs, ys, conversions=conversions,
        steps=params.local_steps if steps is None else steps,
        lr=params.rho, optimizer_kind=params.local_optimizer,
        balance_classes=params.balance_classes, keep_retrieved=True)
    batched.unstack_into(models)
    return models, conversion, losses


def assert_oracle_bits(trainer, features, xs, ys):
    models, conversion, losses = array_phase(trainer, features, xs, ys)
    for k, model in enumerate(models):
        want, info = oracle.adapt(trainer, features[k], xs[k], ys[k])
        assert np.array_equal(model.flat_parameters(),
                              want.model.flat_parameters()), k
        if conversion is None:
            assert want.conversion is None
        else:
            assert np.array_equal(conversion.data[k], want.conversion.data), k
        assert losses[k] == info["support_loss"], k


CASES = list(itertools.product(["adam", "sgd"], [True, False],
                               [True, False], [1, 5, 16],
                               ["paper", "small"], [1, 12]))


@pytest.mark.parametrize("optimizer, balance, conversion, k, nets, steps",
                         CASES)
def test_array_phase_equals_the_eager_oracle(optimizer, balance, conversion,
                                             k, nets, steps):
    seed = CASES.index((optimizer, balance, conversion, k, nets, steps))
    trainer = make_trainer(nets, conversion, optimizer, balance, steps,
                           seed=seed)
    assert_oracle_bits(trainer, *make_tasks(trainer, k, seed))


@pytest.mark.parametrize("conversion", [True, False])
@pytest.mark.parametrize("nets", ["paper", "small"])
def test_first_step_gradients_equal_the_autograd_graph(conversion, nets):
    """The six gradients one array step leaves equal those one backward
    through ``BatchedUISClassifier.forward`` gives the same stack."""
    trainer = make_trainer(nets, conversion, seed=3)
    features, xs, ys = make_tasks(trainer, 5, seed=3)
    models, conversions = [], []
    for feature in features:
        model, matrix, _ = trainer.task_retrieval(feature)
        models.append(model)
        conversions.append(matrix)
    reference = BatchedUISClassifier(models)
    stacked_loss_backward(reference, None if not conversion
                          else np.stack(conversions), features, xs, ys,
                          batched_pos_weight(ys))
    batched, _, _ = fused_local_adapt(
        models, features, xs, ys, conversions=conversions, steps=1,
        lr=0.02, keep_retrieved=True)

    want = dict(reference.named_parameters())
    trained = [(name, param) for name, param in batched.named_parameters()
               if not name.startswith("uis_block.")]
    assert len(trained) == 6
    for name, param in trained:
        assert np.array_equal(param.grad, want[name].grad), name
    for param in batched.uis_block.parameters():
        assert param.grad is None


@pytest.mark.parametrize("label", [0.0, 1.0])
@pytest.mark.parametrize("balance", [True, False])
def test_one_class_label_set(label, balance):
    trainer = make_trainer("small", True, balance=balance, seed=4)
    features, xs, ys = make_tasks(trainer, 5, seed=4)
    ys[2] = label
    assert_oracle_bits(trainer, features, xs, ys)


@pytest.mark.parametrize("conversion", [True, False])
def test_dead_tuple_block(conversion):
    """Every tuple-block ReLU is dead: emb_tau and its gradients are 0."""
    trainer = make_trainer("small", conversion, seed=5)
    trainer.model.tuple_block.m0.bias.data[:] = -1e6
    features, xs, ys = make_tasks(trainer, 5, seed=5)
    models, _, _ = array_phase(trainer, features, xs, ys)
    assert np.array_equal(models[0].tuple_block.m0.bias.data,
                          trainer.model.tuple_block.m0.bias.data)
    assert_oracle_bits(trainer, features, xs, ys)


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("conversion", [True, False])
def test_logits_exactly_zero(conversion, steps):
    """A zero last layer makes every first-step logit exactly 0, where
    ``[z > 0]`` and ``sign z`` both vanish."""
    trainer = make_trainer("small", conversion, steps=steps, seed=6)
    last = trainer.model.clf_block.m2
    last.weight.data[:] = 0.0
    last.bias.data[:] = 0.0
    assert_oracle_bits(trainer, *make_tasks(trainer, 5, seed=6))


def test_a_leaf_other_than_linear_or_relu_is_a_type_error():
    trainer = make_trainer("small", True, seed=7)
    features, xs, ys = make_tasks(trainer, 2, seed=7)
    models, conversions = [], []
    for feature in features:
        model, conversion, _ = trainer.task_retrieval(feature)
        model.tuple_block = Sequential(Linear(model.input_width,
                                              model.embed_size), Sigmoid())
        models.append(model)
        conversions.append(conversion)
    with pytest.raises(TypeError, match="Sigmoid"):
        fused_local_adapt(models, features, xs, ys, conversions=conversions,
                          steps=1, keep_retrieved=True)
