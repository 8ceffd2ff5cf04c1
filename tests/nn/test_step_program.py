"""The stacked step program against the graph and eager oracles.

Every stacked forward and backward is one array program with no
autograd graph, ``repro.nn.batching.step_program``: the local phase of
every variant (``fused_local_adapt``), meta-training's query pass and
each joint-pretraining step.  This suite holds

* the local phase of Meta and Meta* (``retrieved=``, fed the
  retrieval's constants: serving's from ``task_retrieval``,
  meta-training's derived from its stack) to the eager per-task loop of
  ``tests/train/_sequential_oracle.adapt`` bit for bit (trained
  parameters and the last step's losses), and its first step's
  gradients to the stacked autograd graph;
* Basic's local phase (three blocks, no conversion), the meta-batch
  query pass (every block's ``.grad`` and M_cp's gradient) and one
  pooled-pretraining epoch (the constant ``[I | I | I] / 3``, new inputs
  each step) to that graph, ``_graph_oracle.py``, raw bytes equal;

and walks the edges of the arithmetic: a one-class label set, dead
ReLUs, logits that are exactly 0 and one row a task.
"""

import itertools
import os
import sys

import numpy as np
import pytest

import _graph_oracle as graph
from _autograd_oracle import Sigmoid
from repro.core.meta_learner import UISClassifier
from repro.core.meta_training import (MetaHyperParams, MetaTrainer,
                                      adapt_stack)
from repro.nn import (Adam, Parameter, Sequential, fused_local_adapt,
                      step_program)
from repro.nn.batching import (retrieval_constants, stack_arrays,
                               stack_parameters)
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


def stacked(models, features, conversions):
    """The stack of ``models`` and its retrieval, computed from the
    stack as meta-training computes it."""
    batched = graph.stack_models(models)
    return batched, retrieval_constants(
        stack_arrays(batched["uis_block"]),
        features.reshape(len(models), 1, -1),
        None if conversions[0] is None else np.stack(conversions))


def array_phase(trainer, features, xs, ys, steps=None):
    """Each task's retrieval, then the stacked array program: the adapted
    models, the conversion stack they kept and the last step's losses."""
    params = trainer.params
    models, conversions = [], []
    for feature in features:
        model, conversion, _ = oracle.retrieved_model(trainer, feature)
        models.append(model)
        conversions.append(conversion)
    batched, retrieved = stacked(models, features, conversions)
    losses = fused_local_adapt(
        trainer.model.config, batched, features, xs, ys,
        steps=params.local_steps if steps is None else steps,
        lr=params.rho, optimizer_kind=params.local_optimizer,
        balance_classes=params.balance_classes, retrieved=retrieved)
    graph.unstack_into(batched, models)
    return models, None if conversions[0] is None \
        else np.stack(conversions), losses


def assert_oracle_bits(trainer, features, xs, ys):
    models, conversion, losses = array_phase(trainer, features, xs, ys)
    for k, model in enumerate(models):
        _, info = oracle.adapt(trainer, features[k], xs[k], ys[k])
        assert np.array_equal(model.flat_parameters(),
                              info["model"].flat_parameters()), k
        if conversion is None:
            assert info["conversion"] is None
        else:
            assert np.array_equal(conversion[k],
                                  info["conversion"].data), k
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


@pytest.mark.parametrize("optimizer, conversion, k, nets",
                         list(itertools.product(["adam", "sgd"],
                                                [True, False], [1, 5],
                                                ["paper", "small"])))
def test_fed_constants_equal_the_eager_oracle(optimizer, conversion, k,
                                              nets):
    """Serving's local phase, ``adapt_stack`` over phi's two trained
    blocks and each task's ``task_retrieval`` constants (no UIS block is
    stacked), leaves the eager oracle's classifiers and losses."""
    trainer = make_trainer(nets, conversion, optimizer, seed=11 + k)
    features, xs, ys = make_tasks(trainer, k, seed=11 + k)
    params = trainer.params
    adapted, losses = adapt_stack(
        trainer.model.config,
        [(trainer.local_start(), trainer.task_retrieval(feature)[0])
         for feature in features], features, xs, ys,
        steps=params.local_steps, lr=params.rho,
        optimizer_kind=params.local_optimizer,
        balance_classes=params.balance_classes)
    for j, got in enumerate(adapted):
        want, info = oracle.adapt(trainer, features[j], xs[j], ys[j])
        oracle.assert_same_classifier(got, want)
        assert losses[j] == info["support_loss"], j


@pytest.mark.parametrize("conversion", [True, False])
@pytest.mark.parametrize("nets", ["paper", "small"])
def test_first_step_gradients_equal_the_autograd_graph(conversion, nets):
    """The six gradients one array step leaves equal those one backward
    through the stacked autograd graph gives the same stack."""
    trainer = make_trainer(nets, conversion, seed=3)
    features, xs, ys = make_tasks(trainer, 5, seed=3)
    models, conversions = [], []
    for feature in features:
        model, matrix, _ = oracle.retrieved_model(trainer, feature)
        models.append(model)
        conversions.append(matrix)
    config = models[0].config
    reference = graph.stack_models(models)
    graph.stacked_loss_backward(config, reference, None if not conversion
                                else np.stack(conversions), features, xs,
                                ys, batched_pos_weight(ys))
    batched, retrieved = stacked(models, features, conversions)
    fused_local_adapt(config, batched, features, xs, ys, steps=1, lr=0.02,
                      retrieved=retrieved)

    want = dict(graph.named_stack(reference))
    trained = [(name, param) for name, param in graph.named_stack(batched)
               if not name.startswith("uis_block.")]
    assert len(trained) == 6
    for name, param in trained:
        assert np.array_equal(param.grad, want[name].grad), name
    for param in stack_parameters(batched, ["uis_block"]):
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
    """A block holding another layer has no leaves to stack: a Sigmoid
    is refused where a model's block is read, before any stack is
    built."""
    trainer = make_trainer("small", True, seed=7)
    features = make_tasks(trainer, 2, seed=7)[0]
    models = [oracle.retrieved_model(trainer, feature)[0]
              for feature in features]
    models[1].tuple_block = Sequential(models[1].tuple_block, Sigmoid())
    with pytest.raises(TypeError, match="Sigmoid"):
        graph.stack_models(models)


# ----------------------------------------------------------------------
# The program against the stacked autograd graph, raw bytes
# ----------------------------------------------------------------------
#: A label set of both classes, one task's of one class, dead ReLUs (the
#: first task's tuple block, the last task's UIS block), one row a task.
EDGES = ["both classes", "one class", "dead relus", "one row"]


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype \
        and got.tobytes() == want.tobytes()


def seeded_stack(nets, conversion, k, edge, seed):
    """K seeded classifiers, the ``edge`` applied."""
    ku, width, ne, hidden = NETS[nets]
    models = [UISClassifier(ku=ku, input_width=width, embed_size=ne,
                            hidden_size=hidden, use_conversion=conversion,
                            seed=31 * seed + i) for i in range(k)]
    if edge == "dead relus":
        models[0].tuple_block.m0.bias.data[:] = -1e6
        models[-1].uis_block.m0.bias.data[:] = -1e6
    return models


def edge_inputs(nets, k, edge, seed, n=None):
    """(K, ku) features, (K, n, width) rows and (K, n) labels."""
    ku, width, _, _ = NETS[nets]
    rng = np.random.default_rng(seed)
    n = n or (1 if edge == "one row" else 20 + seed % 9)
    features = (rng.random((k, ku)) < 0.5).astype(np.float64)
    xs = rng.normal(size=(k, n, width))
    ys = (rng.random((k, n)) < 0.3).astype(np.float64)
    ys[:, 0] = 1.0
    if n > 1:
        ys[:, -1] = 0.0
    if edge == "one class":
        ys[k // 2] = 1.0
    return features, xs, ys


def near_averaging(k, ne, seed):
    """K conversion matrices near ``[I | I | I] / 3``."""
    rng = np.random.default_rng(seed)
    base = np.hstack([np.eye(ne)] * 3) / 3.0
    return np.stack([base + rng.normal(0.0, 0.05, size=base.shape)
                     for _ in range(k)])


def assert_same_stacks(got, want, grads=True):
    pairs = list(zip(graph.named_stack(got), graph.named_stack(want)))
    assert len(pairs) == 8
    for (name, mine), (_, theirs) in pairs:
        assert same_bytes(mine.data, theirs.data), name
        if grads:
            assert same_bytes(mine.grad, theirs.grad), name


EDGE_CASES = list(itertools.product([1, 5], ["paper", "small"], EDGES))


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("k, nets, edge", EDGE_CASES)
def test_basic_local_phase_equals_the_graph(k, nets, edge, optimizer):
    """Basic's three blocks, no conversion: the trained stack, its last
    gradients and the last step's losses."""
    seed = EDGE_CASES.index((k, nets, edge))
    models = seeded_stack(nets, False, k, edge, seed)
    features, xs, ys = edge_inputs(nets, k, edge, seed)
    config = models[0].config
    got, want = graph.stack_models(models), graph.stack_models(models)
    losses = fused_local_adapt(config, got, features, xs, ys, steps=4,
                               lr=0.02, optimizer_kind=optimizer)
    _, losses_g = graph.local_adapt(config, want, features, xs, ys, steps=4,
                                    lr=0.02, optimizer_kind=optimizer)
    assert same_bytes(losses, losses_g)
    assert_same_stacks(got, want)


@pytest.mark.parametrize("conversion", [True, False])
@pytest.mark.parametrize("k, nets, edge", EDGE_CASES)
def test_query_pass_equals_the_graph(k, nets, edge, conversion):
    """Meta-training's query pass: every block's ``.grad``, M_cp's
    gradient (a :class:`Parameter`) and the per-task losses."""
    seed = 50 + EDGE_CASES.index((k, nets, edge))
    models = seeded_stack(nets, conversion, k, edge, seed)
    features, xs, ys = edge_inputs(nets, k, edge, seed)
    matrices = near_averaging(k, NETS[nets][2], seed) if conversion \
        else None
    config = models[0].config
    got, want = graph.stack_models(models), graph.stack_models(models)
    m_cp, m_cp_g = (None, None) if matrices is None else (
        Parameter(matrices.copy()), Parameter(matrices.copy()))
    pos_weight = batched_pos_weight(ys)
    losses = step_program(config, got, xs.shape, conversion=m_cp)(
        features, xs, ys, pos_weight)
    losses_g = graph.stacked_loss_backward(config, want, m_cp_g, features,
                                           xs, ys, pos_weight)
    assert same_bytes(losses, losses_g)
    assert_same_stacks(got, want)
    if conversion:
        assert same_bytes(m_cp.grad, m_cp_g.grad)


@pytest.mark.parametrize("conversion", [True, False])
@pytest.mark.parametrize("k, nets, edge", EDGE_CASES)
def test_pretrain_epoch_equals_the_graph(k, nets, edge, conversion):
    """One pooled-pretraining epoch: one program, new inputs each step,
    the constant ``[I | I | I] / 3``, one stacked Adam."""
    seed = 100 + EDGE_CASES.index((k, nets, edge))
    ne = NETS[nets][2]
    models = seeded_stack(nets, conversion, k, edge, seed)
    constant = np.stack([np.hstack([np.eye(ne)] * 3) / 3.0] * k) \
        if conversion else None
    config = models[0].config
    got, want = graph.stack_models(models), graph.stack_models(models)
    optimizers = [Adam(stack_parameters(got), lr=0.01),
                  Adam(stack_parameters(want), lr=0.01)]
    first = edge_inputs(nets, k, edge, seed)
    steps = [first] + [edge_inputs(nets, k, edge, seed + t,
                                   n=first[1].shape[1]) for t in (1, 2)]
    loss_backward = step_program(config, got, steps[0][1].shape,
                                 conversion=constant)
    for features, xs, ys in steps:
        pos_weight = batched_pos_weight(ys)
        losses = loss_backward(features, xs, ys, pos_weight)
        losses_g = graph.stacked_loss_backward(config, want, constant,
                                               features, xs, ys, pos_weight)
        assert same_bytes(losses, losses_g)
        assert_same_stacks(got, want)
        for optimizer in optimizers:
            optimizer.step()
    assert_same_stacks(got, want, grads=False)


def test_a_stack_and_its_conversion_must_agree():
    models = seeded_stack("small", True, 2, "both classes", 0)
    features, xs, ys = edge_inputs("small", 2, "both classes", 0)
    with pytest.raises(ValueError, match="use_conversion=True"):
        step_program(models[0].config, graph.stack_models(models), xs.shape)
    models = seeded_stack("small", False, 2, "both classes", 0)
    with pytest.raises(ValueError, match="use_conversion=False"):
        step_program(models[0].config, graph.stack_models(models), xs.shape,
                     conversion=near_averaging(2, NETS["small"][2], 0))
